"""The operator-transformation theorem: re-derivation of the two
Jacobian block matrices, their factored forms, and the sandwich
identities carrying both Hamiltonian operators to the new variable.

The sandwich row theorem1.jt1 asserts erratum E2 in both directions,
each reading decided by applying both sides to the basis vectors
through a fresh nonlocal store.  With D1 = diag(1/v, 1/w) and
D2 = diag(u/v, u/w), the factorization premises T1 = 1/4 Lambda D1 and
T2 = -1/4 D2 Lambda* make the corrected residual
-T1 J2 T2 v + 1/16 Lambda M Lambda* v of a vector v equal to
1/16 Lambda Delta Lambda* v, with Delta = D1 J2 D2 + M.  So when they
hold, a zero Delta decides the corrected reading with no image built,
and a nonzero one (one local entry under a J2 or Jt1.middle mutant) by
applying that short sandwich; when one fails, T1 J2 is applied to the
T2 image.  The first nonzero corrected residual refutes the corrected
reading, and no further basis vector is derived.  The displayed reading
is derived, on a fresh store of its own, only when every corrected
residual vanishes, since a failing corrected reading alone makes the
row's record.

Both sandwich rows follow the record rule of base.conclude, which
quotes a failing row's first nonzero residual only: each feeds its
residual pairs lazily to refuting_prefix, one basis vector at a time.
The row theorem1.jt2 is one whole row, as theorem1.jt1 is: each basis
vector's image -T1 J1 T2 v is a part of its own, built through a fresh
store and holding that store's relations, and is compared with Jt2 v
under them, so a refuted first vector never builds the second."""

from fractions import Fraction as F

from ..jetalg import (
    NotIntegrable, partial_derivative, promote, substitute,
    total_derivative,
)
from ..opcalc import (
    LocalOp, MatrixOp, NonlocalStore, PseudoOp, frechet_row,
    transport_local,
)
from .. import catalog as _catalog
from .base import (
    NORMAL_FORM, TEST_VECTOR, Claim, refuting_prefix, usdef_rules, whole,
)
from .hamops import carry_coeff, transport_pseudo, transported_kernel


def _part(build):
    """A Transport part: a property deriving build's value through the
    catalog view under build's name on every access."""
    name = build.__name__
    return property(lambda tr: tr.C.derive(name, lambda: build(tr)))


class _Cells:
    """A Transport value built cell by cell: build(tr, i, j) is cell
    (i, j), a part of its own under the key "<name> i,j", and each access
    to tr.<name> derives the four cells and assembles them, into a
    MatrixOp unless another assemble is given.  A cell's build fetches
    only the cells it needs, so a mutant of one cell of an entry rebuilds
    only the cells that read it."""

    def __init__(self, build, assemble=MatrixOp):
        self.build, self.assemble = build, assemble
        self.name = build.__name__

    def cell(self, tr, i, j):
        return tr.C.derive("%s %s" % (self.name, _catalog.cell_label(i, j)),
                           lambda: self.build(tr, i, j))

    def __get__(self, tr, owner=None):
        if tr is None:
            return self
        return self.assemble(tuple(tuple(self.cell(tr, i, j)
                                         for j in range(2))
                                   for i in range(2)))


def _premise(build):
    """A premise checked cell by cell: _Cells whose value is whether
    build(tr, i, j) holds in all four cells."""
    return _Cells(build, lambda grid: all(grid[0] + grid[1]))


class Transport:
    """Shared scaffolding for the theorem checks, each part built the
    first time a row asks for it, so a row builds only what it reads:
    the derived Jacobian data, the transported kernel's skew remainder,
    both Hamiltonian operators in the new variable, and the stated
    matrices with coefficients reduced to the density pair.

    Every part is a C.derive part, like any shared value of a check: the
    harness's view builds it once per check run and serves it after
    that, and over the plain catalog, which keeps nothing, each access
    builds it.  A whole part is keyed by its attribute name.  Each 2x2
    matrix is built cell by cell, each cell a part keyed by the name and
    the cell label: the mapped stated matrices (t1, t2, jt2, lam,
    middle), the transported operators (j1, j2), both sides of the
    common-factor premises, which compare the stated cells with
    (Lambda D1)ab = Lambda_ab D1_bb and (D2 Lambda*)ab = D2_aa Lambda_ba*,
    and Delta = D1 J2 D2 + M, whose D1 J2 D2 (d1_j2_d2) reads J2 but not
    Jt1.middle.  A cell's build fetches only cells, so it reads the pair
    (entry, cell label).  The mutation harness records the reads of each
    part, nested parts included, and hands a mutant every part of the
    unmutated run whose reads lack both the mutated entry and the cell
    its slot lies in.  So a part's value is shared across rows and
    mutants and must not be changed by its readers."""

    def __init__(self, C):
        self.C = C

    @_part
    def jacobians(self):
        return _derived_jacobians(self.C)

    @_part
    def inverses(self):
        return transported_kernel(self.C)

    @_Cells
    def j1(self, i, j):
        return self._transported("J1", i, j)

    @_Cells
    def j2(self, i, j):
        return self._transported("J2", i, j)

    @_part
    def smap(self):
        rules = usdef_rules(self.C)
        vsub = _catalog.parametrization(_catalog.RING_Y)

        def smap(c):
            return rules.reduce(substitute(c, vsub))

        return smap

    @_Cells
    def t1(self, i, j):
        return self._mapped("T1", i, j)

    @_Cells
    def t2(self, i, j):
        return self._mapped("T2", i, j)

    @_Cells
    def jt2(self, i, j):
        return self._mapped("Jt2", i, j)

    @_Cells
    def lam(self, i, j):
        return self._mapped("Lambda", i, j)

    @_part
    def lam_adjoint(self):
        return self.lam.adjoint()

    @_Cells
    def middle(self, i, j):
        return self._mapped("Jt1.middle", i, j)

    @_part
    def d1_j2_d2(self):
        diag1, diag2 = (self.mapped(d) for d in _diagonals())
        return diag1.compose(self.j2).compose(diag2)

    @_Cells
    def delta(self, i, j):
        return (self.d1_j2_d2.grid[i][j]
                + Transport.middle.cell(self, i, j))

    @_part
    def lam_factors(self):
        """Whether T1 = 1/4 Lambda D1 and whether T2 = -1/4 D2 Lambda*
        hold on the raw entries, each decided cell by cell; mapping is a
        homomorphism, so then they hold on the mapped matrices too."""
        return self.t1_factor, self.t2_factor

    @_premise
    def t1_factor(self, a, b):
        # (Lambda D1)ab = Lambda_ab D1_bb
        lam = self.C.cell("Lambda", a, b)
        return self.C.cell("T1", a, b) == lam.compose(
            _diagonals()[0].grid[b][b]).scaled(F(1, 4))

    @_premise
    def t2_factor(self, a, b):
        # (D2 Lambda*)ab = D2_aa Lambda_ba*
        lam = self.C.cell("Lambda", b, a)
        return self.C.cell("T2", a, b) == _diagonals()[1].grid[a][a].compose(
            lam.adjoint()).scaled(F(-1, 4))

    def _transported(self, ident, i, j):
        return transport_pseudo(self.C.cell(ident, i, j),
                                _catalog.RING_Y.coord("u"))

    def _mapped(self, ident, i, j):
        return self.C.cell(ident, i, j).map_coefficients(self.smap)

    def mapped(self, op):
        """A matrix operator with every coefficient reduced to the
        density pair."""
        return MatrixOp(tuple(tuple(e.map_coefficients(self.smap)
                                    for e in row)
                              for row in op.grid))


def apply_sandwich(scale, left, middle, right, vec, store):
    """scale * left o middle o right applied to vec, the right factor
    first: the outer factors carry integral tails, which are applied,
    never composed, so a sandwich is only testable by application."""
    step = right.apply(vec, store)
    step = middle.apply(step, store)
    step = left.apply(step, store)
    return [scale * e for e in step]


def _derived_jacobians(C):
    """Re-derivation of the forward Jacobian data from the variable
    change itself.

    Returns the tuples (p_rows, q_rows, weights): the linearization of
    the new independent variable and of each transported coefficient
    function in the two momentum directions, as operators over the new
    ring, plus the first derivatives of the coefficient functions."""
    Y = _catalog.RING_Y
    uy = Y.coord("u")

    # linearization of the momentum parametrization in (u, s), inverted
    param = _catalog.parametrization(_catalog.RING_X)
    grid = tuple(tuple(partial_derivative(param[mom], dep, 0)
                       for dep in ("u", "s"))
                 for mom in ("v", "w"))
    det = grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    ginv = ((grid[1][1] / det, -grid[0][1] / det),
            (-grid[1][0] / det, grid[0][0] / det))

    ymap = C.get("ymap")
    p_rows = []
    q_rows = [[], []]
    weights = []
    for col in range(2):
        p_rows.append(PseudoOp.from_tail(Y.one(),
                                         carry_coeff(ginv[0][col]) / uy))
    for knum, label in enumerate(("Q1", "Q2")):
        qk = ymap[label]
        weights.append(total_derivative(carry_coeff(qk)))
        for col in range(2):
            row_x = (frechet_row(qk, "u").compose(
                         LocalOp.mult(ginv[0][col]))
                     + frechet_row(qk, "s").compose(
                         LocalOp.mult(ginv[1][col])))
            q_rows[knum].append(PseudoOp.from_local(
                transport_local(row_x, carry_coeff, uy)))
    return tuple(p_rows), tuple(map(tuple, q_rows)), tuple(weights)


def theorem1(C):
    tr = Transport(C)
    yield "theorem1.t1", lambda: _t1_row(C, tr), whole
    yield ("theorem1.t2", lambda: _t2_readings(tr.jacobians),
           lambda readings: _t2_row(C, tr, readings))
    yield "theorem1.factored", lambda: _factored_row(C, tr), whole
    yield "theorem1.jt2", lambda: _jt2_row(C, tr), whole
    yield "theorem1.jt1", lambda: _jt1_row(C, tr), whole


def _t1_row(C, tr):
    """The forward block matrix: coefficient-weighted density rows
    minus the coefficient linearizations."""
    Y = _catalog.RING_Y
    p_rows, q_rows, weights = tr.jacobians
    derived_t1 = MatrixOp(tuple(
        tuple(p_rows[col].scaled(weights[k]) - q_rows[k][col]
              for col in range(2))
        for k in range(2)))
    notes = []
    if derived_t1 == tr.t1:
        verdict = Y.zero()
        notes.append("orientation: coefficient-weight times the density "
                     "row, minus the coefficient row")
    else:
        verdict = Y.one()
    return Claim(C.citation("T1"),
                 [("derived forward block matrix fails to match the "
                   "stated one", verdict)],
                 NORMAL_FORM, notes)


def _t2_readings(jacobians):
    """The four candidate readings of the backward block matrix's
    adjoint recipe, each as (adjoint label, argument label, candidate),
    the candidate a MatrixOp, or for a reading that is ill-formed the
    text of its NotIntegrable.  Each of the six derived operators (four
    coefficient rows, two density rows) is starred once; its
    density-weighted adjoint u o op* o 1/u conjugates that plain one,
    and both ways of applying the recipe assemble their candidate from
    those; neither starring nor composing raises NotIntegrable, only
    applying does."""
    uy = _catalog.RING_Y.coord("u")
    p_rows, q_rows, weights = jacobians
    dxq = [uy * w for w in weights]
    q_plain = [[op.adjoint() for op in row] for row in q_rows]
    p_plain = [op.adjoint() for op in p_rows]

    def weighted(op):
        return (PseudoOp.from_expr(uy).compose(op)
                .compose(PseudoOp.from_expr(uy ** -1)))

    readings = []
    for adj_label, star in (("plain adjoint", lambda o: o),
                            ("density-weighted adjoint", weighted)):
        q_stars = [[star(op) for op in row] for row in q_plain]
        p_stars = [star(op) for op in p_plain]
        for arg_label, assemble in (
                ("composed with multiplication",
                 lambda a, b, arg1, arg2: a.compose(
                     PseudoOp.from_expr(arg1))
                     - b.compose(PseudoOp.from_expr(arg2))),
                ("applied to the argument",
                 lambda a, b, arg1, arg2: PseudoOp.from_expr(
                     a.apply(arg1) - b.apply(arg2)))):
            try:
                cand = MatrixOp(tuple(
                    tuple(assemble(q_stars[k][col], p_stars[col],
                                   uy, dxq[k])
                          for k in range(2))
                    for col in range(2)))
            except NotIntegrable as ex:
                cand = str(ex)
            readings.append((adj_label, arg_label, cand))
    return tuple(readings)


def _t2_row(C, tr, readings):
    """The backward block matrix: of the four candidate readings of the
    adjoint recipe, _t2_readings, exactly one must reproduce the stated
    matrix."""
    Y = _catalog.RING_Y
    survivors = []
    t2_notes = []
    for adj_label, arg_label, cand in readings:
        if isinstance(cand, str):
            t2_notes.append("reading (%s, %s) is ill-formed: %s"
                            % (adj_label, arg_label, cand))
        elif cand == tr.t2:
            survivors.append((adj_label, arg_label))
        else:
            t2_notes.append("reading (%s, %s) does not reproduce "
                            "the stated matrix"
                            % (adj_label, arg_label))
    if len(survivors) == 1:
        t2_notes.append("unique surviving reading: %s, %s"
                        % survivors[0])
    return Claim(C.citation("T2"),
                 [("exactly one adjoint reading must reproduce the "
                   "stated backward matrix",
                   Y.zero() if len(survivors) == 1 else Y.one())],
                 NORMAL_FORM, t2_notes)


def _diagonals():
    """D1 = diag(1/v, 1/w) and D2 = diag(u/v, u/w), the factors that
    the two block matrices put beside the common left factor:
    T1 = 1/4 Lambda D1 and T2 = -1/4 D2 Lambda*."""
    Y = _catalog.RING_Y
    u, v, w = (Y.coord(name) for name in ("u", "v", "w"))
    zero = PseudoOp.zero(Y)

    def diag(a, b):
        return MatrixOp(((PseudoOp.from_expr(a), zero),
                         (zero, PseudoOp.from_expr(b))))

    return diag(v ** -1, w ** -1), diag(u * v ** -1, u * w ** -1)


def _factored_row(C, tr):
    """The factored forms through the common left factor."""
    Y = _catalog.RING_Y
    return Claim(C.citation("Lambda"), [
        ("common-factor form of the %s matrix" % side,
         Y.zero() if holds else Y.one())
        for side, holds in zip(("forward", "backward"), tr.lam_factors)],
        NORMAL_FORM)


def _basis_vectors(ring):
    return ([ring.coord("phi"), ring.zero()],
            [ring.zero(), ring.coord("psi")])


# the tags of the two basis vectors, and the labels of each vector's two
# residual rows, in order
_TAGS = ("first", "second")
_LABELS = tuple(tuple("%s basis vector, row %d" % (tag, k) for k in (1, 2))
                for tag in _TAGS)


def _jt2_image(tr, vec):
    """(image, relations): -T1 J1 T2 applied to vec through a fresh
    store, and that store's relations."""
    store = NonlocalStore(_catalog.RING_Y, inverses=tr.inverses)
    j1 = tr.j1  # before T1, so the row's reads keep their order
    return (tuple(apply_sandwich(-1, tr.t1, j1, tr.t2, vec, store)),
            store.relations)


def _jt2_row(C, tr):
    """The local Hamiltonian operator transported: matching it against
    the stated composed normal form identifies which momentum-side
    operator produces it.

    Each basis vector's image is a part of its own, keyed
    "theorem1.jt2 first image" or "theorem1.jt2 second image", built
    through a fresh store and holding that store's relations, which
    reads no cell of Jt2, so a Jt2 mutant is handed both and only
    compares.  Jt2 is
    local: applying it needs no store.  Each difference is reduced under
    its image's relations, and the second image is built only when every
    residual of the first vanishes."""
    def residuals():
        for tag, labels, vec in zip(_TAGS, _LABELS,
                                    _basis_vectors(_catalog.RING_Y)):
            lhs, relations = C.derive("theorem1.jt2 %s image" % tag,
                                      lambda: _jt2_image(tr, vec))
            rhs = tr.jt2.apply(vec)
            for label, a, b in zip(labels, lhs, rhs):
                yield label, relations.reduce(a - promote(b, relations.ring))

    pairs = refuting_prefix(residuals())
    notes = ["the stated composed normal form is reproduced by the "
             "nonlocal momentum-side operator; the sandwich row "
             "carries the display's crossed pairing"]
    return Claim(C.citation("Jt2"), pairs, TEST_VECTOR, notes)


def _middle_difference(tr):
    """Delta = D1 J2 D2 + M, or None when it is the zero operator."""
    delta = tr.delta
    return (None if all(e.is_zero for row in delta.grid for e in row)
            else delta)


def _jt1_residuals(tr, middle, vec, store):
    """The residuals on vec of -T1 middle T2 = -1/16 Lambda M Lambda*,
    middle J1 as displayed or J2 as corrected: the sandwich applied
    first, each residual reduced under the store as it then stands."""
    rhs = apply_sandwich(F(-1, 16), tr.lam, tr.middle, tr.lam_adjoint,
                         vec, store)
    lhs = apply_sandwich(-1, tr.t1, middle, tr.t2, vec, store)
    return [store.reduce(a - b) for a, b in zip(lhs, rhs)]


def _jt1_row(C, tr):
    """The sandwich form of the transformed operator: displayed with
    the nonlocal momentum-side operator, reproduced by the local one.

    The corrected reading comes first: its residual pairs through a
    fresh store, decided three ways, as the module docstring derives,
    and read through refuting_prefix, so up to and including the first
    nonzero one.  Only when they all vanish is the displayed reading
    derived, both basis vectors through a fresh store of its own, each
    vector's residuals reduced under the store as it then stands."""
    store = NonlocalStore(_catalog.RING_Y, inverses=tr.inverses)
    factored = all(tr.lam_factors)
    delta = _middle_difference(tr) if factored else None

    def residuals():
        for labels, vec in zip(_LABELS, _basis_vectors(_catalog.RING_Y)):
            if not factored:
                corr = _jt1_residuals(tr, tr.j2, vec, store)
            elif delta is None:
                corr = [store.ring.zero()] * 2
            else:
                corr = [store.reduce(e) for e in apply_sandwich(
                    F(1, 16), tr.lam, delta, tr.lam_adjoint, vec, store)]
            yield from zip(labels, corr)

    corrected = refuting_prefix(residuals())
    displayed = []
    if all(e.is_zero for _label, e in corrected):
        store = NonlocalStore(_catalog.RING_Y, inverses=tr.inverses)
        for labels, vec in zip(_LABELS, _basis_vectors(_catalog.RING_Y)):
            displayed.extend(zip(labels, _jt1_residuals(tr, tr.j1, vec,
                                                        store)))
    return Claim(C.citation("Jt1.middle"), displayed, TEST_VECTOR,
                 corrected=tuple(corrected))
