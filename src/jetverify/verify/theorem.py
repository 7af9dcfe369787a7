"""The operator-transformation theorem: re-derivation of the two
Jacobian block matrices, their factored forms, and the sandwich
identities carrying both Hamiltonian operators to the new variable."""

from fractions import Fraction as F

from ..jetalg import partial_derivative, substitute, total_derivative
from ..opcalc import (
    LocalOp, MatrixOp, NonlocalStore, PseudoOp, frechet_row,
    transport_local,
)
from .. import catalog as _catalog
from .base import (
    NORMAL_FORM, TEST_VECTOR, conclude, conclude_erratum, usdef_rules,
)
from .hamops import carry_coeff, transported_kernel


def transport_pseudo(op, jac, inverse_map):
    """A pseudo-differential operator carried through the variable
    change: coefficients through the momentum parametrization, the
    derivation rescaled by the density, integral tails reweighted, and
    each named inverse replaced per inverse_map, its compensating
    factor folded into the word's right side."""
    ring = jac.ring
    local = transport_local(op.local, carry_coeff, jac)
    tail = [(carry_coeff(p), carry_coeff(q) / jac) for p, q in op.tail]
    words = []
    for scalar, left, name, right in op.words:
        new_name, compensator = inverse_map[name]
        right = transport_local(right, carry_coeff, jac).scaled(compensator)
        words.append((scalar, transport_local(left, carry_coeff, jac),
                      new_name, right))
    return PseudoOp(ring, local, tail, words)


class Transport:
    """Shared scaffolding for the theorem checks: the registered
    transported kernel, both Hamiltonian operators in the new variable,
    and the stated matrices with coefficients reduced to the density
    pair."""

    def __init__(self, ctx):
        C = ctx.catalog
        Y = _catalog.RING_Y
        u = Y.coord("u")
        self.ring = Y
        self.rules = usdef_rules(C)
        self.registry = transported_kernel(ctx)
        inv_map = {"E": ("EHY", u ** -1)}
        self.j1 = MatrixOp(tuple(
            tuple(transport_pseudo(e, u, inv_map) for e in row)
            for row in C.get("J1").grid))
        self.j2 = MatrixOp(tuple(
            tuple(PseudoOp.from_local(transport_local(e.local,
                                                      carry_coeff, u))
                  for e in row)
            for row in C.get("J2").grid))

        vsub = _catalog.parametrization(Y)

        def smap(c):
            return self.rules.reduce(substitute(c, vsub))

        self.smap = smap
        self.t1 = self._mapped(C.get("T1"))
        self.t2 = self._mapped(C.get("T2"))
        self.jt2 = self._mapped(C.get("Jt2"))
        self.lam = self._mapped(C.get("Lambda"))
        self.middle = self._mapped(C.get("Jt1.middle"))

    @staticmethod
    def apply_sandwich(lam, middle, vec, store):
        """-1/16 lam o middle o lam* applied to vec, one factor at a
        time: composing the integral tails of lam against its adjoint
        is not closed, so the sandwich is only testable by
        application."""
        step = lam.adjoint().apply(vec, store)
        step = middle.apply(step, store)
        step = lam.apply(step, store)
        return [F(-1, 16) * e for e in step]

    def _mapped(self, matrix):
        return MatrixOp(tuple(tuple(e.map_coefficients(self.smap)
                                    for e in row)
                              for row in matrix.grid))


def _derived_jacobians(ctx):
    """Re-derivation of the forward Jacobian data from the variable
    change itself.

    Returns (p_rows, q_rows, weights): the linearization of the new
    independent variable and of each transported coefficient function
    in the two momentum directions, as operators over the new ring,
    plus the first derivatives of the coefficient functions."""
    C = ctx.catalog
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

    ymap = dict(C.get("ymap"))
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
    return p_rows, q_rows, weights


def theorem1(ctx):
    C = ctx.catalog
    Y = _catalog.RING_Y
    uy = Y.coord("u")
    tr = Transport(ctx)
    p_rows, q_rows, weights = _derived_jacobians(ctx)

    # forward block matrix: coefficient-weighted density rows minus the
    # coefficient linearizations
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
    yield conclude(ctx, "theorem1.t1", C.citation("T1"),
                   [("derived forward block matrix fails to match "
                     "the stated one in either orientation",
                     verdict)], NORMAL_FORM, notes)

    # backward block matrix: four candidate readings of the adjoint
    # recipe; exactly one must reproduce the stated matrix
    dxq = [uy * w for w in weights]

    def xstar(op):
        return (PseudoOp.from_expr(uy).compose(op.adjoint())
                .compose(PseudoOp.from_expr(uy ** -1)))

    survivors = []
    t2_notes = []
    for adj_label, star in (("plain adjoint", lambda o: o.adjoint()),
                            ("density-weighted adjoint", xstar)):
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
                    tuple(assemble(star(q_rows[k][col]),
                                   star(p_rows[col]),
                                   uy, dxq[k])
                          for k in range(2))
                    for col in range(2)))
            except Exception as ex:
                t2_notes.append("reading (%s, %s) is ill-formed: %s"
                                % (adj_label, arg_label, ex))
                continue
            if cand == tr.t2:
                survivors.append((adj_label, arg_label))
            else:
                t2_notes.append("reading (%s, %s) does not reproduce "
                                "the stated matrix"
                                % (adj_label, arg_label))
    if len(survivors) == 1:
        t2_notes.append("unique surviving reading: %s, %s"
                        % survivors[0])
    yield conclude(ctx, "theorem1.t2", C.citation("T2"),
                   [("exactly one adjoint reading must reproduce "
                     "the stated backward matrix",
                     Y.zero() if len(survivors) == 1 else Y.one())],
                   NORMAL_FORM, t2_notes)

    # factored forms through the common left factor
    vinv = PseudoOp.from_expr(Y.coord("v") ** -1)
    winv = PseudoOp.from_expr(Y.coord("w") ** -1)
    zero = PseudoOp.zero(Y)
    diag1 = MatrixOp(((vinv, zero), (zero, winv)))
    lam = C.get("Lambda")
    left = lam.compose(diag1).scaled(F(1, 4))
    uveq = PseudoOp.from_expr(uy * Y.coord("v") ** -1)
    uweq = PseudoOp.from_expr(uy * Y.coord("w") ** -1)
    diag2 = MatrixOp(((uveq, zero), (zero, uweq)))
    right = diag2.compose(lam.adjoint()).scaled(F(-1, 4))
    yield conclude(
        ctx, "theorem1.factored", C.citation("Lambda"),
        [("common-factor form of the forward matrix",
          Y.zero() if left == C.get("T1") else Y.one()),
         ("common-factor form of the backward matrix",
          Y.zero() if right == C.get("T2") else Y.one())],
        NORMAL_FORM)

    yield _jt2_check(ctx, tr)
    yield _jt1_check(ctx, tr)


def _basis_vectors(ring):
    return ([ring.coord("phi"), ring.zero()],
            [ring.zero(), ring.coord("psi")])


def _sandwich_residuals(tr, middle, vec, store):
    lhs = tr.t1.apply(middle.apply(tr.t2.apply(vec, store), store), store)
    return [-e for e in lhs]


def _jt2_check(ctx, tr):
    """The local Hamiltonian operator transported: matching it against
    the stated composed normal form identifies which momentum-side
    operator produces it."""
    C = ctx.catalog
    pairs = []
    store = NonlocalStore(_catalog.RING_Y, registry=tr.registry)
    for tag, vec in zip(("first", "second"),
                        _basis_vectors(_catalog.RING_Y)):
        lhs = _sandwich_residuals(tr, tr.j1, vec, store)
        rhs = tr.jt2.apply(vec, store)
        for k in range(2):
            pairs.append(("%s basis vector, row %d" % (tag, k + 1),
                          store.reduce(lhs[k] - rhs[k])))
    notes = ["the stated composed normal form is reproduced by the "
             "nonlocal momentum-side operator; the sandwich row "
             "carries the display's crossed pairing"]
    return conclude(ctx, "theorem1.jt2", C.citation("Jt2"), pairs,
                    TEST_VECTOR, notes)


def _jt1_check(ctx, tr):
    """The sandwich form of the transformed operator: displayed with
    the nonlocal momentum-side operator, reproduced by the local one."""
    C = ctx.catalog
    original = []
    corrected = []
    store = NonlocalStore(_catalog.RING_Y, registry=tr.registry)
    for tag, vec in zip(("first", "second"),
                        _basis_vectors(_catalog.RING_Y)):
        rhs = tr.apply_sandwich(tr.lam, tr.middle, vec, store)
        lhs_orig = _sandwich_residuals(tr, tr.j1, vec, store)
        lhs_corr = _sandwich_residuals(tr, tr.j2, vec, store)
        for k in range(2):
            original.append(("%s basis vector, row %d" % (tag, k + 1),
                             store.reduce(lhs_orig[k] - rhs[k])))
            corrected.append(("%s basis vector, row %d" % (tag, k + 1),
                              store.reduce(lhs_corr[k] - rhs[k])))
    return conclude_erratum(ctx, "theorem1.jt1", C.citation("Jt1.middle"),
                            original, corrected, TEST_VECTOR)
