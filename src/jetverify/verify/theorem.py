"""The operator-transformation theorem: re-derivation of the two
Jacobian block matrices, their factored forms, and the sandwich
identities carrying both Hamiltonian operators to the new variable."""

from fractions import Fraction as F
from functools import cached_property

from ..jetalg import (
    NotIntegrable, partial_derivative, substitute, total_derivative,
)
from ..opcalc import (
    LocalOp, MatrixOp, NonlocalStore, PseudoOp, frechet_row,
    transport_local,
)
from .. import catalog as _catalog
from .base import NORMAL_FORM, TEST_VECTOR, Claim, usdef_rules
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
    """Shared scaffolding for the theorem checks, each part built the
    first time a row asks for it, so a row builds only what it reads:
    the derived Jacobian data, the registered transported kernel, both
    Hamiltonian operators in the new variable, and the stated matrices
    with coefficients reduced to the density pair."""

    def __init__(self, C):
        self.C = C

    @cached_property
    def jacobians(self):
        return _derived_jacobians(self.C)

    @cached_property
    def registry(self):
        return transported_kernel(self.C)

    @cached_property
    def j1(self):
        u = _catalog.RING_Y.coord("u")
        return self._transported("J1", {"E": ("EHY", u ** -1)})

    @cached_property
    def j2(self):
        return self._transported("J2", {})

    @cached_property
    def smap(self):
        rules = usdef_rules(self.C)
        vsub = _catalog.parametrization(_catalog.RING_Y)

        def smap(c):
            return rules.reduce(substitute(c, vsub))

        return smap

    @cached_property
    def t1(self):
        return self._mapped("T1")

    @cached_property
    def t2(self):
        return self._mapped("T2")

    @cached_property
    def jt2(self):
        return self._mapped("Jt2")

    @cached_property
    def lam(self):
        return self._mapped("Lambda")

    @cached_property
    def lam_adjoint(self):
        return self.lam.adjoint()

    @cached_property
    def middle(self):
        return self._mapped("Jt1.middle")

    def _transported(self, ident, inverse_map):
        u = _catalog.RING_Y.coord("u")
        return MatrixOp(tuple(
            tuple(transport_pseudo(e, u, inverse_map) for e in row)
            for row in self.C.get(ident).grid))

    def _mapped(self, ident):
        return MatrixOp(tuple(tuple(e.map_coefficients(self.smap)
                                    for e in row)
                              for row in self.C.get(ident).grid))


def apply_sandwich(lam, lam_adjoint, middle, vec, store):
    """-1/16 lam o middle o lam* applied to vec, one factor at a time:
    lam and its adjoint both carry integral tails, which are applied,
    never composed, so the sandwich is only testable by application."""
    step = lam_adjoint.apply(vec, store)
    step = middle.apply(step, store)
    step = lam.apply(step, store)
    return [F(-1, 16) * e for e in step]


def _derived_jacobians(C):
    """Re-derivation of the forward Jacobian data from the variable
    change itself.

    Returns (p_rows, q_rows, weights): the linearization of the new
    independent variable and of each transported coefficient function
    in the two momentum directions, as operators over the new ring,
    plus the first derivatives of the coefficient functions."""
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
    return p_rows, q_rows, weights


def theorem1(C):
    tr = Transport(C)
    yield "theorem1.t1", lambda: _t1_row(C, tr)
    yield "theorem1.t2", lambda: _t2_row(C, tr)
    yield "theorem1.factored", lambda: _factored_row(C)
    yield "theorem1.jt2", lambda: _jt2_check(C, tr)
    yield "theorem1.jt1", lambda: _jt1_check(C, tr)


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
                   "stated one in either orientation", verdict)],
                 NORMAL_FORM, notes)


def _t2_row(C, tr):
    """The backward block matrix: four candidate readings of the
    adjoint recipe; exactly one must reproduce the stated matrix."""
    Y = _catalog.RING_Y
    uy = Y.coord("u")
    p_rows, q_rows, weights = tr.jacobians
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
            except NotIntegrable as ex:
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
    return Claim(C.citation("T2"),
                 [("exactly one adjoint reading must reproduce the "
                   "stated backward matrix",
                   Y.zero() if len(survivors) == 1 else Y.one())],
                 NORMAL_FORM, t2_notes)


def _factored_row(C):
    """The factored forms through the common left factor."""
    Y = _catalog.RING_Y
    uy = Y.coord("u")
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
    return Claim(
        C.citation("Lambda"),
        [("common-factor form of the forward matrix",
          Y.zero() if left == C.get("T1") else Y.one()),
         ("common-factor form of the backward matrix",
          Y.zero() if right == C.get("T2") else Y.one())],
        NORMAL_FORM)


def _basis_vectors(ring):
    return ([ring.coord("phi"), ring.zero()],
            [ring.zero(), ring.coord("psi")])


def _sandwich_residuals(tr, middle, vec, store):
    lhs = tr.t1.apply(middle.apply(tr.t2.apply(vec, store), store), store)
    return [-e for e in lhs]


def _jt2_check(C, tr):
    """The local Hamiltonian operator transported: matching it against
    the stated composed normal form identifies which momentum-side
    operator produces it."""
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
    return Claim(C.citation("Jt2"), pairs, TEST_VECTOR, notes)


def _jt1_check(C, tr):
    """The sandwich form of the transformed operator: displayed with
    the nonlocal momentum-side operator, reproduced by the local one."""
    original = []
    corrected = []
    store = NonlocalStore(_catalog.RING_Y, registry=tr.registry)
    for tag, vec in zip(("first", "second"),
                        _basis_vectors(_catalog.RING_Y)):
        rhs = apply_sandwich(tr.lam, tr.lam_adjoint, tr.middle, vec,
                             store)
        lhs_orig = _sandwich_residuals(tr, tr.j1, vec, store)
        lhs_corr = _sandwich_residuals(tr, tr.j2, vec, store)
        for k in range(2):
            original.append(("%s basis vector, row %d" % (tag, k + 1),
                             store.reduce(lhs_orig[k] - rhs[k])))
            corrected.append(("%s basis vector, row %d" % (tag, k + 1),
                              store.reduce(lhs_corr[k] - rhs[k])))
    return Claim(C.citation("Jt1.middle"), original, TEST_VECTOR,
                 corrected=corrected)
