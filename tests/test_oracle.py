"""Differential oracle: the jet calculus against sympy.

Each derivation is recomputed by sympy on generated expressions, with
jet coordinates as derivatives of undefined functions of the
independent variable and parameters as symbols, and the two results
must agree after expansion.  sympy shares no code with the kernel, so
agreement is an independent confirmation of the derivation rules.  The
zero curvature of the main and the transported spectral pair is
re-derived the same way from the catalog leaves, and each verdict
compared with the suite's."""

import pytest
import sympy
from hypothesis import given, settings
from sympy.calculus.euler import euler_equations
from sympy.core.function import AppliedUndef

from jet_strategies import RING, exprs, monomials
from jetverify import catalog
from jetverify.jetalg import (
    STRIDE, RingContext, euler_derivative, substitute, total_derivative,
)
from jetverify.opcalc import LocalOp
from jetverify.verify import PASS, suite

TARGET = RingContext("y", ("u", "v"), ("lam",))

SYMBOLS = {name: sympy.Symbol(name) for name in ("x", "y", "lam")}


def function(ring, name):
    return sympy.Function(name)(SYMBOLS[ring.independent])


def jet(ring, name, order):
    f = function(ring, name)
    return f.diff(SYMBOLS[ring.independent], order) if order else f


def to_sympy(e, jets=None):
    """e as a sympy expression.  jets maps (dependent, order) to the
    value of that jet; by default it is the derivative of an undefined
    function of the independent variable."""
    out = sympy.Integer(0)
    for (vk, pk), c in e.coeff_items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, ex in vk:
            d, k = divmod(g, STRIDE)
            name = e.ring.dependents[d]
            term *= (jets[(name, k)] if jets else jet(e.ring, name, k)) ** ex
        for p, ex in pk:
            term *= SYMBOLS[e.ring.parameters[p]] ** ex
        out += term
    return out


def agree(ours, theirs):
    return sympy.expand(to_sympy(ours) - theirs) == 0


@settings(deadline=None, max_examples=40)
@given(monomials(), exprs(max_terms=3), exprs(max_terms=3))
def test_product_and_power_match_sympy(m, p, q):
    assert agree(m * p, to_sympy(m) * to_sympy(p))
    assert agree(p * m, to_sympy(p) * to_sympy(m))
    assert agree(p * q, to_sympy(p) * to_sympy(q))
    for n in (1, 2, 3):
        assert agree(p ** n, to_sympy(p) ** n)
    assert agree(m ** -2, to_sympy(m) ** -2)


@settings(deadline=None, max_examples=60)
@given(exprs())
def test_total_derivative_matches_sympy(e):
    assert agree(total_derivative(e), sympy.diff(to_sympy(e), SYMBOLS["x"]))


@settings(deadline=None, max_examples=40)
@given(exprs(max_factors=2))
def test_euler_derivative_matches_sympy(e):
    # sympy drops an equation whose sides evaluate to numbers; a free
    # scale keeps a nonzero constant variational derivative symbolic
    scale = sympy.Symbol("scale")
    lagrangian = scale * to_sympy(e)
    for name in ("u", "v"):
        eqs = euler_equations(lagrangian, [function(RING, name)],
                              SYMBOLS["x"])
        theirs = eqs[0].lhs / scale if eqs else 0
        assert agree(euler_derivative(e, name), theirs)


@settings(deadline=None, max_examples=40)
@given(exprs(max_order=1, max_terms=2), exprs(max_order=1, max_terms=2),
       exprs(max_order=1, max_terms=2))
def test_adjoint_matches_sympy(c0, c1, c2):
    # L* f = sum over k of (-d)^k (c_k f), on a free test function
    op = LocalOp(RING, {0: c0, 1: c1, 2: c2})
    f = function(RING, "phi")
    theirs = sum((-1) ** k * sympy.diff(to_sympy(c) * f, SYMBOLS["x"], k)
                 for k, c in enumerate((c0, c1, c2)))
    assert agree(op.adjoint().apply(RING.coord("phi")), theirs)


def sympy_image(e, rules, jacobian):
    """e with each dependent replaced by its rule, every derivative
    step taken as jacobian times d/dy, all in sympy."""
    y = SYMBOLS["y"]
    jac = to_sympy(jacobian)
    images = {}
    for name in ("u", "v"):
        cur = to_sympy(rules[name])
        for k in range(3):
            images[(name, k)] = cur
            cur = jac * sympy.diff(cur, y)
    return to_sympy(e, images)


@settings(deadline=None, max_examples=30)
@given(exprs(negative=False, max_order=2, max_terms=2, max_factors=2),
       exprs(TARGET, max_order=1, max_terms=2),
       exprs(TARGET, max_order=1, max_terms=2), monomials(TARGET))
def test_substitute_matches_sympy(e, image_u, image_v, jacobian):
    rules = {"u": image_u, "v": image_v}
    assert agree(substitute(e, rules, target_ring=TARGET),
                 sympy_image(e, rules, TARGET.one()))
    assert agree(substitute(e, rules, target_ring=TARGET, jacobian=jacobian),
                 sympy_image(e, rules, jacobian))


def constrained(e, ring, sysdef):
    """e with each jet of a constrained dependent at or above its rule's
    order k0 replaced by the derivative of the rule of order k - k0,
    repeated until no such jet is left."""
    x = SYMBOLS[ring.independent]
    rules = {function(ring, dep): (rule.order, to_sympy(rule.rhs))
             for dep, rule in sysdef.constraints.rules.items()}
    while True:
        swap = {}
        for atom in e.atoms(sympy.Derivative, AppliedUndef):
            f, k = ((atom.expr, atom.derivative_count)
                    if isinstance(atom, sympy.Derivative) else (atom, 0))
            if f in rules and k >= rules[f][0]:
                order, rhs = rules[f]
                swap[atom] = sympy.diff(rhs, x, k - order)
        if not swap:
            return e
        # xreplace matches from the top, so a derivative is swapped
        # whole before the function inside it
        e = sympy.expand(e.xreplace(swap))


def curvature(C, pair_ident, sys_ident):
    """The 16 entries of U_t - V_x + [U, V] for the pair pair_ident on
    the flow sys_ident, re-derived in sympy from the leaves of the
    catalog view C.

    The time derivative is the derivative in eps at 0 of U with each
    evolved dependent f replaced by f + eps f_t, and the constraints
    are then applied by ``constrained``."""
    pair, sysdef = C.get(pair_ident), C.get(sys_ident)
    ring, eps = pair.ring, sympy.Symbol("eps")
    x = SYMBOLS[ring.independent]
    U, V = ([[to_sympy(e) for e in row] for row in half]
            for half in (pair.space, pair.time))
    flow = {function(ring, dep): function(ring, dep) + eps * to_sympy(rhs)
            for dep, rhs in sysdef.evolution.items()}
    out = []
    for a in range(4):
        for b in range(4):
            ut = sympy.diff(U[a][b].subs(flow).doit(), eps).subs(eps, 0)
            e = ut - sympy.diff(V[a][b], x) + sum(
                U[a][k] * V[k][b] - V[a][k] * U[k][b] for k in range(4))
            out.append(constrained(sympy.expand(e), ring, sysdef))
    return out


def zc_main_curvature(C):
    return curvature(C, "lax.main", "sys.main")


def test_zc_main_is_flat_in_sympy():
    assert zc_main_curvature(catalog.CATALOG) == [0] * 16
    assert [r.status for r in suite.run_suite(selection="zc_main")] == [PASS]


@pytest.mark.parametrize("ident,slot", suite.sample_mutations("zc_main", 3))
def test_zc_main_verdict_on_a_mutant_matches_sympy(ident, slot):
    flat = zc_main_curvature(catalog.CATALOG.with_mutation(ident, slot)) \
        == [0] * 16
    rows = suite.run_mutated("zc_main", ident, slot)
    assert flat == ([r.status for r in rows] == [PASS])


def test_zc_trans_is_flat_in_sympy():
    assert curvature(catalog.CATALOG, "lax.trans", "sys.mdflow") \
        == [0] * 16
    assert [r.status for r in suite.run_suite(selection="zc_trans")] \
        == [PASS]


@pytest.mark.parametrize("ident,slot", suite.sample_mutations("zc_trans", 3))
def test_zc_trans_verdict_on_a_mutant_matches_sympy(ident, slot):
    flat = curvature(catalog.CATALOG.with_mutation(ident, slot),
                     "lax.trans", "sys.mdflow") == [0] * 16
    rows = suite.run_mutated("zc_trans", ident, slot)
    assert flat == ([r.status for r in rows] == [PASS])
