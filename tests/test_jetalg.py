"""Kernel tests: arithmetic, derivations, integration, rewriting.

Fixed examples pin the contract; the seeded property loops exercise
each derivation law on at least 200 random cases.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jet_strategies import COEFFS, RING, canonical, exprs, monomials
from jetverify.jetalg import (
    STRIDE, Assignment, ContextMismatch, EvalDivisionByZero, JetExpr,
    MissingEvolutionRule, NotIntegrable, NotReducible, RelationSet,
    RingContext, SystemDef,
    antiderivative, coords_of, euler_derivative, evolutionary_derivative,
    frechet_coeffs, is_total_derivative, max_order, params_of,
    partial_derivative, perturb_term, promote, random_assignment,
    random_eval, random_expr, solve_for, split_param, substitute, to_text,
    total_derivative,
)

RX = RingContext("x", ("v", "w", "q", "r", "u", "s"), ("lam",))
RY = RingContext("y", ("q", "r", "u", "s", "i", "j"), ("lam",))

N_CASES = 200


def cubic_flow_system():
    """The coupled cubic evolution system used across the suite."""
    q, r = RX.coord("q"), RX.coord("r")
    qx, rx = RX.coord("q", 1), RX.coord("r", 1)
    qxx, rxx = RX.coord("q", 2), RX.coord("r", 2)
    kap = q * rx - qx * r
    a = 3 * q * rxx - qxx * r - qx * rx - q * r
    b = 3 * qxx * r - q * rxx - qx * rx - q * r
    v, w = RX.coord("v"), RX.coord("w")
    return SystemDef(RX, {
        "v": 2 * RX.coord("v", 1) * kap + 2 * v * a,
        "w": 2 * RX.coord("w", 1) * kap - 2 * w * b,
    })


def constraint_rules():
    return (RelationSet(RX)
            .with_rule("v", 0, RX.coord("r", 3) - RX.coord("r", 1))
            .with_rule("w", 0, RX.coord("q", 3) - RX.coord("q", 1)))


# -- arithmetic ---------------------------------------------------------

def test_ring_axioms_on_fixed_cases():
    u = RX.coord("u")
    uy = RX.coord("u", 1)
    assert u * u == u ** 2
    assert (uy + -uy).is_zero
    assert u ** -1 * u == 1
    assert (2 * u - u / 2) == Fraction(3, 2) * u


def test_rational_coefficients_stay_exact():
    u = RX.coord("u")
    e = u / 3 + u / 6
    assert e == u / 2
    assert (e - u / 2).is_zero


def test_integral_coefficients_are_ints():
    u = RX.coord("u")
    for e in (u, RX.one(), RX.param("lam"), u / 2 + u / 2,
              Fraction(4, 2) * u, u ** -1 / 3 * 6, (2 * u) ** -1 * 2):
        assert e.den == 1 and canonical(e)
        assert [type(c) for _key, c in e.coeff_items()] == [int]


def test_coefficients_share_one_denominator():
    u, s = RX.coord("u"), RX.coord("s")
    e = u / 64 + 5 * s / 16 + 3
    assert e.den == 64 and canonical(e)
    assert sorted(e.nums.values()) == [1, 20, 192]
    # the content cancels as soon as the numerators allow it
    assert (64 * e).den == 1 and (e - u / 64).den == 16


@settings(deadline=None)
@given(exprs(), exprs(), monomials(), st.integers(-3, 3), COEFFS)
def test_arithmetic_keeps_coefficients_canonical(a, b, m, n, r):
    for e in (a + b, a - b, -a, a * b, a * r, r - a, m ** n, a / m, a / r,
              r / m):
        assert canonical(e)


@settings(deadline=None)
@given(exprs(), exprs(negative=False, max_order=2, max_terms=3),
       exprs(max_order=1, max_terms=2), monomials())
def test_calculus_keeps_coefficients_canonical(a, poly, b, m):
    exact = total_derivative(a)
    back = antiderivative(exact)
    for e in (exact, partial_derivative(a, "u", 1), euler_derivative(a, "v"),
              substitute(poly, {"u": b, "v": m}),
              substitute(poly, {"v": b}, jacobian=m), back):
        assert canonical(e)
    # integration by parts gives a back, less the terms without a jet
    assert back == a - jet_free(a)


# -- the kernel against a plain-Fraction reference ------------------------
#
# A reference expression is a dict from monomial key to a nonzero
# Fraction, built and transformed here term by term with no kernel code;
# its keys write each jet as the readable pair (d, k), and the kernel's
# results are compared with it, through coeff_items, once ``encoded``
# has written each jet as the kernel's generator.

# denominators up to 64 cover the catalog's quarter-power coefficients
FINE_COEFFS = st.fractions(min_value=-4, max_value=4,
                           max_denominator=64).filter(bool)
REF_PARAMS = ((), ((0, -1),), ((0, 1),), ((0, 2),))


def nonzero(ref):
    return {k: c for k, c in ref.items() if c}


def merge(a, b):
    powers = dict(a)
    for gen, ex in b:
        powers[gen] = powers.get(gen, 0) + ex
    return tuple(sorted((g, x) for g, x in powers.items() if x))


@st.composite
def references(draw, negative=True, max_terms=4, deps=(0, 1)):
    """A reference expression over jet_strategies.RING in the dependents
    of the given indices, u and v by default."""
    exponents = (1, 2, -1, -2) if negative else (1, 2)
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        vk = ()
        for _ in range(draw(st.integers(0, 3))):
            jet = (draw(st.sampled_from(deps)), draw(st.integers(0, 3)))
            vk = merge(vk, ((jet, draw(st.sampled_from(exponents))),))
        key = (vk, draw(st.sampled_from(REF_PARAMS)))
        out[key] = out.get(key, 0) + draw(FINE_COEFFS)
    return nonzero(out)


def encoded(ref):
    """The reference with each jet (d, k) written as the generator
    d * STRIDE + k, its keys kept in order."""
    return {(tuple((d * STRIDE + k, ex) for (d, k), ex in vk), pk): c
            for (vk, pk), c in ref.items()}


def kernel(ref):
    """The reference as a JetExpr, its numerators over the least common
    denominator, which then shares no factor with all of them."""
    den = lcm(*(c.denominator for c in ref.values()))
    return JetExpr(RING, {k: int(c * den) for k, c in encoded(ref).items()},
                   den)


def ref_add(p, q, sign=1):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + sign * c
    return nonzero(out)


def ref_mul(p, q):
    out = {}
    for (v1, p1), c1 in p.items():
        for (v2, p2), c2 in q.items():
            key = (merge(v1, v2), merge(p1, p2))
            out[key] = out.get(key, 0) + c1 * c2
    return nonzero(out)


def ref_pow(p, n):
    """p ** n by squaring, each product taken in the order the kernel
    takes it, so that the key order matches as well as the values."""
    if n < 0:
        ((vk, pk), c), = p.items()
        p = {(tuple((g, -x) for g, x in vk), tuple((g, -x) for g, x in pk)):
             1 / Fraction(c)}
        n = -n
    if n == 0:
        return {((), ()): Fraction(1)}
    out = None
    while n:
        if n & 1:
            out = p if out is None else ref_mul(out, p)
        if n > 1:
            p = ref_mul(p, p)
        n >>= 1
    return out


def ref_total_derivative(p):
    out = {}
    for (vk, pk), c in p.items():
        for (d, k), ex in vk:
            key = (merge(vk, (((d, k), -1), ((d, k + 1), 1))), pk)
            out[key] = out.get(key, 0) + c * ex
    return nonzero(out)


def ref_partial(p, jet):
    out = {}
    for (vk, pk), c in p.items():
        ex = dict(vk).get(jet)
        if ex:
            key = (merge(vk, ((jet, -1),)), pk)
            out[key] = out.get(key, 0) + c * ex
    return nonzero(out)


def ref_substitute(p, images, jacobian):
    """p with each dependent index d at order 0 replaced by images[d]
    (itself when absent), one derivative step being jacobian * D."""
    def image(d, k):
        if k == 0:
            return images.get(d, {((((d, 0), 1),), ()): Fraction(1)})
        return ref_mul(jacobian, ref_total_derivative(image(d, k - 1)))

    # the terms' images are summed at once: a key keeps the place of
    # its first appearance even when a partial sum cancels it
    out = {}
    for (vk, pk), c in p.items():
        term = {((), pk): c}
        for (d, k), ex in vk:
            term = ref_mul(term, ref_pow(image(d, k), ex))
        for key, val in term.items():
            out[key] = out.get(key, 0) + val
    return nonzero(out)


@st.composite
def quotient_chains(draw):
    """One term u_k^e / u_{k+1} (e = 1, 2 or -2): differentiating its
    u_k factor raises u_{k+1} to the power 0, which drops out."""
    k = draw(st.integers(0, 2))
    ex = draw(st.sampled_from((1, 2, -2)))
    return {((((0, k), ex), ((0, k + 1), -1)), draw(st.sampled_from(
        REF_PARAMS))): draw(FINE_COEFFS)}


@settings(deadline=None, max_examples=60)
@given(references(), references(), references(max_terms=1).filter(bool),
       st.integers(0, 3), FINE_COEFFS,
       references(negative=False, max_terms=3),
       references(negative=False, max_terms=2),
       references(deps=(0,)), references(deps=(1,)), quotient_chains())
def test_kernel_matches_fraction_reference(p, q, m, n, r, poly, b, pu, pv,
                                           chain):
    P, Q, M, POLY, B, PU, PV = (kernel(x)
                                for x in (p, q, m, poly, b, pu, pv))
    pc = ref_add(p, chain)
    PC = kernel(pc)
    jet = (0, 1)
    cases = [
        (P + Q, ref_add(p, q)),
        (P - Q, ref_add(p, q, -1)),
        (P * Q, ref_mul(p, q)),
        (M * P, ref_mul(m, p)),
        (P * r, ref_mul(p, {((), ()): r})),
        (RING.const(r) * Q, ref_mul({((), ()): r}, q)),
        (P ** n, ref_pow(p, n)),
        (M ** -n, ref_pow(m, -n)),
        (P / M, ref_mul(p, ref_pow(m, -1))),
        (P / r, ref_mul(p, {((), ()): 1 / r})),
        # u-only and v-only keys cover disjoint generator ranges
        (PU * PV, ref_mul(pu, pv)),
        (PV * PU, ref_mul(pv, pu)),
        (total_derivative(P), ref_total_derivative(p)),
        (total_derivative(PC), ref_total_derivative(pc)),
        (partial_derivative(P, "u", 1), ref_partial(p, jet)),
        (partial_derivative(PC, "u", 1), ref_partial(pc, jet)),
        (substitute(POLY, {"u": B}, jacobian=M),
         ref_substitute(poly, {0: b}, m)),
    ]
    for got, want in cases:
        want = encoded(want)
        assert canonical(got)
        assert dict(got.coeff_items()) == want
        # the term order is part of the contract: opcalc.Echelon
        # pivots each row on the first key of its vector
        assert list(got.nums) == list(want)
    # adding and taking away q restores p's representation exactly
    back = (P + Q) - Q
    assert back.nums == P.nums and back.den == P.den


@st.composite
def readable_keys(draw):
    """A reference key whose orders sit at both ends of the stride."""
    orders = st.one_of(st.integers(0, 3), st.integers(STRIDE - 3, STRIDE - 1))
    jets = draw(st.lists(st.tuples(st.integers(0, 2), orders), unique=True,
                         max_size=4))
    vk = tuple((jet, draw(st.sampled_from((1, 2, -1, -2))))
               for jet in sorted(jets))
    return (vk, draw(st.sampled_from(REF_PARAMS)))


@settings(deadline=None)
@given(st.lists(readable_keys(), max_size=12))
def test_generators_sort_as_their_jets(keys):
    keys = list(dict.fromkeys(keys))
    flat = list(encoded(dict.fromkeys(keys)))
    positions = range(len(keys))
    assert (sorted(positions, key=flat.__getitem__)
            == sorted(positions, key=keys.__getitem__))


def test_orders_stay_below_the_stride():
    top = RING.coord("u", STRIDE - 1)
    assert coords_of(top) == [("u", STRIDE - 1)]
    assert max_order(top, "u") == STRIDE - 1 and max_order(top, "v") == -1
    with pytest.raises(ValueError):
        RING.coord("u", STRIDE)
    for dep, order in (("u", STRIDE), ("v", -1)):
        with pytest.raises(ValueError):
            partial_derivative(top, dep, order)
    # u_{STRIDE - 1} raised by one would read as v_0
    with pytest.raises(ValueError):
        total_derivative(top)


def test_cross_ring_operations_rejected():
    with pytest.raises(ContextMismatch):
        RX.coord("u") + RY.coord("u")
    with pytest.raises(ContextMismatch):
        RX.coord("u") * RY.coord("u")


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        RX.coord("u") * 0.5


def test_negative_power_of_sum_rejected():
    with pytest.raises(NotReducible):
        (RX.coord("u") + RX.coord("s")) ** -1


def test_monomial_inverse_cancels():
    m = 3 * RX.coord("u") ** 2 * RX.coord("s", 1) ** -1 * RX.param("lam", 2)
    assert (m * m ** -1) == 1


# -- total derivative ---------------------------------------------------

def test_total_derivative_fixed_cases():
    u = RX.coord("u")
    assert total_derivative(u) == RX.coord("u", 1)
    assert total_derivative(u ** -1) == -(u ** -2) * RX.coord("u", 1)
    e = RX.coord("q", 2) * RX.coord("r") - RX.coord("q", 1) * RX.coord("r", 1)
    assert total_derivative(e) == (RX.coord("q", 3) * RX.coord("r")
                                   - RX.coord("q", 1) * RX.coord("r", 2))


def test_parameters_are_constants():
    lam = RX.param("lam")
    assert total_derivative(lam ** 2).is_zero
    assert total_derivative(lam * RX.coord("u")) == lam * RX.coord("u", 1)


def test_leibniz_property():
    rng = random.Random(101)
    for _ in range(N_CASES):
        a = random_expr(rng, RX, params=("lam",), allow_negative=True)
        b = random_expr(rng, RX, allow_negative=True)
        lhs = total_derivative(a * b)
        rhs = total_derivative(a) * b + a * total_derivative(b)
        assert lhs == rhs


# -- evolutionary derivative ---------------------------------------------

def test_evolutionary_derivative_of_constrained_flow():
    sysd = cubic_flow_system()
    q, r = RX.coord("q"), RX.coord("r")
    qx, rx = RX.coord("q", 1), RX.coord("r", 1)
    kap = q * rx - qx * r
    a = 3 * q * RX.coord("r", 2) - RX.coord("q", 2) * r - qx * rx - q * r
    got = evolutionary_derivative(RX.coord("v"), sysd)
    assert got == 2 * RX.coord("v", 1) * kap + 2 * RX.coord("v") * a


def test_evolutionary_derivative_of_constant_is_zero():
    sysd = cubic_flow_system()
    assert evolutionary_derivative(RX.const(5), sysd).is_zero
    assert evolutionary_derivative(RX.param("lam", 2), sysd).is_zero


def test_evolutionary_derivative_missing_rule():
    sysd = cubic_flow_system()
    with pytest.raises(MissingEvolutionRule):
        evolutionary_derivative(RX.coord("q"), sysd)


def test_product_flux_identity_numerically():
    # the quartic product (w v) satisfies a pure flux law under the flow
    sysd = cubic_flow_system()
    q, r = RX.coord("q"), RX.coord("r")
    kap = q * RX.coord("r", 1) - RX.coord("q", 1) * r
    wv = RX.coord("w") * RX.coord("v")
    residual = (evolutionary_derivative(wv, sysd)
                - 2 * total_derivative(wv) * kap
                - 8 * wv * total_derivative(kap))
    assert residual.is_zero
    rng = random.Random(7)
    for _ in range(5):
        a = random_assignment(rng, coords_of(residual) or [("v", 0)])
        assert random_eval(residual, a) == 0


def test_time_and_space_derivatives_commute():
    sysd = cubic_flow_system()
    rng = random.Random(202)
    for _ in range(N_CASES):
        e = random_expr(rng, RX, deps=("v", "w"), max_jet_order=2)
        lhs = evolutionary_derivative(total_derivative(e), sysd)
        rhs = total_derivative(evolutionary_derivative(e, sysd))
        assert lhs == rhs


# -- euler derivative -----------------------------------------------------

def test_euler_fixed_cases():
    uy = RX.coord("u", 1)
    assert euler_derivative(uy ** 2 / 2, "u") == -RX.coord("u", 2)
    e = RX.coord("w") * RX.coord("r") - RX.coord("v") * RX.coord("q")
    assert euler_derivative(e, "q") == -RX.coord("v")
    exact = total_derivative(RX.coord("u") * uy)
    assert euler_derivative(exact, "u").is_zero


def test_euler_kills_exact_property():
    rng = random.Random(303)
    for _ in range(N_CASES):
        e = random_expr(rng, RX, allow_negative=True)
        exact = total_derivative(e)
        for dep, _k in {(d, 0) for d, _ in coords_of(exact)}:
            assert euler_derivative(exact, dep).is_zero


def test_euler_detects_nonexact_constrained_density():
    rules = constraint_rules()
    e = RX.coord("w") * RX.coord("r") - RX.coord("v") * RX.coord("q")
    reduced = rules.reduce(e)
    got = euler_derivative(reduced, "q")
    assert got == 2 * (RX.coord("r", 1) - RX.coord("r", 3))
    assert not is_total_derivative(reduced)


# -- frechet rows ----------------------------------------------------------

def test_frechet_fixed_cases():
    s, u = RY.coord("s"), RY.coord("u")
    sy, uy = RY.coord("s", 1), RY.coord("u", 1)
    slope = sy / s - uy / u
    got = frechet_coeffs(slope, "s")
    assert got == {0: -sy * s ** -2, 1: s ** -1}
    assert frechet_coeffs(u, "u") == {0: RY.one()}


def test_frechet_linearization_property():
    base = RingContext("y", ("u", "s", "phi"), ("eps",))
    rng = random.Random(404)
    for _ in range(N_CASES):
        e = random_expr(rng, base, deps=("u", "s"), allow_negative=False)
        shift = base.coord("u") + base.param("eps") * base.coord("phi")
        shifted = substitute(e, {"u": shift})
        linear = split_param(shifted, "eps").get(1, base.zero())
        coeffs = frechet_coeffs(e, "u")
        direction = base.coord("phi")
        applied = base.zero()
        jet = direction
        for k in range(max(coeffs) + 1 if coeffs else 0):
            if k in coeffs:
                applied = applied + coeffs[k] * jet
            jet = total_derivative(jet)
        assert linear == applied


# -- exactness and integration ---------------------------------------------

def jet_free(e):
    """The terms of e that carry no jet coordinate."""
    out = e.ring.zero()
    for key, c in e.coeff_items():
        if not key[0]:
            out = out + JetExpr.monomial(e.ring, key, c)
    return out


def test_is_total_derivative_fixed_cases():
    u, uy = RX.coord("u"), RX.coord("u", 1)
    assert is_total_derivative(u * uy)
    assert not is_total_derivative(uy ** 2)
    assert not is_total_derivative(RX.one())
    assert not is_total_derivative(RX.param("lam"))


def test_antiderivative_fixed_cases():
    u, uy = RX.coord("u"), RX.coord("u", 1)
    assert antiderivative(u * uy) == u ** 2 / 2
    e = RX.coord("q", 3) * RX.coord("r") + RX.coord("q", 2) * RX.coord("r", 1)
    assert antiderivative(e) == RX.coord("q", 2) * RX.coord("r")
    with pytest.raises(NotIntegrable):
        antiderivative(uy ** 2)


def test_antiderivative_handles_scaling_invariant_terms():
    u, s = RX.coord("u"), RX.coord("s")
    f = RX.coord("u", 1) / u - 2 * RX.coord("s", 1) / s
    assert antiderivative(total_derivative(f)) == f
    # mixed multidegrees, negative exponents and parameters in one sum
    v, lam = RX.coord("v"), RX.param("lam")
    for f in (u ** 2 * v ** -1 * s,
              u ** 2 * v ** -1 * s + f
              + lam * RX.coord("q", 1) * RX.coord("r") ** 2,
              RX.coord("u", 1) ** 2 * v ** -3 - lam ** -1 * u * s ** -2
              + RX.coord("w", 2) / RX.coord("w", 1)):
        assert antiderivative(total_derivative(f)) == f
    with pytest.raises(NotIntegrable):
        antiderivative(RX.coord("u", 1) / u)


def test_antiderivative_round_trip_property():
    rng = random.Random(505)
    for _ in range(N_CASES):
        e = random_expr(rng, RX, params=("lam",), allow_negative=True)
        exact = total_derivative(e)
        if exact.is_zero:
            continue
        assert is_total_derivative(exact)
        back = antiderivative(exact)
        assert total_derivative(back) == exact
        assert back == e - jet_free(e)


# -- relation sets -----------------------------------------------------------

def test_reduce_through_derived_rules():
    ring = RingContext("y", ("rho", "u", "phi", "psi"))
    rules = RelationSet(ring).with_rule(
        "rho", 1, ring.coord("u") * (ring.coord("phi") - ring.coord("psi")))
    got = rules.reduce(ring.coord("rho", 2))
    want = (ring.coord("u", 1) * (ring.coord("phi") - ring.coord("psi"))
            + ring.coord("u") * (ring.coord("phi", 1) - ring.coord("psi", 1)))
    assert got == want


def test_reduce_linear_third_order_rule():
    ring = RingContext("y", ("chi", "xi"))
    rules = RelationSet(ring).with_rule(
        "chi", 3, ring.coord("chi", 1) + ring.coord("xi"))
    got = rules.reduce(ring.coord("chi", 4))
    assert got == ring.coord("chi", 2) + ring.coord("xi", 1)


def test_reduce_solved_constraint_and_its_derivative():
    ring = RingContext("y", ("g", "i", "j"))
    g, i, j = ring.coord("g"), ring.coord("i"), ring.coord("j")
    gy, gyy = ring.coord("g", 1), ring.coord("g", 2)
    iy, jy = ring.coord("i", 1), ring.coord("j", 1)
    # third-order balance law solved for the leading jet
    rhs = (3 * i * gyy + (iy - 2 * i ** 2 + 4 * j) * gy
           + (2 * jy - 4 * i * j) * g + 1)
    rules = RelationSet(ring).with_rule("g", 3, rhs)
    assert rules.reduce(ring.coord("g", 4)) == rules.reduce(total_derivative(rhs))


def test_reduce_idempotent_and_order_independent():
    rules_a = constraint_rules()
    rules_b = (RelationSet(RX)
               .with_rule("w", 0, RX.coord("q", 3) - RX.coord("q", 1))
               .with_rule("v", 0, RX.coord("r", 3) - RX.coord("r", 1)))
    rng = random.Random(606)
    for _ in range(60):
        e = random_expr(rng, RX, deps=("v", "w", "q", "r"), max_jet_order=2)
        red = rules_a.reduce(e)
        assert rules_a.reduce(red) == red
        assert rules_b.reduce(e) == red


def test_reduce_handles_inverse_powers_of_solved_monomial():
    rules = (RelationSet(RX)
             .with_rule("v", 0, RX.coord("u") ** 3 * RX.coord("s") ** -1))
    got = rules.reduce(RX.coord("v") ** -2)
    assert got == RX.coord("u") ** -6 * RX.coord("s") ** 2


def test_reduce_rejects_inverse_of_nonmonomial_rule():
    rules = constraint_rules()
    with pytest.raises(NotReducible):
        rules.reduce(RX.coord("v") ** -1)


def test_relation_set_rejects_cycles_and_bad_orders():
    ring = RingContext("y", ("a", "b"))
    with pytest.raises(NotReducible):
        RelationSet(ring).with_rule("a", 1, ring.coord("a", 1))
    half = RelationSet(ring).with_rule("a", 0, ring.coord("b"))
    with pytest.raises(NotReducible):
        half.with_rule("b", 0, ring.coord("a"))
    with pytest.raises(NotReducible):
        half.with_rule("a", 0, ring.coord("b", 2))


def test_relation_set_merge_detects_conflicts():
    a = constraint_rules()
    b = RelationSet(RX).with_rule("v", 0, RX.coord("r", 3))
    merged = a.merged(constraint_rules())
    assert len(merged.rules) == 2
    with pytest.raises(NotReducible):
        a.merged(b)


def test_solve_for_linear_leading_jet():
    ring = RingContext("y", ("g", "i"))
    e = (2 * ring.coord("i") * ring.coord("g", 3) - ring.coord("g", 1)
         - ring.one())
    got = solve_for(e, "g", 3)
    want = (ring.coord("g", 1) + 1) * (2 * ring.coord("i")) ** -1
    assert got == want
    with pytest.raises(NotReducible):
        solve_for(ring.coord("g", 3) ** 2 - ring.coord("g"), "g", 3)


# -- substitution --------------------------------------------------------------

def test_substitute_quartic_product_collapses():
    target = RingContext("x", ("q", "r", "u", "s"), ("lam",))
    u, s = target.coord("u"), target.coord("s")
    rules = {"v": u ** 3 / s, "w": u * s}
    got = substitute(RX.coord("w") * RX.coord("v"), rules, target_ring=target)
    assert got == u ** 4


def test_substitute_with_jacobian_rescales_derivatives():
    got = substitute(RX.coord("q", 1), {}, target_ring=RY,
                     jacobian=RY.coord("u"))
    assert got == RY.coord("u") * RY.coord("q", 1)
    second = substitute(RX.coord("q", 2), {}, target_ring=RY,
                        jacobian=RY.coord("u"))
    u, uy = RY.coord("u"), RY.coord("u", 1)
    assert second == u * (u * RY.coord("q", 2) + uy * RY.coord("q", 1))


def test_identity_substitution_is_identity():
    rng = random.Random(707)
    for _ in range(40):
        e = random_expr(rng, RX, params=("lam",), allow_negative=True)
        assert substitute(e, {}) == e


def test_substitution_is_homomorphic():
    target = RingContext("x", ("q", "r", "u", "s"), ("lam",))
    rules = {"v": target.coord("u") ** 3 / target.coord("s"),
             "w": target.coord("u") * target.coord("s")}
    rng = random.Random(808)
    for _ in range(60):
        a = random_expr(rng, RX, deps=("v", "w", "q"), max_jet_order=1)
        b = random_expr(rng, RX, deps=("v", "r"), max_jet_order=1)
        image = substitute(a * b, rules, target_ring=target)
        assert image == (substitute(a, rules, target_ring=target)
                         * substitute(b, rules, target_ring=target))


def test_promote_keeps_values_and_checks_independent():
    wide = RX.extend(dependents=("rho",))
    e = RX.coord("u") * RX.coord("v", 2)
    up = promote(e, wide)
    assert up.ring == wide
    assert to_text(up) == to_text(e)
    with pytest.raises(ContextMismatch):
        promote(e, RY)


# promotion targets for the generated expressions, which live on
# (u, v, phi; lam) and use only u and v: an appended extension, a
# reordered roster that drops the unused phi, and one without v or lam
APPENDED = RING.extend(dependents=("rho",), parameters=("mu",))
REINDEXED = RingContext("x", ("w", "v", "u"), ("mu", "lam"))
NARROW = RingContext("x", ("u", "phi"))


def substitute_or_error(e, ring):
    try:
        return substitute(e, {}, target_ring=ring)
    except ContextMismatch as exc:
        return str(exc)


@settings(deadline=None)
@given(exprs())
def test_promote_is_the_identity_substitution(e):
    # same ring, same terms in the same order, or the same error
    for ring in (APPENDED, REINDEXED, NARROW):
        want = substitute_or_error(e, ring)
        try:
            got = promote(e, ring)
        except ContextMismatch as exc:
            assert str(exc) == want
            continue
        assert got.ring is ring
        assert list(got.nums.items()) == list(want.nums.items())
        assert got.den == want.den
    assert promote(e, APPENDED).nums is e.nums
    assert promote(e, RING) is e


# -- numeric oracle --------------------------------------------------------------

def test_random_eval_fixed_cases():
    u = RX.coord("u")
    a = Assignment({("u", 0): Fraction(3, 2)})
    assert random_eval(u ** 2, a) == Fraction(9, 4)
    b = Assignment({("u", 0): 2, ("u", 1): 6})
    assert random_eval(u ** -1 * RX.coord("u", 1), b) == 3


def test_random_eval_stays_exact_at_integral_points():
    # integer coefficients meet negative exponents here; an int base
    # would make base ** ex a float
    u, s = RX.coord("u"), RX.coord("s")
    e = 3 * u ** -2 * s - 2 * s ** -1 + 5
    assert [type(c) for _key, c in e.coeff_items()] == [int] * 3
    pt = Assignment({("u", 0): 2, ("s", 0): 1})
    assert [type(v) for v in pt.values.values()] == [Fraction] * 2
    got = random_eval(e, pt)
    assert type(got) is Fraction and got == Fraction(15, 4)


@settings(deadline=None)
@given(exprs(), st.integers(0, 2 ** 32))
def test_random_assignment_draws_no_zero(e, seed):
    # so random_eval at its points never meets a zero base
    point = random_assignment(random.Random(seed), coords_of(e),
                              params_of(e))
    assert all(point.values.values()) and all(point.params.values())
    random_eval(e, point)


def test_random_eval_zero_base_sentinel():
    a = Assignment({("u", 0): 0})
    with pytest.raises(EvalDivisionByZero):
        random_eval(RX.coord("u") ** -1, a)
    assert random_eval(RX.coord("u") ** 2, a) == 0


def test_normal_form_soundness_under_evaluation():
    rng = random.Random(909)
    for _ in range(N_CASES):
        a = random_expr(rng, RX, params=("lam",))
        b = random_expr(rng, RX)
        combo = a * b + a
        coords = set(coords_of(a)) | set(coords_of(b))
        for _ in range(2):
            pt = random_assignment(rng, coords, params=("lam",))
            lhs = random_eval(combo, pt)
            rhs = random_eval(a, pt) * random_eval(b, pt) + random_eval(a, pt)
            assert lhs == rhs


def test_equal_expressions_evaluate_equal_everywhere():
    rng = random.Random(111)
    e = random_expr(rng, RX, allow_negative=True)
    expanded = (e + RX.coord("u")) * RX.coord("s") - RX.coord("u") * RX.coord("s")
    simplified = e * RX.coord("s")
    assert expanded == simplified
    for _ in range(20):
        pt = random_assignment(rng, coords_of(expanded))
        assert random_eval(expanded, pt) == random_eval(simplified, pt)


# -- structure helpers --------------------------------------------------------------

def test_split_param_grades_by_power():
    lam = RX.param("lam")
    e = lam ** 2 * RX.coord("v") + RX.coord("w") + lam ** -1 * RX.coord("q")
    graded = split_param(e, "lam")
    assert set(graded) == {-1, 0, 2}
    assert graded[2] == RX.coord("v")
    assert graded[0] == RX.coord("w")
    assert graded[-1] == RX.coord("q")


def test_coords_params_and_order_queries():
    e = RX.coord("q", 3) * RX.coord("v") * RX.param("lam", -2)
    assert coords_of(e) == [("v", 0), ("q", 3)]
    assert params_of(e) == ["lam"]
    assert max_order(e) == 3
    assert max_order(e, "v") == 0
    assert max_order(e, "s") == -1


def test_perturb_term_shifts_one_coefficient():
    e = RX.coord("u") + 2 * RX.coord("s")
    bumped = perturb_term(e, 1)
    assert bumped != e
    assert len((bumped - e).nums) == 1
    # a coefficient of -1 is raised to 0, which deletes its term
    assert perturb_term(e - RX.coord("q"), 0) == e
    # the raise is 1 in value, whatever the common denominator
    f = RX.coord("u") / 4 - 5 * RX.coord("s") / 6
    for index in range(2):
        step = perturb_term(f, index) - f
        assert [c for _key, c in step.coeff_items()] == [1]
        assert canonical(perturb_term(f, index))


# -- serialization --------------------------------------------------------------

def test_text_form_fixed_cases():
    cases = [
        (RX.zero(), "0"),
        (RX.one(), "1"),
        (-RX.coord("u"), "(* -1 u_0)"),
        (RX.coord("u", 2) * RX.coord("s") ** -3, "(* u_2 (^ s_0 -3))"),
        (Fraction(-5, 7) * RX.param("lam", -2) + RX.coord("q", 1) ** 2,
         "(+ (* -5/7 (param lam -2)) (^ q_1 2))"),
    ]
    for e, txt in cases:
        assert to_text(e) == txt


def test_text_form_is_canonical_property():
    # one text per expression: the same sum built in any term order
    # reads the same, and a one-coefficient change reads differently
    rng = random.Random(121)
    for _ in range(N_CASES):
        e = random_expr(rng, RX, params=("lam",), allow_negative=True)
        terms = list(e.coeff_items())
        rng.shuffle(terms)
        rebuilt = RX.zero()
        for key, c in terms:
            rebuilt = rebuilt + JetExpr.monomial(RX, key, c)
        assert to_text(rebuilt) == to_text(e)
        if not e.is_zero:
            assert to_text(perturb_term(e, rng.randrange(8))) != to_text(e)
