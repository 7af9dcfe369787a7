"""Kernel tests: arithmetic, derivations, integration, rewriting.

Fixed examples pin the contract; the seeded property loops exercise
each derivation law on at least 200 random cases.
"""

import random
from fractions import Fraction

import pytest

from jetverify.jetalg import (
    Assignment, ContextMismatch, EvalDivisionByZero, JetExpr,
    MissingEvolutionRule, NotIntegrable, NotReducible, RelationSet,
    RingContext, SystemDef, antiderivative, coords_of,
    euler_derivative, evolutionary_derivative, frechet_coeffs,
    is_total_derivative, max_order, params_of, parse, partial_derivative,
    perturb_term, promote, random_assignment, random_eval, random_expr,
    solve_for, split_param, substitute, to_text,
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
    }, citation="coupled cubic flow on the constrained pair (v, w)")


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
    assert len(merged) == 2
    with pytest.raises(NotReducible):
        a.merged(b)


def test_reduce_order_cap_guard():
    rules = constraint_rules()
    with pytest.raises(NotReducible):
        rules.reduce(RX.coord("v", 6), order_cap=4)


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


# -- numeric oracle --------------------------------------------------------------

def test_random_eval_fixed_cases():
    u = RX.coord("u")
    a = Assignment({("u", 0): Fraction(3, 2)})
    assert random_eval(u ** 2, a) == Fraction(9, 4)
    b = Assignment({("u", 0): 2, ("u", 1): 6})
    assert random_eval(u ** -1 * RX.coord("u", 1), b) == 3


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
    assert (bumped - e).is_monomial


# -- serialization --------------------------------------------------------------

def test_text_round_trip_fixed_cases():
    cases = [
        RX.zero(),
        RX.one(),
        -RX.coord("u"),
        RX.coord("u", 2) * RX.coord("s") ** -3,
        Fraction(-5, 7) * RX.param("lam", -2) + RX.coord("q", 1) ** 2,
    ]
    for e in cases:
        txt = to_text(e)
        assert parse(txt, RX) == e
        assert to_text(parse(txt, RX)) == txt


def test_text_round_trip_property():
    rng = random.Random(121)
    for _ in range(N_CASES):
        e = random_expr(rng, RX, params=("lam",), allow_negative=True)
        txt = to_text(e)
        assert parse(txt, RX) == e
        assert to_text(parse(txt, RX)) == txt


def test_parse_accepts_hand_written_forms():
    got = parse("(+ (* 3 (^ u_0 -2)) (param lam 1))", RX)
    assert got == 3 * RX.coord("u") ** -2 + RX.param("lam")


def test_parse_rejects_malformed_input():
    for bad in ["(", "(+ 1)", "(? 1 2)", "u_", "(^ (+ 1 2) 2)", "1 2"]:
        with pytest.raises(ValueError):
            parse(bad, RX)
