"""Tests for the pseudo-differential operator calculus."""

import random
from fractions import Fraction

import pytest

from jetverify.jetalg import (
    ContextMismatch, NotIntegrable, RingContext, coords_of, frechet_coeffs,
    random_assignment, random_eval, random_expr, params_of, to_text,
    total_derivative,
)
from jetverify.opcalc import (
    LocalOp, MatrixOp, NonClosedComposition, NonlocalStore, OperatorRegistry,
    PseudoOp, UnknownOperator, frechet_row, parse_matrix, parse_pseudo,
    scaled_derivative_power, serialize_matrix, serialize_pseudo,
    solve_e_image, transport_local, verify_operator_identity,
)

R = RingContext("y", ("u", "s", "i", "j"), ("lam",))
N_CASES = 200


def D(e):
    return total_derivative(e)


def make_registry():
    reg = OperatorRegistry()
    e_op = LocalOp(R, {3: R.one(), 1: -R.one()})
    reg.register_invertible("E", e_op, -1)
    return reg, e_op


def rand_local(rng, deps=("u", "s"), top=2):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, top)
        c = random_expr(rng, R, deps=deps, max_jet_order=2, n_terms=2)
        coeffs[k] = coeffs.get(k, R.zero()) + c
    return LocalOp(R, coeffs)


def rand_tail(rng):
    p = random_expr(rng, R, deps=("u", "s"), n_terms=2)
    q = random_expr(rng, R, deps=("i", "j"), n_terms=2)
    return PseudoOp.from_tail(p, q)


def assert_same_action(a, b, rng, n=4):
    """Two local operators agree on random arguments and points."""
    for _ in range(n):
        f = random_expr(rng, R, max_jet_order=1, n_terms=2)
        diff = a.apply(f) - b.apply(f)
        assert diff.is_zero, to_text(diff)


# -- local operators ------------------------------------------------------


def test_compose_derivation_with_multiplication():
    d = LocalOp.derivative(R)
    got = d.compose(LocalOp.mult(R.coord("u")))
    assert got.coeffs[1] == R.coord("u")
    assert got.coeffs[0] == R.coord("u", 1)
    assert got.order == 1


def test_compose_matches_successive_application():
    rng = random.Random(3)
    for _ in range(N_CASES):
        a = rand_local(rng)
        b = rand_local(rng)
        f = random_expr(rng, R, max_jet_order=1, n_terms=2)
        assert a.compose(b).apply(f) == a.apply(b.apply(f))


def test_local_compose_associative():
    rng = random.Random(4)
    for _ in range(60):
        a, b, c = (rand_local(rng, top=1) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_adjoint_of_derivation_is_negated():
    d = LocalOp.derivative(R)
    assert d.adjoint() == LocalOp(R, {1: R.const(-1)})


def test_local_adjoint_involution_and_contravariance():
    rng = random.Random(5)
    for _ in range(60):
        a = rand_local(rng, top=2)
        b = rand_local(rng, top=1)
        assert a.adjoint().adjoint() == a
        assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())


def test_adjoint_lagrange_pairing():
    # integral pairing: f * A(g) - A*(f) * g is a total derivative
    rng = random.Random(6)
    from jetverify.jetalg import is_total_derivative
    for _ in range(40):
        a = rand_local(rng, top=2)
        f = random_expr(rng, R, max_jet_order=1, n_terms=2)
        g = random_expr(rng, R, max_jet_order=1, n_terms=2)
        assert is_total_derivative(f * a.apply(g) - a.adjoint().apply(f) * g)


def test_scaled_derivative_power():
    u = R.coord("u")
    got = scaled_derivative_power(u, 2)
    want = LocalOp(R, {2: u * u, 1: u * R.coord("u", 1)})
    assert got == want


def test_transport_local_matches_power_expansion():
    u = R.coord("u")
    src = RingContext("x", ("a",), ())
    op = LocalOp(src, {2: src.one(), 0: src.coord("a")})
    moved = transport_local(op, lambda c: R.coord("s") if not c.is_rational
                            else R.const(c.as_fraction()), u)
    want = scaled_derivative_power(u, 2) + LocalOp.mult(R.coord("s"))
    assert moved == want


def test_frechet_row_matches_coefficients():
    e = R.coord("u", 2) * R.coord("s") - R.coord("u") ** 2
    row = frechet_row(e, "u")
    assert row.coeffs == frechet_coeffs(e, "u")


# -- nonlocal composition closure -----------------------------------------


def test_dinv_compose_first_order_local():
    u = R.coord("u")
    t = PseudoOp.from_tail(R.one(), R.one())
    got = t.compose(PseudoOp.from_local(LocalOp(R, {1: u})))
    want = PseudoOp.from_expr(u) - PseudoOp.from_tail(R.one(),
                                                      R.coord("u", 1))
    assert got == want


def test_derivation_against_dinv_cancels_both_ways():
    d = PseudoOp.from_local(LocalOp.derivative(R))
    t = PseudoOp.from_tail(R.one(), R.one())
    ident = PseudoOp.from_local(LocalOp.identity(R))
    assert d.compose(t) == ident
    assert t.compose(d) == ident


def test_derivation_through_tail_releases_core():
    u = R.coord("u")
    s = R.coord("s")
    d = PseudoOp.from_local(LocalOp.derivative(R))
    got = d.compose(PseudoOp.from_tail(u, s))
    want = PseudoOp.from_expr(u * s) + PseudoOp.from_tail(R.coord("u", 1), s)
    assert got == want


def test_tail_tail_closes_on_exact_core():
    u = R.coord("u")
    a = PseudoOp.from_tail(R.one(), R.coord("u", 1))
    b = PseudoOp.from_tail(u, R.one())
    got = a.compose(b)
    half_sq = u * u / 2
    want = (PseudoOp.from_tail(half_sq, R.one())
            - PseudoOp.from_tail(R.one(), half_sq))
    assert got == want


def test_tail_tail_rejects_nonexact_core():
    a = PseudoOp.from_tail(R.one(), R.coord("u", 1))
    b = PseudoOp.from_tail(R.coord("s"), R.one())
    with pytest.raises(NonClosedComposition):
        a.compose(b)


def test_tail_cannot_enter_a_word():
    t = PseudoOp.from_tail(R.one(), R.coord("u", 1))
    inv = PseudoOp.inverse_atom(R, "E")
    with pytest.raises(NonClosedComposition):
        t.compose(inv)


def test_tail_canonicalization_merges_proportional_factors():
    u = R.coord("u")
    s = R.coord("s")
    a = PseudoOp.from_tail(u, s) + PseudoOp.from_tail(u * 2, s * 3)
    b = PseudoOp.from_tail(u * 7, s)
    assert a == b
    # proportional left factors pool the right ones
    c = PseudoOp.from_tail(u, s) + PseudoOp.from_tail(u * 2, u * 2)
    d = PseudoOp.from_tail(u, s + 4 * u)
    assert c == d


def test_mixed_associativity_with_single_tail():
    rng = random.Random(7)
    for _ in range(N_CASES):
        slot = rng.randrange(3)
        ops = []
        for pos in range(3):
            if pos == slot:
                ops.append(rand_tail(rng))
            else:
                ops.append(PseudoOp.from_local(rand_local(rng, top=1)))
        a, b, c = ops
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_pseudo_adjoint_tail_swap():
    u = R.coord("u")
    s = R.coord("s")
    got = PseudoOp.from_tail(u, s).adjoint()
    assert got == PseudoOp.from_tail(-s, u)


def test_pseudo_adjoint_involution_and_contravariance():
    rng = random.Random(8)
    for _ in range(60):
        a = PseudoOp.from_local(rand_local(rng, top=1)) + rand_tail(rng)
        b = PseudoOp.from_local(rand_local(rng, top=1))
        assert a.adjoint().adjoint() == a
        assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())
        assert b.compose(a).adjoint() == a.adjoint().compose(b.adjoint())


# -- words and the registry ------------------------------------------------


def test_inverse_cancels_against_own_operator():
    reg, e_op = make_registry()
    inv = PseudoOp.inverse_atom(R, "E")
    pe = PseudoOp.from_local(e_op)
    ident = PseudoOp.from_local(LocalOp.identity(R))
    assert pe.compose(inv, reg) == ident
    assert inv.compose(pe, reg) == ident


def test_word_survives_when_no_cancellation_applies():
    reg, e_op = make_registry()
    inv = PseudoOp.inverse_atom(R, "E")
    u_mult = PseudoOp.from_expr(R.coord("u"))
    got = u_mult.compose(inv, reg)
    assert not got.is_closed
    assert len(got.words) == 1


def test_zero_local_factor_annihilates_word():
    reg, _ = make_registry()
    inv = PseudoOp.inverse_atom(R, "E")
    zero = PseudoOp.from_local(LocalOp(R, {}))
    assert zero.compose(inv, reg).is_zero


def test_adjoint_of_inverse_uses_registered_sign():
    reg, e_op = make_registry()
    inv = PseudoOp.inverse_atom(R, "E")
    # the base operator is skew, so its inverse is too
    assert inv.adjoint(reg) == -inv
    with pytest.raises(UnknownOperator):
        inv.adjoint()


def test_register_invertible_rejects_wrong_sign():
    reg = OperatorRegistry()
    e_op = LocalOp(R, {3: R.one(), 1: -R.one()})
    with pytest.raises(ValueError):
        reg.register_invertible("E", e_op, 1)
    with pytest.raises(UnknownOperator):
        reg.invertible("E")


def test_coefficient_walk_order_and_map():
    # The walk fixes the catalog's mutation slot numbers: local orders
    # ascending, then each tail pair p, q, then the words' local
    # factors; map_coefficients visits the same order.
    u, s, i = R.coord("u"), R.coord("s"), R.coord("i")

    def build(k):
        word = (Fraction(2), (("local", LocalOp(R, {1: k * s, 0: k * i})),
                              ("inv", "E")))
        return PseudoOp(R, LocalOp(R, {2: k * u, 0: k * s}),
                        [(k * u, k * i)], [word])

    op = build(1)
    assert op.coefficients() == (s, u, u, i, i, s)
    seen = []

    def record(c):
        seen.append(c)
        return c

    assert op.map_coefficients(record) == op
    assert tuple(seen) == op.coefficients()
    assert op.map_coefficients(lambda c: 2 * c) == build(2)


# -- application and the nonlocal store -------------------------------------


def test_apply_exact_antiderivative_keeps_store_clean():
    reg, _ = make_registry()
    store = NonlocalStore(R, registry=reg)
    u = store.ring.coord("u")
    t = PseudoOp.from_tail(store.ring.one(), store.ring.one())
    assert t.apply(u * D(u), store) == u * u / 2
    assert store.allocated == []


def test_apply_allocates_auxiliary_with_defining_relation():
    store = NonlocalStore(R)
    u1 = store.ring.coord("u", 1)
    t = PseudoOp.from_tail(store.ring.one(), store.ring.one())
    got = t.apply(u1 * u1, store)
    assert got == store.ring.coord("rho1")
    rule = store.relations.rule_for("rho1")
    assert rule.order == 1 and rule.rhs == u1 * u1
    # D of the auxiliary reduces back to the core
    assert store.reduce(D(got)) == u1 * u1


def test_store_dedups_repeated_and_proportional_cores():
    store = NonlocalStore(R)
    u1 = store.ring.coord("u", 1)
    a = store.resolve_dinv(u1 ** 2)
    b = store.resolve_dinv(u1 ** 2)
    c = store.resolve_dinv(3 * u1 ** 2)
    assert a == b
    assert c == 3 * a
    assert len(store.allocated) == 1


def test_store_affine_match_avoids_fresh_auxiliary():
    store = NonlocalStore(R)
    ring = store.ring
    u1 = ring.coord("u", 1)
    s1 = ring.coord("s", 1)
    rho_a = store.resolve_dinv(u1 ** 2)
    rho_b = store.resolve_dinv(s1 ** 2)
    u = ring.coord("u")
    combo = u1 ** 2 + 2 * s1 ** 2 + D(u ** 3)
    got = store.resolve_dinv(combo)
    assert len(store.allocated) == 2
    assert store.reduce(D(got) - combo).is_zero
    assert got == rho_a + 2 * rho_b + u ** 3


def test_store_reduces_argument_before_resolving():
    store = NonlocalStore(R)
    u1 = store.ring.coord("u", 1)
    rho = store.resolve_dinv(u1 ** 2)
    # an argument mentioning the auxiliary's ruled jet reduces first
    got = store.resolve_dinv(store.ring.coord("rho1", 1))
    assert got == rho


def test_resolve_inv_exact_image():
    reg, e_op = make_registry()
    store = NonlocalStore(R, registry=reg)
    ring = store.ring
    p = ring.coord("u") * ring.coord("u", 1)
    arg = e_op.promote(ring).apply(p)
    assert store.resolve_inv("E", arg) == p
    assert store.allocated == []


def test_resolve_inv_falls_back_to_constrained_auxiliary():
    reg, e_op = make_registry()
    store = NonlocalStore(R, registry=reg)
    ring = store.ring
    arg = ring.coord("u") ** 2
    got = store.resolve_inv("E", arg)
    assert got == ring.coord("chi1")
    rule = store.relations.rule_for("chi1")
    assert rule.order == 3
    # the defining relation inverts the forward operator
    chi = ring.coord("chi1")
    forward = e_op.promote(ring).apply(chi)
    assert store.reduce(forward - arg).is_zero
    # repeats and rational multiples share the auxiliary
    assert store.resolve_inv("E", 5 * arg) == 5 * got
    assert len(store.allocated) == 1


def test_dinv_pool_exhaustion_is_loud():
    store = NonlocalStore(R)
    ring = store.ring
    cores = []
    for dep in ("u", "s", "i", "j"):
        for power in (2, 4, 6, 8):
            cores.append(ring.coord(dep, 1) ** power)
    for core in cores:
        store.resolve_dinv(core)
    assert len(store.allocated) == NonlocalStore.DINV_POOL
    with pytest.raises(NonClosedComposition):
        store.resolve_dinv(ring.coord("u", 1) ** 10)


def test_dinv_parameter_shift_reuses_auxiliary():
    store = NonlocalStore(R)
    ring = store.ring
    core = ring.coord("u", 1) ** 2
    rho = store.resolve_dinv(core)
    scaled = store.resolve_dinv(3 * ring.param("lam", -2) * core)
    assert len(store.allocated) == 1
    assert scaled == 3 * ring.param("lam", -2) * rho


def test_apply_without_store_requires_exact_tails():
    t = PseudoOp.from_tail(R.one(), R.one())
    u = R.coord("u")
    assert t.apply(u * D(u)) == u * u / 2
    with pytest.raises(NotIntegrable):
        t.apply(D(u) ** 2)
    inv = PseudoOp.inverse_atom(R, "E")
    with pytest.raises(UnknownOperator):
        inv.apply(u)


def test_apply_compose_coherence():
    rng = random.Random(9)
    for _ in range(40):
        a = PseudoOp.from_local(rand_local(rng, top=1))
        b = rand_tail(rng) if rng.random() < 0.5 else \
            PseudoOp.from_local(rand_local(rng, top=1))
        if rng.random() < 0.5:
            a, b = b, a
        store = NonlocalStore(R)
        f = random_expr(rng, R, max_jet_order=1, n_terms=2)
        f = store.relations.reduce(f) if f.ring == store.ring else \
            __import__("jetverify.jetalg", fromlist=["promote"]).promote(
                f, store.ring)
        lhs = a.compose(b).apply(f, store)
        rhs = a.apply(b.apply(f, store), store)
        diff = store.reduce(lhs - rhs)
        # antiderivative representatives may differ by a constant only
        assert store.reduce(D(diff)).is_zero
        assert diff.is_zero or diff.is_rational


def test_word_apply_coherence_with_inverse():
    reg, e_op = make_registry()
    store = NonlocalStore(R, registry=reg)
    ring = store.ring
    u = ring.coord("u")
    word = PseudoOp.from_expr(R.coord("u")).compose(
        PseudoOp.inverse_atom(R, "E"), reg)
    f = ring.coord("s") ** 2
    assert word.apply(f, store) == u * store.resolve_inv("E", f)


# -- matrices ---------------------------------------------------------------


def test_matrix_shape_and_ring_checks():
    a = PseudoOp.from_expr(R.coord("u"))
    with pytest.raises(ValueError):
        MatrixOp([[a], [a, a]])
    other = RingContext("x", ("b",), ())
    with pytest.raises(ContextMismatch):
        MatrixOp([[a, PseudoOp.from_expr(other.coord("b"))]])


def test_matrix_compose_against_entrywise_application():
    rng = random.Random(10)
    for _ in range(30):
        m1 = MatrixOp([[PseudoOp.from_local(rand_local(rng, top=1))
                        for _ in range(2)] for _ in range(2)])
        m2 = MatrixOp([[PseudoOp.from_local(rand_local(rng, top=1))
                        for _ in range(2)] for _ in range(2)])
        vec = [random_expr(rng, R, max_jet_order=1, n_terms=2)
               for _ in range(2)]
        via_compose = m1.compose(m2).apply(vec)
        via_apply = m1.apply(m2.apply(vec))
        assert all((x - y).is_zero for x, y in zip(via_compose, via_apply))


def test_matrix_adjoint_transposes():
    a = PseudoOp.from_local(LocalOp.derivative(R))
    b = PseudoOp.from_expr(R.coord("u"))
    z = PseudoOp.zero(R)
    m = MatrixOp([[a, b], [z, a]])
    got = m.adjoint()
    assert got.grid[0][1] == z
    assert got.grid[1][0] == b
    assert got.grid[0][0] == a.adjoint()


def test_matrix_adjoint_contravariance():
    rng = random.Random(11)
    for _ in range(30):
        m1 = MatrixOp([[PseudoOp.from_local(rand_local(rng, top=1))
                        for _ in range(2)] for _ in range(2)])
        m2 = MatrixOp([[PseudoOp.from_local(rand_local(rng, top=1))
                        for _ in range(2)] for _ in range(2)])
        assert m1.compose(m2).adjoint() == m2.adjoint().compose(m1.adjoint())


def test_matrix_identity_acts_trivially():
    rng = random.Random(12)
    ident = MatrixOp.identity(R, 2)
    vec = [random_expr(rng, R, n_terms=2) for _ in range(2)]
    assert ident.apply(vec) == vec


# -- the verification ladder -------------------------------------------------


def test_ladder_rung_one_on_equal_normal_forms():
    d = PseudoOp.from_local(LocalOp.derivative(R))
    t = PseudoOp.from_tail(R.one(), R.one())
    verdict = verify_operator_identity(
        d.compose(t), PseudoOp.from_local(LocalOp.identity(R)))
    assert verdict.equal and verdict.decided_by == "normal-form"


def test_split_tails_already_merge_at_rung_one():
    u1 = R.coord("u", 1)
    s1 = R.coord("s", 1)
    lhs = (PseudoOp.from_tail(R.one(), u1 ** 2)
           + PseudoOp.from_tail(R.one(), s1 ** 2))
    rhs = PseudoOp.from_tail(R.one(), u1 ** 2 + s1 ** 2)
    verdict = verify_operator_identity(lhs, rhs)
    assert verdict.equal and verdict.decided_by == "normal-form"


def test_ladder_rung_two_uses_inverse_linearity():
    reg, _ = make_registry()
    inv = PseudoOp.inverse_atom(R, "E")
    a = PseudoOp.from_expr(R.coord("s"))
    b = PseudoOp.from_expr(R.coord("u"))
    lhs = inv.compose(a, reg) + inv.compose(b, reg)
    rhs = inv.compose(a + b, reg)
    verdict = verify_operator_identity(lhs, rhs, registry=reg)
    assert verdict.equal and verdict.decided_by == "test-vector"
    assert verdict.numeric_points >= 5


def test_ladder_rung_two_decides_words():
    reg, _ = make_registry()
    u = R.coord("u")
    inv = PseudoOp.inverse_atom(R, "E")
    lhs = (PseudoOp.from_expr(u).compose(inv, reg)
           + PseudoOp.from_expr(R.one() - u).compose(inv, reg))
    verdict = verify_operator_identity(lhs, inv, registry=reg)
    assert verdict.equal and verdict.decided_by == "test-vector"


def test_ladder_reports_nonzero_residual_with_witness():
    reg, _ = make_registry()
    u = R.coord("u")
    inv = PseudoOp.inverse_atom(R, "E")
    lhs = PseudoOp.from_expr(u).compose(inv, reg)
    rhs = inv.compose(PseudoOp.from_expr(u), reg)
    verdict = verify_operator_identity(lhs, rhs, registry=reg)
    assert not verdict.equal
    assert verdict.residuals
    assert verdict.numeric_points >= 1
    assert not verdict.notes


def test_ladder_detects_plain_coefficient_corruption():
    u = R.coord("u")
    lhs = PseudoOp.from_local(LocalOp(R, {1: u}))
    rhs = PseudoOp.from_local(LocalOp(R, {1: u + R.one()}))
    verdict = verify_operator_identity(lhs, rhs)
    assert not verdict.equal and verdict.decided_by == "test-vector"


def test_ladder_respects_caller_relations():
    from jetverify.jetalg import RelationSet
    rel = RelationSet(R).with_rule("s", 0, R.coord("u") ** 2)
    lhs = PseudoOp.from_expr(R.coord("s"))
    rhs = PseudoOp.from_expr(R.coord("u") ** 2)
    verdict = verify_operator_identity(lhs, rhs, relations=rel)
    assert verdict.equal and verdict.decided_by == "test-vector"


# -- the third-order exact solver ---------------------------------------------


def test_solve_e_image_round_trip():
    rng = random.Random(13)
    e_op = LocalOp(R, {3: R.one(), 1: -R.one()})
    for _ in range(50):
        p = random_expr(rng, R, deps=("u", "s"), max_jet_order=2, n_terms=2)
        p = p - R.const(p.terms.get(((), ()), 0))
        if p.is_zero:
            continue
        arg = e_op.apply(p)
        assert solve_e_image(arg) == p


def test_solve_e_image_rejects_non_image():
    with pytest.raises(NotIntegrable):
        solve_e_image(R.coord("u"))


# -- serialization -------------------------------------------------------------


def test_serialize_fixed_forms():
    u = R.coord("u")
    op = PseudoOp.from_local(LocalOp(R, {2: u, 0: R.const(3)}))
    assert serialize_pseudo(op) == "(3)*d^0 + (u_0)*d^2"
    t = PseudoOp.from_tail(u, R.coord("s"))
    assert serialize_pseudo(t) == "(u_0)*dinv*(s_0)"
    assert serialize_pseudo(PseudoOp.zero(R)) == "0"
    inv = PseudoOp.inverse_atom(R, "E")
    assert serialize_pseudo(inv) == "(1)*inv[E]"


def test_serialize_round_trip_property():
    rng = random.Random(14)
    reg, e_op = make_registry()
    for _ in range(N_CASES):
        op = PseudoOp.from_local(rand_local(rng, top=2))
        if rng.random() < 0.5:
            op = op + rand_tail(rng)
        if rng.random() < 0.3:
            op = op + PseudoOp.from_expr(
                R.coord("u")).compose(PseudoOp.inverse_atom(R, "E"), reg)
        text = serialize_pseudo(op)
        back = parse_pseudo(text, R)
        assert back == op
        assert serialize_pseudo(back) == text


def test_serialize_matrix_round_trip():
    rng = random.Random(15)
    for _ in range(40):
        m = MatrixOp([[PseudoOp.from_local(rand_local(rng, top=1)),
                       rand_tail(rng)],
                      [PseudoOp.zero(R),
                       PseudoOp.inverse_atom(R, "E")]])
        text = serialize_matrix(m)
        back = parse_matrix(text, R)
        assert back == m
        assert serialize_matrix(back) == text


def test_parse_rejects_malformed_operators():
    for bad in ("(u_0*d^1", "(u_0)*d^", "(1)*dinv*(u_0", "(1)*inv[E",
                "[(1)*d^0]", "junk"):
        with pytest.raises((ValueError, KeyError)):
            parse_pseudo(bad, R)
