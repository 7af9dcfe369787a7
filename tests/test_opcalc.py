"""Tests for the pseudo-differential operator calculus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jet_strategies import canonical
from jetverify import opcalc
from jetverify.catalog import CATALOG
from jetverify.jetalg import (
    ContextMismatch, NotIntegrable, RingContext, coords_of, frechet_coeffs,
    random_assignment, random_eval, random_expr, params_of, promote,
    to_text, total_derivative,
)
from jetverify.opcalc import (
    Echelon, LocalOp, MatrixOp, NonClosedComposition, NonlocalStore,
    OperatorRegistry, PseudoOp, UnknownOperator, frechet_row,
    scaled_derivative_power, serialize_pseudo, solve_e_image,
    transport_local,
)

R = RingContext("y", ("u", "s", "i", "j"), ("lam",))
N_CASES = 200


def D(e):
    return total_derivative(e)


def make_registry():
    reg = OperatorRegistry()
    e_op = LocalOp(R, {3: R.one(), 1: -R.one()})
    reg.register_invertible("E", e_op)
    return reg, e_op


def word(left=None, right=None, coeff=1):
    """The one-word operator coeff * left o inv[E] o right, built by the
    constructor as catalog J1 builds its words; a side left out is the
    identity."""
    one = LocalOp.identity(R)
    return PseudoOp(R, None, (), [(
        Fraction(coeff), one if left is None else left, "E",
        one if right is None else right)])


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
                            else R.const(dict(c.coeff_items())[((), ())]), u)
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
    with pytest.raises(NonClosedComposition):
        t.compose(word())


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


def test_tail_canonicalization_stops_at_a_fixed_round(monkeypatch):
    # normalizing 2u o dinv o 3s moves the scale 6 from one side to the
    # other on every pass; the second round reproduces the first
    passes = []
    merge_side = opcalc._merge_side

    def counted(pairs, side):
        passes.append(side)
        return merge_side(pairs, side)

    monkeypatch.setattr(opcalc, "_merge_side", counted)
    t = PseudoOp.from_tail(2 * R.coord("u"), 3 * R.coord("s"))
    assert passes == [1, 0, 1, 0]
    assert t.tail == ((R.coord("u"), 6 * R.coord("s")),)


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


def test_compose_and_adjoint_of_a_word_raise():
    # words are only applied; no product or adjoint multiplies one out
    d = PseudoOp.from_local(LocalOp.derivative(R))
    ops = (word(), word(LocalOp.mult(R.coord("u"))) + d)
    for op in ops:
        for product in (lambda: op.compose(d), lambda: d.compose(op),
                        lambda: op.compose(op)):
            with pytest.raises(NonClosedComposition):
                product()
        with pytest.raises(NonClosedComposition):
            op.adjoint()
        mat = MatrixOp([[op, d]])
        with pytest.raises(NonClosedComposition):
            mat.adjoint()
        with pytest.raises(NonClosedComposition):
            MatrixOp([[d], [d]]).compose(mat)


def test_word_survives_when_no_cancellation_applies():
    u = R.coord("u")
    got = word().scaled(u)
    assert got.words == ((Fraction(1), LocalOp.mult(u), "E",
                          LocalOp.identity(R)),)
    assert got == word(LocalOp.mult(u))


def test_cancelled_word_vanishes():
    u = LocalOp.mult(R.coord("u"))
    assert word().scaled(0).is_zero
    assert (word(u) - word(u)).is_zero
    assert (word(u, coeff=2) - word(u)) == word(u)


def test_word_scaled_by_zero_expression_is_zero():
    w = word(LocalOp.mult(R.coord("u")), LocalOp.derivative(R))
    got = w.scaled(R.zero())
    assert got.is_zero
    assert got == PseudoOp.zero(R)


def test_register_invertible_rejects_wrong_sign():
    reg = OperatorRegistry()
    # d^3 + d^2 - d is not skew: its adjoint is -d^3 + d^2 + d
    e_op = LocalOp(R, {3: R.one(), 2: R.one(), 1: -R.one()})
    with pytest.raises(ValueError):
        reg.register_invertible("E", e_op)
    with pytest.raises(UnknownOperator):
        reg.invertible("E")
    skew = LocalOp(R, {3: R.one(), 1: -R.one()})
    reg.register_invertible("E", skew)
    assert reg.invertible("E") == skew


def test_coefficient_walk_order_and_map():
    # The walk fixes the catalog's mutation slot numbers: local orders
    # ascending, then each tail pair p, q, then each word's left side
    # and right side.
    u, s, i = R.coord("u"), R.coord("s"), R.coord("i")

    def build(k):
        word = (Fraction(2), LocalOp(R, {1: k * s, 0: k * i}), "E",
                LocalOp(R, {2: k * u}))
        return PseudoOp(R, LocalOp(R, {2: k * u, 0: k * s}),
                        [(k * u, k * i)], [word])

    op = build(1)
    seen = []

    def record(c):
        seen.append(c)
        return c

    assert op.map_coefficients(record) == op
    assert tuple(seen) == (s, u, u, i, i, s, u)
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


def test_coefficient_quotients_stay_exact_ints():
    # the parameter-shift match and the d^3 - d peel each divide one
    # coefficient by another; int / int would give a float
    store = NonlocalStore(R)
    ring = store.ring
    u = ring.coord("u")
    u1 = ring.coord("u", 1)
    store.resolve_dinv(2 * u1 ** 2)
    got = store.resolve_dinv(6 * ring.param("lam") * u1 ** 2)
    assert got == 3 * ring.param("lam") * ring.coord("rho1")
    assert canonical(got)
    assert [type(c) for _key, c in got.coeff_items()] == [int]
    for p, kinds in ((u ** 2, [int]), (u ** 3 / 2, [Fraction])):
        got = solve_e_image(D(D(D(p))) - D(p))
        assert got == p and canonical(got)
        assert [type(c) for _key, c in got.coeff_items()] == kinds


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
    # an exact argument is the zero combination: integrated outright
    assert store.resolve_dinv(D(u ** 3 * s1)) == u ** 3 * s1
    assert len(store.allocated) == 2


def test_store_reduces_argument_before_resolving():
    store = NonlocalStore(R)
    u1 = store.ring.coord("u", 1)
    rho = store.resolve_dinv(u1 ** 2)
    # an argument mentioning the auxiliary's ruled jet reduces first
    got = store.resolve_dinv(store.ring.coord("rho1", 1))
    assert got == rho


def test_resolve_inv_exact_image():
    # the exact solve goes by the operator, d^3 - d, not by its name
    reg, e_op = make_registry()
    reg.register_invertible("K", e_op)
    for name in ("E", "K"):
        store = NonlocalStore(R, registry=reg)
        ring = store.ring
        p = ring.coord("u") * ring.coord("u", 1)
        arg = e_op.promote(ring).apply(p)
        assert store.resolve_inv(name, arg) == p
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


def test_store_keeps_dependent_cores_out_of_matches():
    store = NonlocalStore(R)
    ring = store.ring
    u, u1, s1 = ring.coord("u"), ring.coord("u", 1), ring.coord("s", 1)
    lam = ring.param("lam")
    rho = [None] + [ring.coord("rho%d" % i) for i in range(1, 6)]
    args = (
        u1 ** 2,
        # zero signature, yet no antiderivative in the ring: allocated
        u ** -1 * u1,
        u1 ** 2 + 2 * u * u1,
        3 * u ** -1 * u1 + u1 ** 2 + s1 ** 2,
        # 4 * rho1' + rho3' - 3 * rho2', but the dependent rho2 gets
        # coefficient zero, the remainder is not exact and rho4 is fresh
        s1 ** 2 + 5 * u1 ** 2,
    )
    got = [store.resolve_dinv(a) for a in args]
    assert got == [rho[1], rho[2], u ** 2 + rho[1], rho[3], rho[4]]
    assert [kind for _n, kind, _c in store.allocated] == ["dinv"] * 4
    # coefficients stay aligned with the cores past the dependent ones
    assert store.resolve_dinv(2 * args[3] + 2 * u * u1) == u ** 2 + 2 * rho[3]
    # a jet-free core is matched through its jet-free signature terms
    assert store.resolve_dinv(lam) == rho[5]
    assert store.resolve_dinv(2 * lam + 4 * u * u1) == 2 * u ** 2 + 2 * rho[5]
    assert len(store.allocated) == 5


def test_apply_without_store_requires_exact_tails():
    t = PseudoOp.from_tail(R.one(), R.one())
    u = R.coord("u")
    assert t.apply(u * D(u)) == u * u / 2
    with pytest.raises(NotIntegrable):
        t.apply(D(u) ** 2)
    with pytest.raises(UnknownOperator):
        word().apply(u)


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
        f = promote(f, store.ring)
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
    op = word(LocalOp.mult(R.coord("u")))
    f = ring.coord("s") ** 2
    assert op.apply(f, store) == u * store.resolve_inv("E", f)


def test_store_apply_promotes_operator_and_argument():
    # applied with a store, base-ring operators and vectors give the
    # image of the explicitly promoted call, on the store's ring
    reg, _ = make_registry()
    u, s, i = R.coord("u"), R.coord("s"), R.coord("i")
    op = (PseudoOp.from_local(LocalOp(R, {1: u, 0: s}))
          + PseudoOp.from_tail(u, D(s) * i)
          + word(LocalOp.mult(s), LocalOp.mult(i), coeff=3))
    mat = MatrixOp([[op, PseudoOp.from_expr(i)],
                    [PseudoOp.zero(R), op.scaled(u)]])
    vec = [s * D(i), u]
    implicit = NonlocalStore(R, registry=reg)
    explicit = NonlocalStore(R, registry=reg)
    ring = explicit.ring
    assert promote(vec[0], vec[0].ring) is vec[0]
    assert op.promote(R) is op
    got = op.apply(vec[0], implicit)
    want = op.promote(ring).apply(promote(vec[0], ring), explicit)
    assert got.ring == ring
    assert got == want
    got = mat.apply(vec, implicit)
    want = mat.promote(ring).apply([promote(e, ring) for e in vec], explicit)
    assert [e.ring for e in got] == [ring, ring]
    assert got == want
    assert implicit.allocated == explicit.allocated
    # an argument the store's ring cannot carry is still refused
    other = RingContext("y", ("b",), ())
    with pytest.raises(ContextMismatch):
        op.apply(other.coord("b"), implicit)


def _walked(op, ring):
    """op promoted through the coefficient walk, which canonicalizes
    its tails and words again."""
    return op.map_coefficients(lambda c: promote(c, ring), ring)


@pytest.mark.parametrize("ident", ("J1", "T1", "Lambda"))
def test_promote_onto_a_store_ring_keeps_the_canonical_form(ident):
    # a store's ring appends to the operator's, which keeps every
    # monomial key: re-tagging must give what canonicalizing again gives
    ops = [op for row in CATALOG.get(ident).grid for op in row]
    assert any(op.tail for op in ops)
    assert any(op.words for op in ops) == (ident == "J1")
    for op in ops:
        ring = NonlocalStore(op.ring).ring
        got, want = op.promote(ring), _walked(op, ring)
        assert got.ring == ring
        assert serialize_pseudo(got) == serialize_pseudo(want)
        assert got.key() == want.key()


def test_promote_onto_a_reordered_roster_canonicalizes_again():
    # reversing the roster reverses the indices and with them the
    # canonical order of the two tails
    u, s = R.coord("u"), R.coord("s")
    op = (PseudoOp.from_tail(u, u) + PseudoOp.from_tail(s, s)
          + word(LocalOp.mult(u), LocalOp.mult(s)))
    ring = RingContext("y", tuple(reversed(R.dependents)), R.parameters)
    got = op.promote(ring)
    assert [to_text(q) for _p, q in op.tail] == ["u_0", "s_0"]
    assert [to_text(q) for _p, q in got.tail] == ["s_0", "u_0"]
    assert serialize_pseudo(got) == serialize_pseudo(_walked(op, ring))
    assert got.key() == _walked(op, ring).key()


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
    one = PseudoOp.from_local(LocalOp.identity(R))
    zero = PseudoOp.zero(R)
    ident = MatrixOp([[one, zero], [zero, one]])
    vec = [random_expr(rng, R, n_terms=2) for _ in range(2)]
    assert ident.apply(vec) == vec


# -- operator identities ------------------------------------------------------
# Each identity is asserted either as equality of weakly nonlocal normal
# forms or by applying both sides to one vector through one shared
# NonlocalStore, the two comparisons the suite's checks make.  The
# "rung one" tests compare normal forms, the "rung two" tests apply.


def test_ladder_rung_one_on_equal_normal_forms():
    d = PseudoOp.from_local(LocalOp.derivative(R))
    t = PseudoOp.from_tail(R.one(), R.one())
    assert d.compose(t) == PseudoOp.from_local(LocalOp.identity(R))


def test_split_tails_already_merge_at_rung_one():
    u1 = R.coord("u", 1)
    s1 = R.coord("s", 1)
    lhs = (PseudoOp.from_tail(R.one(), u1 ** 2)
           + PseudoOp.from_tail(R.one(), s1 ** 2))
    rhs = PseudoOp.from_tail(R.one(), u1 ** 2 + s1 ** 2)
    assert lhs == rhs


def test_ladder_rung_two_uses_inverse_linearity():
    reg, _ = make_registry()
    a = LocalOp.mult(R.coord("s"))
    b = LocalOp.mult(R.coord("u"))
    lhs = word(right=a) + word(right=b)
    rhs = word(right=a + b)
    store = NonlocalStore(R, registry=reg)
    f = store.ring.coord("i")
    left = lhs.apply(f, store)
    assert len(store.allocated) == 2
    # the argument of the right side is the sum of the two resolved
    # units, so the inverse matches it without a fresh auxiliary
    assert rhs.apply(f, store) == left
    assert len(store.allocated) == 2


def test_ladder_rung_two_decides_words():
    reg, _ = make_registry()
    u = R.coord("u")
    lhs = word(LocalOp.mult(u)) + word(LocalOp.mult(R.one() - u))
    store = NonlocalStore(R, registry=reg)
    f = store.ring.coord("i")
    assert store.reduce(lhs.apply(f, store)
                        - word().apply(f, store)).is_zero


def test_ladder_reports_nonzero_residual_with_witness():
    reg, _ = make_registry()
    u = LocalOp.mult(R.coord("u"))
    lhs = word(left=u)
    rhs = word(right=u)
    store = NonlocalStore(R, registry=reg)
    f = store.ring.coord("i")
    diff = store.reduce(lhs.apply(f, store) - rhs.apply(f, store))
    assert not diff.is_zero
    rng = random.Random(0)
    point = random_assignment(rng, coords_of(diff), params_of(diff))
    assert random_eval(diff, point) != 0


def test_ladder_detects_plain_coefficient_corruption():
    u = R.coord("u")
    lhs = MatrixOp([[PseudoOp.from_local(LocalOp(R, {1: u}))]])
    rhs = MatrixOp([[PseudoOp.from_local(LocalOp(R, {1: u + R.one()}))]])
    assert lhs != rhs
    store = NonlocalStore(R)
    f = [store.ring.coord("i")]
    diff = [store.reduce(x - y)
            for x, y in zip(lhs.apply(f, store), rhs.apply(f, store))]
    assert diff == [-store.ring.coord("i", 1)]


def test_ladder_respects_caller_relations():
    from jetverify.jetalg import RelationSet
    rel = RelationSet(R).with_rule("s", 0, R.coord("u") ** 2)
    lhs = PseudoOp.from_expr(R.coord("s"))
    rhs = PseudoOp.from_expr(R.coord("u") ** 2)
    assert lhs != rhs
    store = NonlocalStore(R, relations=rel)
    f = store.ring.coord("i")
    assert store.reduce(lhs.apply(f, store)) == \
        store.reduce(rhs.apply(f, store))


# -- the third-order exact solver ---------------------------------------------


def test_solve_e_image_round_trip():
    rng = random.Random(13)
    e_op = LocalOp(R, {3: R.one(), 1: -R.one()})
    for _ in range(50):
        p = random_expr(rng, R, deps=("u", "s"), max_jet_order=2, n_terms=2)
        p = p - R.const(dict(p.coeff_items()).get(((), ()), 0))
        if p.is_zero:
            continue
        arg = e_op.apply(p)
        assert solve_e_image(arg) == p


def test_solve_e_image_rejects_non_image():
    with pytest.raises(NotIntegrable):
        solve_e_image(R.coord("u"))


# -- the incremental echelon basis ---------------------------------------------


def dense_solve(matrix, n_unknowns):
    """Reference: Gaussian elimination on an augmented rational matrix;
    the solution vector or None when inconsistent (free unknowns are
    set to zero)."""
    rows = [list(r) for r in matrix]
    pivots = []
    r = 0
    for c in range(n_unknowns):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][n_unknowns]:
            return None
    sol = [Fraction(0)] * n_unknowns
    for i, c in enumerate(pivots):
        sol[c] = rows[i][n_unknowns]
    return sol


def combine(coeffs, vectors):
    out = {}
    for c, vec in zip(coeffs, vectors):
        for k, v in vec.items():
            out[k] = out.get(k, 0) + c * v
    return out


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
SPARSE = st.dictionaries(st.integers(0, 4), RATIONALS, max_size=4)


@st.composite
def span_problems(draw):
    """Vectors that include zeros, repeats and dependent combinations,
    and a target that is either in their span or arbitrary."""
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "combo")))
        if kind == "zero":
            vectors.append({})
        elif kind == "fresh" or not vectors:
            vectors.append(draw(SPARSE))
        elif kind == "repeat":
            vectors.append(dict(draw(st.sampled_from(vectors))))
        else:
            coeffs = draw(st.lists(RATIONALS, min_size=len(vectors),
                                   max_size=len(vectors)))
            vectors.append(combine(coeffs, vectors))
    if draw(st.booleans()):
        coeffs = draw(st.lists(RATIONALS, min_size=len(vectors),
                               max_size=len(vectors)))
        target = combine(coeffs, vectors)
    else:
        target = draw(SPARSE)
    return vectors, target


@settings(deadline=None)
@given(span_problems())
def test_echelon_solve_matches_dense_elimination(problem):
    vectors, target = problem
    keys = sorted(set(target) | {k for vec in vectors for k in vec})
    matrix = [[vec.get(k, Fraction(0)) for vec in vectors]
              + [target.get(k, Fraction(0))] for k in keys]
    want = dense_solve(matrix, len(vectors))
    got = Echelon(vectors).solve(target)
    assert got == want
    if got is not None:
        rebuilt = combine(got, vectors)
        assert all(rebuilt.get(k, 0) == target.get(k, 0) for k in keys)


# -- serialization -------------------------------------------------------------


def test_serialize_fixed_forms():
    u = R.coord("u")
    op = PseudoOp.from_local(LocalOp(R, {2: u, 0: R.const(3)}))
    assert serialize_pseudo(op) == "(3)*d^0 + (u_0)*d^2"
    t = PseudoOp.from_tail(u, R.coord("s"))
    assert serialize_pseudo(t) == "(u_0)*dinv*(s_0)"
    assert serialize_pseudo(PseudoOp.zero(R)) == "0"
    assert serialize_pseudo(word()) == "(1)*{(1)*d^0}*inv[E]*{(1)*d^0}"
    assert serialize_pseudo(word(LocalOp.mult(u), coeff=-2)) == \
        "(-2)*{(u_0)*d^0}*inv[E]*{(1)*d^0}"
    assert serialize_pseudo(word(right=LocalOp.derivative(R))) == \
        "(1)*{(1)*d^0}*inv[E]*{(1)*d^1}"
