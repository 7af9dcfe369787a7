"""Tests for the catalog of verification targets."""

from fractions import Fraction

import pytest

from jetverify import catalog as C
from jetverify.jetalg import parse, split_param, to_text, total_derivative
from jetverify.opcalc import (
    MatrixOp, PseudoOp, parse_matrix, parse_pseudo, serialize_matrix,
    serialize_pseudo,
)


def all_leaves(ident):
    return C._leaves(C.entry(ident))


def test_entry_count_and_index():
    assert len(C.idents()) >= 40
    assert len(set(C.idents())) == len(C.idents())
    idx = C.index()
    assert len(idx) == len(C.idents())
    for ident, citation in idx:
        assert isinstance(citation, str) and citation
        assert C.citation(ident) == citation


def test_unknown_identifier_raises():
    with pytest.raises(KeyError):
        C.get("no.such.entry")
    with pytest.raises(KeyError):
        C.CatalogView({"no.such.entry": C.entry("E")})


def test_entries_are_slot_frozen():
    ent = C.entry("E")
    with pytest.raises(AttributeError):
        ent.extra = 1
    with pytest.raises(AttributeError):
        ent.value = None


def test_kind_tags_are_known():
    for ident in C.idents():
        assert C.entry(ident).kind in C.KINDS


def test_leaves_live_on_the_declared_ring():
    for ident in C.idents():
        ring = C.entry(ident).ring
        for leaf in all_leaves(ident):
            assert leaf.ring == ring, ident


def test_lambda_powers_stay_in_window():
    # Spectral data uses powers -2..2 of the parameter; nothing in the
    # catalog needs more.
    for ident in C.idents():
        for leaf in all_leaves(ident):
            for power in split_param(leaf, "lam"):
                assert -2 <= power <= 2, (ident, power)


def test_text_forms_round_trip():
    # Every leaf parses back from its text form, and every operator
    # value from its serialized form.
    for ident in C.idents():
        ent = C.entry(ident)
        for leaf in all_leaves(ident):
            assert parse(to_text(leaf), ent.ring) == leaf, ident
        if ent.kind == "op":
            text = serialize_pseudo(ent.value)
            assert parse_pseudo(text, ent.ring) == ent.value, ident
        elif ent.kind == "matrix":
            text = serialize_matrix(ent.value)
            assert parse_matrix(text, ent.ring) == ent.value, ident


def test_signature_matrices_square_to_identity():
    X = C.RING_X
    ident2 = MatrixOp.identity(X, 2)
    assert C.get("sigma1").compose(C.get("sigma1")) == ident2
    assert C.get("sigma3").compose(C.get("sigma3")) == ident2


def test_second_order_factors_multiply_to_l4():
    # The two stored quadratic factors recompose the fourth-order
    # operator once (m, n) take their substitution values.
    prod = C.get("factor2.left").compose(C.get("factor2.right"))
    m_ij = C.get("miura.m")
    want = {4: C.RING_Y.one(), 2: m_ij, 1: total_derivative(m_ij),
            0: C.get("miura.n")}
    got = prod.local.coeffs
    keys = set(got) | set(want)
    assert all((got.get(k, C.RING_Y.zero())
                - want.get(k, C.RING_Y.zero())).is_zero for k in keys)


def test_theta_matrix_reproduces_constraint_pair():
    Y = C.RING_Y
    vec = C.get("Thetamat").apply((Y.coord("f"), Y.coord("g")))
    items = dict(C.get("F12"))
    assert (vec[0] - items["F1"]).is_zero
    assert (vec[1] - items["F2"]).is_zero


def test_conjugation_operator_conjugate_is_minus_adjoint():
    th1 = C.get("Theta1")
    assert C.get("Theta1.conj") == th1.adjoint().scaled(-1)


def test_recipe_matrix_equals_flux_annihilator():
    assert C.get("Grecipe") == C.get("Jop")


def test_q2_display_differs_by_fifth_power_of_density():
    items = dict(C.get("ymap"))
    u = C.RING_X.coord("u")
    assert (items["Q2.display"] - u ** 5 * items["Q2"]).is_zero


def test_rule_orientation_annihilates_its_sources():
    rules = C.get("krel.rules")
    disp = dict(C.get("krel.display"))
    for name in ("rel1", "rel2", "rel3", "rel4", "rel5"):
        assert rules.reduce(disp[name]).is_zero, name
    # the sixth consequence is independent of the oriented five
    assert not rules.reduce(disp["rel6"]).is_zero


def test_jacobian_blocks_factor_as_stored():
    # T1 = (1/4) Lambda diag(1/v, 1/w) holds by construction; confirm
    # the stored pieces agree so checks can rely on either form.
    Y = C.RING_Y
    one = Y.one()
    diag = MatrixOp(((PseudoOp.from_expr(one / Y.coord("v")),
                      PseudoOp.zero(Y)),
                     (PseudoOp.zero(Y),
                      PseudoOp.from_expr(one / Y.coord("w")))))
    sandwich = C.get("Lambda").compose(diag).scaled(Fraction(1, 4))
    assert sandwich == C.get("T1")


def test_mutation_slots_cover_every_entry():
    for ident in C.idents():
        assert C.mutation_count(C.entry(ident)) > 0, ident


def test_mutated_entry_differs_and_original_survives():
    ent = C.entry("Theta1")
    before = C.get("Theta1")
    for slot in range(C.mutation_count(ent)):
        changed = C.mutated(ent, slot)
        assert changed.value != before
    assert C.get("Theta1") == before


def test_mutation_slot_out_of_range():
    ent = C.entry("miura.m")
    with pytest.raises(IndexError):
        C.mutated(ent, C.mutation_count(ent))


def test_catalog_view_override():
    base = C.CATALOG
    changed = base.with_mutation("miura.m", 0)
    assert changed.get("miura.m") != base.get("miura.m")
    assert changed.get("miura.n") == base.get("miura.n")
    assert changed.overridden() == ("miura.m",)
    assert base.overridden() == ()


def test_mutation_roundtrip_of_structured_kinds():
    # Rebuilding from unchanged leaves must consume them all and give
    # back the same leaves and parts for every kind, otherwise
    # mutated() would corrupt its target.
    for ident in C.idents():
        ent = C.entry(ident)
        leaves = C._leaves(ent)
        feed = iter(leaves)
        value = C.KIND_TABLE[ent.kind].rebuilt(ent.value, feed)
        assert next(feed, None) is None, ident
        rebuilt = C.Entry(ident, ent.kind, ent.ring_key, ent.citation,
                          value)
        assert C._leaves(rebuilt) == leaves, ident
        assert C.part_windows(rebuilt) == C.part_windows(ent), ident
        if ent.kind in ("expr", "op", "matrix", "exprmatrix"):
            assert value == ent.value, ident


def test_systems_carry_constraints():
    for ident in ("sys.main", "sys.appb", "sys.mdflow", "sys.appb.trans"):
        sysd = C.get(ident)
        assert sysd.constraints is not None
        assert sysd.evolution


def test_lax_pairs_are_square_grids():
    for ident in ("lax.main", "lax.appb", "lax.trans", "lax.appb.trans"):
        pair = C.get(ident)
        assert len(pair.space) == 4
        assert all(len(row) == 4 for row in pair.space)
        assert len(pair.time) == 4
        assert all(len(row) == 4 for row in pair.time)
        assert pair.variables[0] in ("x", "y")


def test_reciprocal_maps_share_cleared_substitutions():
    X = C.RING_X
    u, s = X.coord("u"), X.coord("s")
    for ident in ("recip.main", "recip.appb"):
        rec = C.get(ident)
        subs = dict(rec.substitutions)
        assert (subs["v"] - u ** 3 / s).is_zero
        assert (subs["w"] - u * s).is_zero
        assert (rec.density - u).is_zero
