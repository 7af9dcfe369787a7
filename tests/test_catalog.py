"""Tests for the catalog of verification targets."""

from fractions import Fraction

import pytest

from jetverify import catalog as C
from jetverify.jetalg import (
    JetExpr, RelationSet, SystemDef, split_param, total_derivative,
)
from jetverify.opcalc import MatrixOp, PseudoOp

CAT = C.CATALOG


def walk_leaves(ent):
    """The entry's value rebuilt by an identity walk, and the leaves the
    walk visited in slot order."""
    leaves = []

    def record(_label, e):
        leaves.append(e)
        return e

    return C.KIND_TABLE[type(ent.value)](ent.value, record), leaves


def all_leaves(ident):
    return walk_leaves(CAT.entry(ident))[1]


def test_entry_count_and_index():
    idents = CAT.idents()
    assert len(idents) >= 40
    assert len(set(idents)) == len(idents)
    for ident in idents:
        citation = CAT.citation(ident)
        assert isinstance(citation, str) and citation


def test_unknown_identifier_raises():
    with pytest.raises(KeyError):
        CAT.get("no.such.entry")
    with pytest.raises(KeyError):
        C.CatalogView({"no.such.entry": CAT.entry("E")})


def test_entries_are_slot_frozen():
    ent = CAT.entry("E")
    with pytest.raises(AttributeError):
        ent.extra = 1
    with pytest.raises(AttributeError):
        ent.value = None


def test_every_value_type_is_a_kind():
    # a value's type is its kind: the type keys the walk of its slots
    for ident in CAT.idents():
        assert type(CAT.get(ident)) in C.KIND_TABLE, ident


def test_a_value_of_no_known_kind_is_refused(monkeypatch):
    monkeypatch.setattr(C, "_k_entries",
                        lambda add: add("listed", [C.RING_K.one()], "x"))
    with pytest.raises(TypeError, match="'listed' holds a list"):
        C._build()


def test_functionals_are_stored_as_their_densities():
    # a functional has no structure beyond its density, so it is an
    # expression entry and needs no kind of its own
    assert all(isinstance(CAT.get(h), JetExpr) for h in ("H0", "H1"))


def test_named_values_reject_assignment():
    u = C.RING_X.coord("u")
    with pytest.raises(TypeError):
        CAT.get("ymap")["Q1"] = u
    with pytest.raises(TypeError):
        CAT.get("recip.main").substitutions["v"] = u


def test_systems_and_relation_sets_reject_assignment():
    # one process shares the catalog values across every row and mutant
    sysd = CAT.get("sys.main")
    rule = sysd.constraints.rules["v"]
    with pytest.raises(TypeError):
        sysd.evolution["v"] = C.RING_X.coord("u")
    with pytest.raises(TypeError):
        sysd.constraints.rules["v"] = rule
    with pytest.raises(TypeError):
        del CAT.get("krel.rules").rules["Y11"]


def test_operator_coefficients_reject_assignment():
    local = CAT.get("E").local
    with pytest.raises(TypeError):
        local.coeffs[3] = C.RING_X.one()
    with pytest.raises(TypeError):
        del local.coeffs[1]


def test_leaves_of_an_entry_share_one_ring():
    for ident in CAT.idents():
        leaves = all_leaves(ident)
        assert leaves, ident
        assert all(leaf.ring == leaves[0].ring for leaf in leaves), ident


def test_lambda_powers_stay_in_window():
    # Spectral data uses powers -2..2 of the parameter; nothing in the
    # catalog needs more.
    for ident in CAT.idents():
        for leaf in all_leaves(ident):
            for power in split_param(leaf, "lam"):
                assert -2 <= power <= 2, (ident, power)


def test_second_order_factors_multiply_to_l4():
    # The two stored quadratic factors recompose the fourth-order
    # operator once (m, n) take their substitution values.
    prod = CAT.get("factor2.left").compose(CAT.get("factor2.right"))
    m_ij = CAT.get("miura.m")
    want = {4: C.RING_Y.one(), 2: m_ij, 1: total_derivative(m_ij),
            0: CAT.get("miura.n")}
    got = prod.local.coeffs
    keys = set(got) | set(want)
    assert all((got.get(k, C.RING_Y.zero())
                - want.get(k, C.RING_Y.zero())).is_zero for k in keys)


def test_theta_matrix_reproduces_constraint_pair():
    Y = C.RING_Y
    vec = CAT.get("Thetamat").apply((Y.coord("f"), Y.coord("g")))
    items = CAT.get("F12")
    assert (vec[0] - items["F1"]).is_zero
    assert (vec[1] - items["F2"]).is_zero


def test_conjugation_operator_conjugate_is_minus_adjoint():
    th1 = CAT.get("Theta1")
    assert CAT.get("Theta1.conj") == th1.adjoint().scaled(-1)


def test_recipe_matrix_equals_flux_annihilator():
    assert CAT.get("Grecipe") == CAT.get("Jop")


def test_q2_display_differs_by_fifth_power_of_density():
    items = CAT.get("ymap")
    u = C.RING_X.coord("u")
    assert (items["Q2.display"] - u ** 5 * items["Q2"]).is_zero


def test_rule_orientation_annihilates_its_sources():
    rules = CAT.get("krel.rules")
    disp = CAT.get("krel.display")
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
    sandwich = CAT.get("Lambda").compose(diag).scaled(Fraction(1, 4))
    assert sandwich == CAT.get("T1")


def test_mutation_slots_cover_every_entry():
    for ident in CAT.idents():
        assert C.part_windows(CAT.entry(ident))[-1][2] > 0, ident


def test_mutated_entry_differs_and_original_survives():
    ent = CAT.entry("Theta1")
    before = CAT.get("Theta1")
    for slot in range(C.part_windows(ent)[-1][2]):
        changed = C.mutated(ent, slot)
        assert changed.value != before
    assert CAT.get("Theta1") == before


def test_mutation_slot_out_of_range():
    ent = CAT.entry("miura.m")
    for slot in (C.part_windows(ent)[-1][2], -1):
        with pytest.raises(IndexError):
            C.mutated(ent, slot)
        with pytest.raises(IndexError):
            CAT.with_mutation("miura.m", slot)


def test_catalog_view_override():
    base = C.CATALOG
    changed = base.with_mutation("miura.m", 0)
    assert changed.get("miura.m") != base.get("miura.m")
    assert changed.get("miura.n") == base.get("miura.n")


def test_mutation_roundtrip_of_structured_kinds():
    # An identity walk must give back a value whose walk visits the same
    # leaves and parts for every kind, and rebuilding from those leaves
    # must consume them all, otherwise mutated() would corrupt its
    # target.
    for ident in CAT.idents():
        ent = CAT.entry(ident)
        value, leaves = walk_leaves(ent)
        feed = iter(leaves)
        C.KIND_TABLE[type(ent.value)](ent.value,
                                      lambda _label, _e: next(feed))
        assert next(feed, None) is None, ident
        rebuilt = ent._replace(value=value)
        assert walk_leaves(rebuilt)[1] == leaves, ident
        assert C.part_windows(rebuilt) == C.part_windows(ent), ident
        assert type(value) is type(ent.value), ident
        # systems and relation sets define no equality of their own
        if not isinstance(value, (SystemDef, RelationSet)):
            assert value == ent.value, ident


def test_systems_carry_constraints():
    for ident in ("sys.main", "sys.appb", "sys.mdflow", "sys.appb.trans"):
        sysd = CAT.get(ident)
        assert sysd.constraints is not None
        assert sysd.evolution


def test_lax_pairs_are_square_grids():
    for ident in ("lax.main", "lax.appb", "lax.trans", "lax.appb.trans"):
        pair = CAT.get(ident)
        assert len(pair.space) == 4
        assert all(len(row) == 4 for row in pair.space)
        assert len(pair.time) == 4
        assert all(len(row) == 4 for row in pair.time)
        assert pair.ring.independent in ("x", "y")


def test_reciprocal_maps_share_cleared_substitutions():
    X = C.RING_X
    u, s = X.coord("u"), X.coord("s")
    for ident in ("recip.main", "recip.appb"):
        rec = CAT.get(ident)
        subs = rec.substitutions
        assert (subs["v"] - u ** 3 / s).is_zero
        assert (subs["w"] - u * s).is_zero
        assert (rec.density - u).is_zero
