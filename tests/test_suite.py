"""The reproduction itself: the verdict table, the exact row records,
both errata in both directions and their ties to the catalog,
determinism, the mutation surface every check declares, and a sampled
run of the sensitivity invariant."""

import hashlib
import json

import pytest

from jetverify import catalog
from jetverify.jetalg import to_text
from jetverify.opcalc import MatrixOp, PseudoOp, serialize_matrix
from jetverify.verify import (
    CheckContext, ERRATUM, FAIL, NORMAL_FORM, OrderCapExceeded, PASS,
    UNDECIDABLE, suite,
)
from jetverify.verify.base import MAX_ORDER, conclude
from jetverify.verify.errata import load_ledger

ROWS = (
    ("zc_main", PASS, "normal-form"),
    ("zc_trans", PASS, "normal-form"),
    ("conservation.main", PASS, "normal-form"),
    ("conservation.appb", PASS, "normal-form"),
    ("reciprocal.main.idef", PASS, "normal-form"),
    ("reciprocal.main.jdef", ERRATUM, "normal-form"),
    ("reciprocal.main.itau", PASS, "normal-form"),
    ("reciprocal.main.jtau", PASS, "normal-form"),
    ("reciprocal.main.kernels", PASS, "normal-form"),
    ("reciprocal.main.flowlink", PASS, "normal-form"),
    ("reciprocal.appb", PASS, "normal-form"),
    ("scalar_reduction.pair", PASS, "normal-form"),
    ("scalar_reduction.fourth", PASS, "normal-form"),
    ("scalar_reduction.mn", PASS, "normal-form"),
    ("factorizations.quadratic", PASS, "normal-form"),
    ("factorizations.linear", PASS, "normal-form"),
    ("factorizations.firstorder", PASS, "normal-form"),
    ("connecting_identity.expand", PASS, "test-vector"),
    ("connecting_identity.constants", PASS, "test-vector"),
    ("prop1", PASS, "normal-form"),
    ("prop2", PASS, "normal-form"),
    ("bihamiltonian_x.local", PASS, "normal-form"),
    ("bihamiltonian_x.nonlocal", PASS, "normal-form"),
    ("theorem1.t1", PASS, "normal-form"),
    ("theorem1.t2", PASS, "normal-form"),
    ("theorem1.factored", PASS, "normal-form"),
    ("theorem1.jt2", PASS, "test-vector"),
    ("theorem1.jt1", ERRATUM, "test-vector"),
    ("appendix_a.blocks", PASS, "normal-form"),
    ("appendix_a.relations", PASS, "normal-form"),
    ("appendix_a.flow", PASS, "normal-form"),
    ("appendix_a.subflow", PASS, "normal-form"),
    ("appendix_a.balance", PASS, "normal-form"),
    ("appendix_a.omega", PASS, "normal-form"),
    ("appendix_a.link", PASS, "test-vector"),
    ("appendix_a.scan", PASS, "test-vector"),
    ("appendix_b.zc", PASS, "normal-form"),
    ("appendix_b.zc_trans", PASS, "normal-form"),
    ("appendix_b.conservation", PASS, "normal-form"),
    ("appendix_b.reciprocal", PASS, "normal-form"),
)

# sha256 of the canonical JSON of every row's to_record(): residual
# texts, notes and citations included
DIGEST = "101425e3654346ba500b66a55f2daac792378b49f8fdce0a7687c40d0a9565ef"

# mutation slots each check reads, in registry order
SLOTS = {
    "zc_main": 64, "zc_trans": 52, "conservation": 27, "reciprocal": 80,
    "scalar_reduction": 61, "factorizations": 39, "connecting_identity": 36,
    "prop1": 18, "prop2": 9, "bihamiltonian_x": 52, "theorem1": 128,
    "appendix_a": 362, "appendix_b": 87,
}


def records(rows):
    return [row.to_record() for row in rows]


@pytest.fixture(scope="module")
def rows():
    return suite.run_suite()


def test_verdict_table(rows):
    assert tuple((r.id, r.status, r.decided_by) for r in rows) == ROWS


def test_record_digest(rows):
    text = json.dumps(records(rows), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGEST


def test_all_clear_without_undecidable_rows(rows):
    assert suite.all_clear(rows)
    assert not [r.id for r in rows if r.status == UNDECIDABLE]


def test_records_are_deterministic(rows):
    assert records(suite.run_suite()) == records(rows)


def test_without_the_ledger_exactly_the_errata_fail(rows):
    bare = {r.id: r for r in suite.run_suite(errata={})}
    assert list(bare) == [r.id for r in rows]
    changed = {r.id for r in rows if r.to_record() != bare[r.id].to_record()}
    assert changed == {"reciprocal.main.jdef", "theorem1.jt1"}
    assert all(bare[rid].status == FAIL for rid in changed)


def test_mutation_surface_sizes():
    assert {c: len(suite.mutation_slots(c)) for c in suite.check_ids()} \
        == SLOTS


@pytest.mark.parametrize("slot", (0, 1))
def test_scalar_reduction_reads_the_upper_identity_blocks(slot):
    # slots 0 and 1 of the main spectral pair are its two upper unit
    # entries, which the reduction must take from the catalog
    view = catalog.CATALOG.with_mutation("lax.main", slot)
    got = {r.id: r.status
           for r in suite.run_suite(selection=("scalar_reduction",),
                                    catalog=view)}
    assert got == {"scalar_reduction.pair": FAIL,
                   "scalar_reduction.fourth": FAIL,
                   "scalar_reduction.mn": PASS}
    # the mutation harness stops the check at its first failing row
    assert [(r.id, r.status) for r in
            suite.run_mutated("scalar_reduction", "lax.main", slot)] \
        == [("scalar_reduction.pair", FAIL)]


# catalog entries no check reads yet: Theorem 1's claimed Jacobian rows
# and the Hamiltonian map, whose checks would change the benchmark's
# pinned slot counts
PENDING_READS = frozenset({
    "frechet.Pv", "frechet.Pv.star", "frechet.Pw", "frechet.Pw.star",
    "frechet.Q1v", "frechet.Q1v.u", "frechet.Q1w", "frechet.Q1w.u",
    "frechet.Q2v", "frechet.Q2v.u", "frechet.Q2w", "frechet.Q2w.u",
    "hmap",
})


def test_every_catalog_entry_is_read_by_a_check():
    # an entry is a claim some check re-derives; an entry that gains a
    # reader must also leave the pending set
    read = {ident for spec in suite.CHECKS for ident, _parts in spec.reads}
    assert set(catalog.CATALOG.idents()) - read == PENDING_READS


def test_errata_ledger_quotes_the_catalog():
    ledger = load_ledger()
    ymap = dict(catalog.CATALOG.get("ymap"))
    assert (ledger["E1"].original, ledger["E1"].corrected) == \
        (to_text(ymap["Q2.display"]), to_text(ymap["Q2"]))
    assert (ledger["E2"].original, ledger["E2"].corrected) == \
        (serialize_matrix(catalog.CATALOG.get("J1")),
         serialize_matrix(catalog.CATALOG.get("J2")))


def test_conclude_enforces_the_order_cap():
    # the one derivative-order cap: a compared expression past
    # MAX_ORDER aborts the row instead of being decided
    jet = catalog.RING_Y.coord
    row = conclude(CheckContext(), "probe", "",
                   [("at the cap", jet("u", MAX_ORDER))], NORMAL_FORM)
    assert row.status == FAIL
    with pytest.raises(OrderCapExceeded):
        conclude(CheckContext(), "probe", "",
                 [("past the cap", jet("u", MAX_ORDER + 1))], NORMAL_FORM)


@pytest.mark.parametrize("slot", (0, 1))
def test_mutated_kernel_is_not_inverted_as_the_original(slot):
    # slots 0 and 1 turn E into d^3 and 2d^3 - d; the store must invert
    # the mutated operator, so the nonlocal flow stops matching too
    rows = suite.run_suite(selection=("bihamiltonian_x",),
                           catalog=catalog.CATALOG.with_mutation("E", slot))
    assert [(r.id, r.status) for r in rows] == [
        ("bihamiltonian_x.local", FAIL), ("bihamiltonian_x.nonlocal", FAIL)]


def _with_shifted_word_sides(op, kernel):
    """op with each word c L inv[E] R rewritten as c L inv[E] (R + E)
    and c L added back to the local part: the same operator, whose
    words carry different right sides."""
    local = op.local
    words = []
    for c, left, name, right in op.words:
        local = local - left.scaled(op.ring.const(c))
        words.append((c, left, name, right + kernel))
    return PseudoOp(op.ring, local, op.tail, words)


def test_bihamiltonian_x_seeds_the_store_from_the_catalog_words():
    # the nonlocal row closes only if the store is seeded with the
    # combined argument of J1's own words; a seed built from any other
    # sides leaves auxiliaries in the flow
    ent = catalog.CATALOG.entry("J1")
    kernel = catalog.CATALOG.get("E").local
    j1 = MatrixOp([[_with_shifted_word_sides(op, kernel) for op in row]
                   for row in ent.value.grid])
    view = catalog.CatalogView({"J1": catalog.Entry(
        "J1", ent.kind, ent.ring_key, ent.citation, j1)})
    rows = suite.run_suite(selection=("bihamiltonian_x",), catalog=view)
    assert [(r.id, r.status) for r in rows] == [
        ("bihamiltonian_x.local", PASS), ("bihamiltonian_x.nonlocal", PASS)]


@pytest.mark.parametrize("check", tuple(SLOTS))
def test_sampled_mutants_turn_the_check_off_green(check):
    # the sensitivity invariant: corrupting any coefficient a check
    # reads must leave it not all clear
    survivors = [(ident, slot)
                 for ident, slot in suite.sample_mutations(check, 10, seed=0)
                 if suite.all_clear(suite.run_mutated(check, ident, slot))]
    assert survivors == []


def _check_rows(check, rows):
    return [r for r in rows if r.id == check or r.id.startswith(check + ".")]


def _yielded_before_abort(check, view):
    """The rows a check yields over view before it raises."""
    spec = next(spec for spec in suite.CHECKS if spec.name == check)
    rows = []
    with pytest.raises(Exception):
        for row in spec.runner(CheckContext(catalog=view,
                                            errata=load_ledger())):
            rows.append(row)
    return rows


# one sampled mutant set per check, plus a mutant whose full check
# raises after its first row has already failed
PREFIX_MUTANTS = tuple(
    (check, ident, slot) for check in SLOTS
    for ident, slot in suite.sample_mutations(check, 3, seed=0)) \
    + (("bihamiltonian_x", "sys.main", 12),)


@pytest.mark.parametrize("check,ident,slot", PREFIX_MUTANTS)
def test_mutated_rows_are_a_prefix_of_the_suite_rows(check, ident, slot):
    view = catalog.CATALOG.with_mutation(ident, slot)
    full = _check_rows(check, suite.run_suite(selection=(check,),
                                              catalog=view))
    got = suite.run_mutated(check, ident, slot)
    off = [k for k, r in enumerate(got) if not suite.all_clear([r])]
    assert off in ([], [len(got) - 1])
    assert suite.all_clear(got) == suite.all_clear(full)
    if ([r.status for r in full] == [UNDECIDABLE]
            and got[0].status != UNDECIDABLE):
        # the check raised only after the row that decided the mutant
        full = _yielded_before_abort(check, view)
    assert records(got) == records(full[:len(got)])
    if not off:
        assert len(got) == len(full)
