"""The reproduction itself: the verdict table, the exact row records,
both errata in both directions and their ties to the catalog,
determinism, the mutation surface every check declares, and a sampled
run of the sensitivity invariant."""

import hashlib
import json

import pytest

from jetverify import catalog
from jetverify.jetalg import to_text
from jetverify.opcalc import serialize_matrix
from jetverify.verify import ERRATUM, FAIL, PASS, UNDECIDABLE, suite
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

# the checks whose whole mutation surface runs in seconds
CHEAP = tuple(c for c in SLOTS if c not in ("theorem1", "appendix_a"))


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
    got = {r.id: r.status
           for r in suite.run_mutated("scalar_reduction", "lax.main", slot)}
    assert got == {"scalar_reduction.pair": FAIL,
                   "scalar_reduction.fourth": FAIL,
                   "scalar_reduction.mn": PASS}


def test_errata_ledger_quotes_the_catalog():
    ledger = load_ledger()
    ymap = dict(catalog.get("ymap"))
    assert (ledger["E1"].original, ledger["E1"].corrected) == \
        (to_text(ymap["Q2.display"]), to_text(ymap["Q2"]))
    assert (ledger["E2"].original, ledger["E2"].corrected) == \
        (serialize_matrix(catalog.get("J1")),
         serialize_matrix(catalog.get("J2")))


@pytest.mark.parametrize("check", CHEAP)
def test_sampled_mutants_turn_the_check_off_green(check):
    # the sensitivity invariant: corrupting any coefficient a check
    # reads must leave it not all clear
    survivors = [(ident, slot)
                 for ident, slot in suite.sample_mutations(check, 10, seed=0)
                 if suite.all_clear(suite.run_mutated(check, ident, slot))]
    assert survivors == []
