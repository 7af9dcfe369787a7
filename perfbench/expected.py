"""Hand-written answers the benchmark checks every output against.

The suite table is transcribed from the paper's claims and the errata
ledger: every re-derived identity passes, except the two displays the
ledger corrects (E1, the power of one transformed coordinate in the
reciprocal map; E2, one pairing of the transformed Hamiltonian pair),
which report ``erratum``.  The table has 40 rows.
"""

SUITE_ROWS = (
    ("zc_main", "pass", "normal-form"),
    ("zc_trans", "pass", "normal-form"),
    ("conservation.main", "pass", "normal-form"),
    ("conservation.appb", "pass", "normal-form"),
    ("reciprocal.main.idef", "pass", "normal-form"),
    ("reciprocal.main.jdef", "erratum", "normal-form"),
    ("reciprocal.main.itau", "pass", "normal-form"),
    ("reciprocal.main.jtau", "pass", "normal-form"),
    ("reciprocal.main.kernels", "pass", "normal-form"),
    ("reciprocal.main.flowlink", "pass", "normal-form"),
    ("reciprocal.appb", "pass", "normal-form"),
    ("scalar_reduction.pair", "pass", "normal-form"),
    ("scalar_reduction.fourth", "pass", "normal-form"),
    ("scalar_reduction.mn", "pass", "normal-form"),
    ("factorizations.quadratic", "pass", "normal-form"),
    ("factorizations.linear", "pass", "normal-form"),
    ("factorizations.firstorder", "pass", "normal-form"),
    ("connecting_identity.expand", "pass", "test-vector"),
    ("connecting_identity.constants", "pass", "test-vector"),
    ("prop1", "pass", "normal-form"),
    ("prop2", "pass", "normal-form"),
    ("bihamiltonian_x.local", "pass", "normal-form"),
    ("bihamiltonian_x.nonlocal", "pass", "normal-form"),
    ("theorem1.t1", "pass", "normal-form"),
    ("theorem1.t2", "pass", "normal-form"),
    ("theorem1.factored", "pass", "normal-form"),
    ("theorem1.jt2", "pass", "test-vector"),
    ("theorem1.jt1", "erratum", "test-vector"),
    ("appendix_a.blocks", "pass", "normal-form"),
    ("appendix_a.relations", "pass", "normal-form"),
    ("appendix_a.flow", "pass", "normal-form"),
    ("appendix_a.subflow", "pass", "normal-form"),
    ("appendix_a.balance", "pass", "normal-form"),
    ("appendix_a.omega", "pass", "normal-form"),
    ("appendix_a.link", "pass", "test-vector"),
    ("appendix_a.scan", "pass", "test-vector"),
    ("appendix_b.zc", "pass", "normal-form"),
    ("appendix_b.zc_trans", "pass", "normal-form"),
    ("appendix_b.conservation", "pass", "normal-form"),
    ("appendix_b.reciprocal", "pass", "normal-form"),
)

# sha256 of the canonical JSON of every row's to_record(); the records
# carry no seed-dependent text, so this holds for every seed
SUITE_DIGEST = (
    "101425e3654346ba500b66a55f2daac792378b49f8fdce0a7687c40d0a9565ef"
)

# the two expensive checks; every other check is "light"
HEAVY_CHECKS = ("theorem1", "appendix_a")

# mutation slots each light check reads (525 in all)
LIGHT_SLOTS = {
    "zc_main": 64,
    "zc_trans": 52,
    "conservation": 27,
    "reciprocal": 80,
    "scalar_reduction": 61,
    "factorizations": 39,
    "connecting_identity": 36,
    "prop1": 18,
    "prop2": 9,
    "bihamiltonian_x": 52,
    "appendix_b": 87,
}

# Mutants whose check stays green although they corrupt a coefficient
# the check declares it reads: scalar_reduction hard-codes the upper
# identity blocks of the main spectral pair instead of reading them.
# They are a known defect, counted as failed operations on every run;
# any other survivor makes the run incorrect.
KNOWN_SURVIVORS = frozenset({
    ("scalar_reduction", "lax.main", 0),
    ("scalar_reduction", "lax.main", 1),
})
