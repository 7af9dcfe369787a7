"""The correction ledger.

Each entry records one display-level correction the suite applies: the
check that needs it, where the displayed term sits, the displayed and
the corrected term, and why.  The two terms are catalog references in
the shape of ``CheckSpec.reads``: an entry identifier and the label of
one of its parts, or None for the whole entry, so the ledger quotes no
term the catalog already holds.  Both directions are asserted at run
time: the displayed term must fail and the corrected one must pass.
"""

from collections import namedtuple

# one recorded correction
ErratumEntry = namedtuple("ErratumEntry", (
    "ident", "check_id", "citation", "original", "corrected",
    "justification"))

_LEDGER = (
    ErratumEntry(
        "E1", "reciprocal.main.jdef",
        "display of the second transported coefficient function; the "
        "overall power of the momentum product",
        ("ymap", "Q2.display"), ("ymap", "Q2"),
        "re-deriving the transported coefficient from the cleared "
        "parametrization forces overall degree -10 in the fourth root of "
        "the momentum product (the displayed power reads as degree -5); "
        "the degree -5 reading reproduces the direct definition only "
        "after an extra fifth power of the density, while degree -10 "
        "matches it exactly and also reproduces the stated mixed flow."),
    ErratumEntry(
        "E2", "theorem1.jt1",
        "the pairing of the two transformed operators with the two "
        "momentum-side operators in the transformation identities",
        ("J1", None), ("J2", None),
        "recomputing both transforms by full composition shows the "
        "sandwich display is produced by the local momentum-side "
        "operator and the factored-composition display is produced by "
        "the nonlocal momentum-side operator; the displayed pairing "
        "crosses the two labels. The corrected pairing passes exactly "
        "and the displayed pairing leaves a nonzero residual."),
)


def load_ledger():
    """The ledger as a new {ident: ErratumEntry} dict."""
    return {ent.ident: ent for ent in _LEDGER}
