"""The correction ledger.

Each entry records one display-level correction the suite applies: the
check that needs it, where the displayed term sits, the term as
displayed, the term the re-derivation produces, and why.  The terms are
written as the kernel prints them (``jetalg.to_text`` for an
expression, ``opcalc.serialize_matrix`` for an operator matrix), so
each one can be compared with the catalog entry it quotes.  Both
directions are asserted at run time: the displayed term must fail and
the corrected one must pass.
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
        "(+ (* 1/4 (^ u_0 3)) (+ (* -3/4 (* (^ u_0 3) (* (^ s_0 -2) "
        "(^ s_1 2)))) (* 1/2 (* (^ u_0 3) (* (^ s_0 -1) s_2)))))",
        "(+ (* 1/4 (^ u_0 -2)) (+ (* -3/4 (* (^ u_0 -2) (* (^ s_0 -2) "
        "(^ s_1 2)))) (* 1/2 (* (^ u_0 -2) (* (^ s_0 -1) s_2)))))",
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
        "[[(v_0)*dinv*((* -2 v_0)) + (-2)*{(v_1)*d^0 + ((* 2 v_0))*d^1}"
        "*inv[E]*{(v_1)*d^0 + ((* 2 v_0))*d^1}; (v_0)*dinv*((* 2 w_0)) "
        "+ (-2)*{(v_1)*d^0 + ((* 2 v_0))*d^1}*inv[E]*{(w_1)*d^0 + "
        "((* 2 w_0))*d^1}], [(w_0)*dinv*((* 2 v_0)) + (-2)*{(w_1)*d^0 "
        "+ ((* 2 w_0))*d^1}*inv[E]*{(v_1)*d^0 + ((* 2 v_0))*d^1}; "
        "(w_0)*dinv*((* -2 w_0)) + (-2)*{(w_1)*d^0 + ((* 2 w_0))*d^1}"
        "*inv[E]*{(w_1)*d^0 + ((* 2 w_0))*d^1}]]",
        "[[0; (1)*d^1 + (-1)*d^3], [(1)*d^1 + (-1)*d^3; 0]]",
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
