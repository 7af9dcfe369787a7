"""Plumbing shared by the verification checks.

Each row re-derives one catalogued claim, and its compare returns it as
a Claim: residual pairs that must vanish, with no verdict.  conclude,
which only the suite harness calls, turns a claim into the row's
CheckResult, so every verdict, erratum and numeric note is made in one
place.  Its one record rule: a failing row quotes only its first nonzero
residual, read through refuting_prefix, which stops after it, so a row
that feeds its pairs lazily to refuting_prefix derives nothing past the
residual that refutes it; only a display whose corrected reading
passes is quoted whole.  The other helpers keep residual bookkeeping,
independent-variable transport, and auxiliary hygiene uniform across
the checks.
"""

import random
from collections import namedtuple

from ..jetalg import (
    RelationSet, coords_of, max_order, params_of, random_assignment,
    random_eval, substitute, text_prefix,
)
from .. import catalog as _catalog

PASS = "pass"
FAIL = "fail"
ERRATUM = "erratum"
UNDECIDABLE = "undecidable"

NORMAL_FORM = "normal-form"
TEST_VECTOR = "test-vector"

SUMMARY_WIDTH = 320

# derivative-order cap on every compared expression
MAX_ORDER = 12


# what a row's compare returns: residual pairs (label, expression) that
# must all vanish, and for a claim that carries a correction the pairs
# of the corrected reading, which conclude turns into the row
Claim = namedtuple("Claim", ("citation", "pairs", "decided_by", "notes",
                             "corrected"), defaults=((), None))


def whole(claim):
    """The compare of a row with nothing to split: its derived half is
    its whole Claim."""
    return claim


class OrderCapExceeded(Exception):
    """A compared expression ran past the derivative-order cap MAX_ORDER."""


class CheckResult:
    """One verification outcome; a plain value object.

    ``elapsed_ms`` is the wall time the harness measured for the row,
    from the previous row of its check (or the check's start) to this
    one; it is not part of ``to_record()``, so records stay
    deterministic and their ``time_ms`` field keeps reading 0."""

    __slots__ = ("id", "status", "decided_by", "residual_summary",
                 "citation", "notes", "erratum_id", "elapsed_ms")

    def __init__(self, id, status, decided_by, residual_summary, citation,
                 notes=(), erratum_id=None):
        self.id = id
        self.status = status
        self.decided_by = decided_by
        self.residual_summary = tuple(residual_summary)
        self.citation = citation
        self.notes = tuple(notes)
        self.erratum_id = erratum_id
        self.elapsed_ms = None
        if (status == PASS) != (not self.residual_summary):
            raise ValueError("pass status must coincide with an empty "
                             "residual summary")
        if status == ERRATUM and erratum_id is None:
            raise ValueError("erratum status needs a ledger reference")

    def to_record(self):
        return {
            "id": self.id,
            "status": self.status,
            "decided_by": self.decided_by,
            "residual_summary": list(self.residual_summary),
            "time_ms": 0,
            "citation": self.citation,
            "notes": list(self.notes),
        }

    def __repr__(self):
        return "CheckResult(%r, %r)" % (self.id, self.status)


def summarize(pairs):
    """One line per residual pair: its label and to_text of the
    residual, cut after SUMMARY_WIDTH characters with the term count
    when longer.  Terms are formatted only as far as the cut."""
    lines = []
    for label, e in pairs:
        text = text_prefix(e, SUMMARY_WIDTH)
        if len(text) > SUMMARY_WIDTH:
            text = "%s... <%d terms>" % (text[:SUMMARY_WIDTH], len(e.nums))
        lines.append("%s: %s" % (label, text))
    return tuple(lines)


def numeric_confirmation(rng, exprs):
    """A note recording whether some nonzero residual also evaluates
    nonzero at a random rational point.

    The note never decides the row, whose residual is already nonzero
    as a normal form.  Jet coordinates and parameters are evaluated as
    independent variables, and the two notes say different things:

    * "confirms": an exact nonzero value at an exact point proves the
      residual nonzero as a function, not only as a normal form.
    * "found no witness": every draw for every residual evaluated to
      zero.  This proves nothing about the residual.  The draws are
      nonzero, so clearing negative exponents turns a residual into a
      polynomial of some total degree d with the same zeros.  By the
      Schwartz-Zippel lemma (Schwartz 1980; Zippel 1979), a nonzero
      polynomial of total degree d vanishes at a point of independent
      draws with probability at most d times the largest probability
      of any one drawn value.  ``random_assignment`` draws from a
      finite set: 126 equally likely pairs (numerator, denominator)
      give 88 rationals, and the most likely values, 1 and -1, each
      come up with probability 1/18.  So 30 draws all miss with
      probability at most (d/18)**30 when d < 18, which makes the note
      unlikely at low degree; for d >= 18 the bound is empty, and no
      witness is unsurprising.
    """
    for e in exprs:
        for _ in range(30):
            a = random_assignment(rng, coords_of(e), params_of(e))
            if random_eval(e, a) != 0:
                return ("numeric oracle confirms a nonzero residual at a "
                        "random rational point")
    return ("numeric oracle found no witness; the residual is nonzero "
            "only symbolically")


def guard_orders(pairs, where):
    for _label, e in pairs:
        if max_order(e) > MAX_ORDER:
            raise OrderCapExceeded(
                "%s reached derivative order %d beyond the cap %d"
                % (where, max_order(e), MAX_ORDER))


def refuting_prefix(pairs):
    """The (label, residual) pairs read in order up to and including the
    first nonzero residual, as a list: a row whose pairs are built
    lazily derives nothing past the residual that refutes it."""
    prefix = []
    for label, e in pairs:
        prefix.append((label, e))
        if not e.is_zero:
            break
    return prefix


def conclude(rid, claim, seed, errata):
    """The result row for one claim, the only place a verdict is made.

    A plain claim passes when every residual is zero.  A claim that
    carries a correction asserts both directions: the displayed reading
    must fail and the corrected reading must pass, and only an entry of
    errata for this row id upgrades that situation from fail to
    erratum.  A failing row quotes only its first nonzero residual: a
    plain claim's pairs and a corrected reading's pairs are read through
    refuting_prefix, and the order cap is checked on that prefix only,
    while a claim whose corrected reading passes quotes every nonzero
    displayed pair.  A failing row notes its numeric confirmation,
    seeded from the run seed and the row id."""
    citation, pairs, decided_by, notes, corrected = claim
    notes = list(notes)
    read = refuting_prefix(pairs if corrected is None else corrected)
    guard_orders(read, rid)
    corrected_fails = False
    if corrected is not None:
        corrected_fails = bool(read) and not read[-1][1].is_zero
        if corrected_fails:
            notes.append("the corrected reading fails as well")
        else:
            read = pairs
            guard_orders(read, rid)
    shown = [(label, e) for label, e in read if not e.is_zero]
    if corrected is not None and not corrected_fails and not shown:
        notes.append("the reading as displayed already passes; no "
                     "ledger entry is needed")
    if not shown:
        return CheckResult(rid, PASS, decided_by, (), citation, notes)
    notes.append(numeric_confirmation(
        random.Random("%d:%s:numeric" % (seed, rid)),
        [e for _label, e in shown]))
    status, erratum_id = FAIL, None
    if corrected is not None and not corrected_fails:
        entry = next((ent for ent in errata.values() if ent.check_id == rid),
                     None)
        if entry is None:
            notes.append("a corrected reading passes, but no erratum entry "
                         "for this check was applied")
        else:
            status, erratum_id = ERRATUM, entry.ident
            notes.append("as displayed the claim fails; corrected per "
                         "erratum %s it passes exactly" % entry.ident)
    return CheckResult(rid, status, decided_by, summarize(shown), citation,
                       notes, erratum_id)


def op_coeff_pairs(label, op, rules=None):
    """One residual pair per coefficient of a local operator, in order,
    each reduced by the rules when given."""
    pairs = []
    for k in sorted(op.coeffs):
        c = op.coeffs[k]
        red = rules.reduce(c) if rules is not None else c
        pairs.append(("%s, coefficient of order %d" % (label, k), red))
    return pairs


def to_y(e):
    """An x-ring expression rewritten over the transported ring.

    The new independent variable integrates the conserved density, so
    derivatives transport through D_x = u * D_y."""
    Y = _catalog.RING_Y
    return substitute(e, {}, target_ring=Y, jacobian=Y.coord("u"))


def usdef_rules(C):
    """The definitions of (i, j) through (u, s), oriented as rewrite
    rules."""
    defs = C.get("usdefs")
    return (RelationSet(_catalog.RING_Y)
            .with_rule("i", 0, defs["i"])
            .with_rule("j", 0, defs["j"]))


def mn_rules(C):
    """The scalar coefficients (m, n) through the quadratic
    substitution in (i, j), oriented as rewrite rules."""
    return (RelationSet(_catalog.RING_Y)
            .with_rule("m", 0, C.get("miura.m"))
            .with_rule("n", 0, C.get("miura.n")))


def aux_hygiene_notes(names, left_exprs, right_exprs):
    """Report auxiliary dependents, of the allocated names, referenced
    by only one side."""
    def used(exprs):
        deps = {d for e in exprs for d, _k in coords_of(e)}
        return {name for name in names if name in deps}

    orphans = sorted(used(left_exprs) ^ used(right_exprs))
    if orphans:
        return ["orphan auxiliaries referenced by one side only: %s"
                % ", ".join(orphans)]
    return []
