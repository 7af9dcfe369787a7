"""Plumbing shared by the verification checks.

Each check re-derives one catalogued claim and reports a CheckResult.
The helpers here keep residual bookkeeping, numeric confirmation,
independent-variable transport, and auxiliary hygiene uniform across
the suite.
"""

import random

from ..jetalg import (
    EvalDivisionByZero, RelationSet, coords_of, max_order, params_of,
    random_assignment, random_eval, substitute, to_text,
)
from .. import catalog as _catalog

PASS = "pass"
FAIL = "fail"
ERRATUM = "erratum"
UNDECIDABLE = "undecidable"

NORMAL_FORM = "normal-form"
TEST_VECTOR = "test-vector"

SUMMARY_WIDTH = 320


class OrderCapExceeded(Exception):
    """A reduction ran past the configured derivative-order cap."""


class CheckResult:
    """One verification outcome; a plain value object."""

    __slots__ = ("id", "status", "decided_by", "residual_summary",
                 "time_ms", "citation", "notes", "erratum_id")

    def __init__(self, id, status, decided_by, residual_summary, time_ms,
                 citation, notes=(), erratum_id=None):
        self.id = id
        self.status = status
        self.decided_by = decided_by
        self.residual_summary = tuple(residual_summary)
        self.time_ms = time_ms
        self.citation = citation
        self.notes = tuple(notes)
        self.erratum_id = erratum_id
        if (status == PASS) != (not self.residual_summary):
            raise ValueError("pass status must coincide with an empty "
                             "residual summary")
        if status == ERRATUM and erratum_id is None:
            raise ValueError("erratum status needs a ledger reference")

    def with_time(self, ms):
        return CheckResult(self.id, self.status, self.decided_by,
                           self.residual_summary, ms, self.citation,
                           self.notes, self.erratum_id)

    def to_record(self):
        return {
            "id": self.id,
            "status": self.status,
            "decided_by": self.decided_by,
            "residual_summary": list(self.residual_summary),
            "time_ms": self.time_ms,
            "citation": self.citation,
            "notes": list(self.notes),
        }

    def __repr__(self):
        return "CheckResult(%r, %r)" % (self.id, self.status)


class CheckContext:
    """Configuration one suite run threads through every check."""

    def __init__(self, catalog=None, seed=0, max_order=12, errata=None):
        self.catalog = catalog if catalog is not None else _catalog.CATALOG
        self.seed = seed
        self.max_order = max_order
        self.errata = dict(errata) if errata else {}

    def rng(self, tag):
        # string seeding hashes through sha512, stable across runs
        return random.Random("%d:%s" % (self.seed, tag))

    def erratum_for(self, check_id):
        for ent in self.errata.values():
            if ent.check_id == check_id:
                return ent
        return None


def summarize(pairs):
    lines = []
    for label, e in pairs:
        text = to_text(e)
        if len(text) > SUMMARY_WIDTH:
            text = "%s... <%d terms>" % (text[:SUMMARY_WIDTH], len(e.terms))
        lines.append("%s: %s" % (label, text))
    return tuple(lines)


def numeric_confirmation(rng, exprs):
    """A note recording whether some nonzero residual also evaluates
    nonzero at a random rational point."""
    for e in exprs:
        for _ in range(30):
            try:
                a = random_assignment(rng, coords_of(e), params_of(e))
                value = random_eval(e, a)
            except EvalDivisionByZero:
                continue
            if value != 0:
                return ("numeric oracle confirms a nonzero residual at a "
                        "random rational point")
    return ("numeric oracle found no witness; the residual is nonzero "
            "only symbolically")


def guard_orders(ctx, pairs, where):
    for _label, e in pairs:
        if max_order(e) > ctx.max_order:
            raise OrderCapExceeded(
                "%s reached derivative order %d beyond the cap %d"
                % (where, max_order(e), ctx.max_order))


def conclude(ctx, rid, citation, pairs, decided_by, notes=()):
    """Build the result row for a plain pass/fail comparison."""
    guard_orders(ctx, pairs, rid)
    nonzero = [(label, e) for label, e in pairs if not e.is_zero]
    notes = list(notes)
    if not nonzero:
        return CheckResult(rid, PASS, decided_by, (), 0, citation, notes)
    notes.append(numeric_confirmation(ctx.rng(rid + ":numeric"),
                                      [e for _l, e in nonzero]))
    return CheckResult(rid, FAIL, decided_by, summarize(nonzero), 0,
                       citation, notes)


def conclude_erratum(ctx, rid, citation, original_pairs, corrected_pairs,
                     decided_by, notes=()):
    """Build the result row for a claim that carries a correction.

    Both directions are asserted: the displayed reading must fail and
    the corrected reading must pass, and only a ledger entry for this
    check id upgrades that situation from fail to erratum."""
    guard_orders(ctx, pairs=original_pairs, where=rid)
    guard_orders(ctx, pairs=corrected_pairs, where=rid)
    orig = [(l, e) for l, e in original_pairs if not e.is_zero]
    corr = [(l, e) for l, e in corrected_pairs if not e.is_zero]
    notes = list(notes)
    if corr:
        notes.append("the corrected reading fails as well")
        notes.append(numeric_confirmation(ctx.rng(rid + ":numeric"),
                                          [e for _l, e in corr]))
        return CheckResult(rid, FAIL, decided_by, summarize(corr), 0,
                           citation, notes)
    if not orig:
        notes.append("the reading as displayed already passes; no ledger "
                     "entry is needed")
        return CheckResult(rid, PASS, decided_by, (), 0, citation, notes)
    notes.append(numeric_confirmation(ctx.rng(rid + ":numeric"),
                                      [e for _l, e in orig]))
    entry = ctx.erratum_for(rid)
    if entry is None:
        notes.append("a corrected reading passes, but no erratum entry "
                     "for this check was applied")
        return CheckResult(rid, FAIL, decided_by, summarize(orig), 0,
                           citation, notes)
    notes.append("as displayed the claim fails; corrected per erratum %s "
                 "it passes exactly" % entry.ident)
    return CheckResult(rid, ERRATUM, decided_by, summarize(orig), 0,
                       citation, notes, erratum_id=entry.ident)


def to_y(e):
    """An x-ring expression rewritten over the transported ring.

    The new independent variable integrates the conserved density, so
    derivatives transport through D_x = u * D_y."""
    Y = _catalog.RING_Y
    return substitute(e, {}, target_ring=Y, jacobian=Y.coord("u"))


def usdef_rules(C):
    """The definitions of (i, j) through (u, s), oriented as rewrite
    rules."""
    defs = dict(C.get("usdefs"))
    return (RelationSet(_catalog.RING_Y)
            .with_rule("i", 0, defs["i"])
            .with_rule("j", 0, defs["j"]))


def mn_rules(C):
    """The scalar coefficients (m, n) through the quadratic
    substitution in (i, j), oriented as rewrite rules."""
    return (RelationSet(_catalog.RING_Y)
            .with_rule("m", 0, C.get("miura.m"))
            .with_rule("n", 0, C.get("miura.n")))


def aux_hygiene_notes(store, left_exprs, right_exprs):
    """Report auxiliary dependents referenced by only one side."""
    left = set(store.used_names(list(left_exprs)))
    right = set(store.used_names(list(right_exprs)))
    orphans = sorted(left ^ right)
    if orphans:
        return ["orphan auxiliaries referenced by one side only: %s"
                % ", ".join(orphans)]
    return []
