"""Check registry, suite runner, and mutation harness.

Every published check is a pure function of the catalog and the run
configuration, so execution order never changes a row; the registry
order below is topological (conjugation checks precede the transformed
Hamiltonian pair that builds on them) and doubles as the report order.

The mutation harness backs the sensitivity invariant: each check
declares the catalog entries it reads, optionally restricted to named
structural parts, and corrupting any single coefficient slot inside
that read surface must flip the check off green.

Each check yields its rows in report order.  run_suite collects every
row; run_mutated stops a check after its first row that is neither a
pass nor an erratum, so its rows are a prefix of the run_suite rows
(see run_mutated for the one exception).  Either way, an exception
part-way through a check discards the rows before it and reports one
undecidable row.
"""

import random
import time

from .. import catalog as _catalog
from .base import (
    CheckContext,
    CheckResult,
    ERRATUM,
    NORMAL_FORM,
    PASS,
    UNDECIDABLE,
)
from .errata import load_ledger
from . import appendixes as _appendixes
from . import flows as _flows
from . import hamops as _hamops
from . import scalar as _scalar
from . import theorem as _theorem

__all__ = [
    "CheckSpec",
    "CHECKS",
    "check_ids",
    "describe",
    "resolve_selection",
    "run_suite",
    "all_clear",
    "mutation_slots",
    "sample_mutations",
    "run_mutated",
]


class CheckSpec:
    """Registry record for one published check."""

    __slots__ = ("name", "runner", "citation_ident", "claim", "strategy",
                 "reads", "depends")

    def __init__(self, name, runner, citation_ident, claim, strategy,
                 reads, depends=()):
        self.name = name
        self.runner = runner
        self.citation_ident = citation_ident
        self.claim = claim
        self.strategy = strategy
        # reads: tuple of (catalog ident, part labels or None for all);
        # this is the surface the mutation harness samples from
        self.reads = tuple(reads)
        self.depends = tuple(depends)


CHECKS = (
    CheckSpec(
        "zc_main", _flows.zc_main, "lax.main",
        "The matrix spectral pair of the coupled momentum system "
        "satisfies the zero-curvature identity on solutions.",
        "Expand the curvature U_t - V_x + [U, V] entrywise over the "
        "evolution rules, split every entry by spectral-parameter "
        "power, and reduce each coefficient to normal form modulo the "
        "momentum constraints.",
        (("lax.main", None), ("sys.main", None))),
    CheckSpec(
        "zc_trans", _flows.zc_trans, "lax.trans",
        "The transformed matrix pair satisfies zero curvature on the "
        "transformed negative flow.",
        "Same curvature expansion as the untransformed pair, over the "
        "transformed ring and flow rules.",
        (("lax.trans", None), ("sys.mdflow", None))),
    CheckSpec(
        "conservation", _flows.conservation, "recip.main",
        "The quarter-power momentum density obeys a local conservation "
        "law under both catalogued evolutions.",
        "Verify the cleared product form of the identity: the fourth "
        "power of the density evolves as required by the stated flux, "
        "which keeps all arithmetic Laurent-polynomial.",
        (("recip.main", None), ("sys.main", ("evolution",)),
         ("recip.appb", None), ("sys.appb", ("evolution",)))),
    CheckSpec(
        "reciprocal", _flows.reciprocal, "ymap",
        "The change of independent variable built from the conserved "
        "density carries the momentum system onto the transformed "
        "coordinates, their mixed flows, and the negative-flow display.",
        "Transport each defining expression and each time derivative "
        "through the density jacobian, reduce modulo the coordinate "
        "definitions, and compare with the catalogued transformed "
        "system; the displayed power of one coordinate needs a ledgered "
        "correction.",
        (("sys.main", None), ("recip.main", None),
         ("ymap", ("Q1", "Q2")), ("usdefs", None),
         ("flow.intermediate", None), ("fg", None),
         ("sys.mdflow", ("evolution",)), ("sys.appb", None),
         ("recip.appb", None), ("sys.appb.trans", ("evolution",)))),
    CheckSpec(
        "scalar_reduction", _scalar.scalar_reduction, "reduction2",
        "The four-component spatial problem collapses to two "
        "second-order scalar relations and one fourth-order equation "
        "after the density gauge.",
        "Rebuild the first-order system over the transformed variable, "
        "apply the square-root gauge through its squared defining "
        "relation, eliminate one component, and compare the surviving "
        "equations against the catalogued forms.",
        (("lax.main", ("space",)), ("recip.main", ("substitutions",)),
         ("reduction2", None), ("scalar4", None), ("scalar.mn", None),
         ("usdefs", None))),
    CheckSpec(
        "factorizations", _scalar.factorizations, "L4",
        "The fourth-order scalar operator factors through the "
        "catalogued quadratic and linear chains.",
        "Compose the stored factors symbolically and subtract the "
        "fourth-order operator, reducing coefficients modulo the "
        "quadratic-map relations; the first-order chain is checked "
        "through the stated substitution pair.",
        (("miura.m", None), ("miura.n", None), ("factor2.left", None),
         ("factor2.right", None), ("L4", None), ("factor1.1", None),
         ("factor1.2", None), ("factor1.3", None), ("factor1.4", None),
         ("ab1", None), ("usdefs", None))),
    CheckSpec(
        "connecting_identity", _scalar.connecting_identity, "Grecipe",
        "The two-component recipe assembled from the first-order "
        "factors agrees with the catalogued matrix operator.",
        "Apply both operators to a generic vector with a shared "
        "integral store and compare images; repeat on constants to pin "
        "the integration-constant convention.",
        (("Grecipe", None), ("Jop", None))),
    CheckSpec(
        "prop1", _hamops.prop1, "Theta1",
        "Weighted conjugation of the third-order kernel operator by "
        "the first displayed unit reproduces the first catalogued "
        "conjugate pair.",
        "Transport the kernel operator through the density change of "
        "variable, conjugate by the unit and its reciprocal, and "
        "compare coefficients in normal form.",
        (("E", None), ("Theta1", None), ("Theta1.conj", None))),
    CheckSpec(
        "prop2", _hamops.prop2, "Theta2",
        "Weighted conjugation by the second displayed unit reproduces "
        "the second catalogued operator.",
        "Same transported conjugation route as the first pair.",
        (("E", None), ("Theta2", None))),
    CheckSpec(
        "bihamiltonian_x", _hamops.bihamiltonian_x, "J1",
        "Both catalogued functionals generate the momentum flow "
        "through their Hamiltonian operators.",
        "Take variational derivatives of each density, apply the "
        "matching operator with a shared integral store, and compare "
        "against the stated evolution; nonvacuity of the second "
        "density is confirmed by its nonzero variational derivative.",
        (("sys.main", None), ("E", None), ("H0", None), ("H1", None),
         ("J1", None))),
    CheckSpec(
        "theorem1", _theorem.theorem1, "Jt2",
        "The transformed Hamiltonian pair factors through the displayed "
        "block matrices; one displayed pairing carries a ledgered "
        "correction.",
        "Derive the forward and inverse jacobian blocks of the "
        "coordinate change, transport both Hamiltonian operators, and "
        "compare with the displayed factorizations on generic vectors; "
        "the second transformed operator must match exactly.",
        (("J1", None), ("J2", None), ("T1", None), ("T2", None),
         ("Jt2", None), ("Lambda", None), ("Jt1.middle", None),
         ("ymap", ("Q1", "Q2"))),
        depends=("prop1", "prop2")),
    CheckSpec(
        "appendix_a", _appendixes.appendix_a, "krel.display",
        "The formal time-block ansatz reproduces the displayed "
        "relation set, the flow pair, the substituted display, the "
        "balance identities, the linearization matrix, and the "
        "recursion link; a final conjugation scan is reported as "
        "information.",
        "Expand the formal zero-curvature equation, eliminate the "
        "unknown blocks, express each displayed relation as an exact "
        "combination of curvature entries, then verify the substituted "
        "flow, the operator recipes, and an inverse-free recursion "
        "certificate on a generic test vector.",
        (("lax.formal.space", None), ("kzc.atau", None),
         ("kzc.btau", None), ("krel.display", None),
         ("krel.rules", ("Y11", "X12", "X21")), ("fir.local", None),
         ("subk", None), ("S1op", None), ("S2op", None),
         ("Grecipe", None), ("Jop", None), ("Kmat", None), ("F12", None),
         ("sys.mdflow", ("evolution",)), ("OmegaPrime", None),
         ("miura.m", None), ("miura.n", None), ("Thetamat", None),
         ("P1", None), ("P2", None))),
    CheckSpec(
        "appendix_b", _appendixes.appendix_b, "sys.appb",
        "The auxiliary one-component system passes curvature, "
        "conservation, and reciprocal-transformation checks onto its "
        "transformed form.",
        "Reuse the curvature, conservation, and system-map drivers on "
        "the auxiliary catalog entries.",
        (("lax.appb", None), ("sys.appb", None), ("lax.appb.trans", None),
         ("sys.appb.trans", None), ("recip.appb", None),
         ("ymap", ("Q1", "Q2")))),
)

_BY_NAME = {spec.name: spec for spec in CHECKS}


def check_ids():
    """Published check identifiers in report order."""
    return tuple(spec.name for spec in CHECKS)


def describe(name):
    """Claim, citation, and strategy of one published check."""
    spec = _BY_NAME[name]
    return {
        "id": spec.name,
        "claim": spec.claim,
        "citation": _catalog.citation(spec.citation_ident),
        "strategy": spec.strategy,
        "depends": list(spec.depends),
        "reads": [ident for ident, _parts in spec.reads],
    }


def resolve_selection(selection=None):
    """Selection expanded by dependencies, in registry order.

    Unknown identifiers raise KeyError before any check runs."""
    if selection is None or selection == "all":
        return check_ids()
    wanted = set()
    queue = list(selection)
    for name in queue:
        if name not in _BY_NAME:
            raise KeyError("unknown check id %r" % (name,))
    while queue:
        name = queue.pop()
        if name in wanted:
            continue
        wanted.add(name)
        queue.extend(_BY_NAME[name].depends)
    return tuple(name for name in check_ids() if name in wanted)


def _aborted_row(spec, exc):
    return CheckResult(
        spec.name, UNDECIDABLE, NORMAL_FORM,
        ("aborted before any comparison concluded",), 0,
        _catalog.citation(spec.citation_ident),
        notes=("%s: %s" % (type(exc).__name__, exc),))


def _run_check(ctx, spec, stop_off_green):
    """The rows one check yields; abnormal termination becomes a row.

    Reductions over a corrupted catalog may legitimately throw (a
    perturbed relation can stop being solvable), so the harness maps
    any exception to a single undecidable row instead of propagating,
    discarding the rows yielded before it.  With stop_off_green the
    check stops after the first row that is neither a pass nor an
    erratum."""
    rows = []
    try:
        for row in spec.runner(ctx):
            rows.append(row)
            if stop_off_green and not all_clear((row,)):
                break
    except Exception as exc:
        return [_aborted_row(spec, exc)]
    return rows


def run_suite(selection=None, seed=0, max_order=12, timings=False,
              errata=None, catalog=None):
    """Run the selected checks and return their result rows.

    Deterministic for a fixed seed; when timings is set, every row of a
    check carries that check's wall-clock milliseconds (timings stay
    off by default so reports are byte-identical across runs).  errata
    defaults to the packaged ledger; pass an empty dict to run with no
    corrections applied."""
    names = resolve_selection(selection)
    if errata is None:
        errata = load_ledger()
    ctx = CheckContext(catalog=catalog, seed=seed, max_order=max_order,
                       errata=errata)
    rows = []
    for name in names:
        spec = _BY_NAME[name]
        started = time.perf_counter()
        out = _run_check(ctx, spec, stop_off_green=False)
        elapsed = int(round((time.perf_counter() - started) * 1000))
        if timings:
            out = [row.with_time(elapsed) for row in out]
        rows.extend(out)
    seen = set()
    for row in rows:
        if row.id in seen:
            raise ValueError("duplicate result id %r" % (row.id,))
        seen.add(row.id)
    return rows


def all_clear(rows):
    """True when every row is a pass or a ledger-covered erratum."""
    return all(row.status in (PASS, ERRATUM) for row in rows)


# -- mutation harness ------------------------------------------------------

def mutation_slots(name, catalog=None):
    """Every (ident, slot) coefficient position the check reads.

    Part-restricted reads keep the surface honest: slots that only feed
    a recorded-as-information row, or only the displayed half of an
    erratum, are excluded because corrupting them cannot flip a green
    row."""
    C = catalog if catalog is not None else _catalog.CATALOG
    spec = _BY_NAME[name]
    out = []
    for ident, parts in spec.reads:
        ent = C.entry(ident)
        windows = _catalog.part_windows(ent)
        if parts is not None:
            labels = {label for label, _s, _e in windows}
            missing = [p for p in parts if p not in labels]
            if missing:
                raise ValueError("entry %r has no part %s"
                                 % (ident, ", ".join(missing)))
            windows = [w for w in windows if w[0] in parts]
        for _label, start, stop in windows:
            out.extend((ident, slot) for slot in range(start, stop))
    return tuple(out)


def sample_mutations(name, count=10, seed=0, catalog=None):
    """Deterministic sample of read slots for sensitivity testing."""
    slots = mutation_slots(name, catalog)
    if len(slots) <= count:
        return slots
    rng = random.Random("%d:%s:mutation" % (seed, name))
    return tuple(rng.sample(slots, count))


def run_mutated(name, ident, slot, seed=0, max_order=12, errata=None,
                catalog=None):
    """Rows of one check over a catalog with one perturbed coefficient,
    up to and including the first row that is not green.

    The mutation sweep only asks whether the check goes off green, and
    a later row cannot turn it green again, so the check stops there.
    Prefix contract: the rows are the rows run_suite reports for the
    same catalog, through the first one that is neither a pass nor an
    erratum; each row seeds its own numeric oracle and builds its own
    store, so it reads the same whether or not later rows run.  An
    exception before that row gives the single undecidable row
    run_suite reports too.  An exception after it is never reached
    here, while run_suite reports the single undecidable row; all_clear
    is false either way, so it agrees with run_suite on every mutant."""
    base = catalog if catalog is not None else _catalog.CATALOG
    view = base.with_mutation(ident, slot)
    if errata is None:
        errata = load_ledger()
    ctx = CheckContext(catalog=view, seed=seed, max_order=max_order,
                       errata=errata)
    return _run_check(ctx, _BY_NAME[name], stop_off_green=True)
