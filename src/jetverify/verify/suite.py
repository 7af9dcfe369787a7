"""Check registry, suite runner, and mutation harness.

Every published check is a pure function of the catalog, so execution
order never changes a row and any selection of checks runs on its own;
the registry order below is the report order.

The mutation harness backs the sensitivity invariant: each check
declares the catalog entries it reads, optionally restricted to named
structural parts, and corrupting any single coefficient slot inside
that read surface must flip the check off green.

Each check yields its rows in report order, each as (row id, derive,
compare), and fetches no catalog entry outside them.  derive() builds
the row's derived half and fetches only what the row derives;
compare(half) fetches what the row compares that half with and returns
a Claim, never a verdict.  The harness builds every row one way: it
concludes compare(C.derive(row id, derive)) into the row under the id
the runner yielded, with the run's seed and errata, so a row id is
written once and every verdict is made by base.conclude.  A row with
nothing to split derives its whole Claim and compares with base.whole.
run_suite builds every row; run_mutated stops a check after its first
row that is neither a pass nor an erratum, so its rows are a prefix of
the run_suite rows (see run_mutated for the one exception).  A failing
row quotes only its first nonzero residual, base.conclude's one record
rule, which is the same in both runs.  In either run, an exception
part-way through a check discards the rows before it and reports one
undecidable row.

C.derive(key, build) is the one place a value is kept: the plain
catalog view keeps nothing and only builds, and every harness run goes
through one harness view, which builds each key once per check run,
serves it after that, and records as its reads every entry the build
fetched, the reads of the parts nested in it included.  The reads are
recorded, not declared, at the grain of an entry's labelled part: a
build that fetches the whole entry reads its ident, and one that
fetches only cell (i, j) of an operator matrix, through C.cell, reads
the pair (ident, "i,j"), the cell's label in the catalog's kind walk.
Each concluded row is a part, keyed (row id,), and its half is the part
keyed by its row id.  Setup that reads fewer entries or cells than a
row deriving it is a part under its own key, nested in the halves that
use it: theorem1's Transport parts, shared by rows with different
reads, each 2x2 matrix of them built cell by cell, and among them
D1 J2 D2 ("d1_j2_d2"), which reads J2 but not Jt1.middle; the image
-T1 J1 T2 v of each basis vector ("theorem1.jt2 first image" and
"theorem1.jt2 second image"), which reads no cell of Jt2, and which
theorem1.jt2 builds only up to its first refuting residual;
appendix_a's formal curvature ("formal") and the span of its twelve
expressions that appendix_a.relations solves in ("formal.span"), which
reads no krel.* entry; the flat part -V_x + [U, V] of each
zero-curvature row's pair, keyed by the pair ident and ".flat", which
reads the pair but not the flow; bihamiltonian_x.nonlocal's constrained
gradient of H1 ("H1.gradient"), which reads neither E nor J1; and the
pair row's half, nested in scalar_reduction.fourth's.  describe lists
the parts each row derived, with their reads.

One reuse rule, at part grain: run_mutated hands a mutant every part of
the check's unmutated run whose reads hold neither the mutated entry
nor the pair (mutated entry, label of the cell holding the slot), rows
included.  It holds by construction: over the mutated catalog a build
runs exactly as over the packaged one until it first fetches the
mutated entry or the mutated cell, since every other cell of the mutant
is the packaged one, so a part whose recorded build fetched neither has
the same value.  So a row that reads nothing a mutant touches keeps its
byte-identical record, and a mutant of an entry that a row only
compares with is handed the row's half and only compares; describe
lists those entries as the row's compares, and a row's reads and
compares name entries only, a cell read standing for its entry.  A half
that reads everything its row reads is never served: a mutant of one of
its reads rebuilds the row.  Where a comparison is reduced, the half and
the compared entry are reduced apart, which gives the same normal form,
since reduction is linear; only a term that reduction rejects (a
negative power of a dependent whose rule is not a monomial) and that
the difference cancels could raise apart, and no mutant of the full
sweep meets one.

The reuse premise, on which the rule rests: shared values are C.derive
parts, built once per check run by the harness view.  A runner keeps no
other state across rows, so a part is the same value whichever row
builds it, and a row's record does not depend on which rows were built
before it.  A part served to later rows and handed from the unmutated
run to many mutants is immutable to them: it holds only tuples, jet
expressions, operators, relation sets, names, booleans, Claims, rows,
functions of those and the Echelon of formal.span, which solve without
insert leaves as it is, and no reader changes it; the harness times a
copy of each row.  The one state that does change is the Rule._jets
derivative memos of the relation sets it holds (the usdefs rules behind
smap, the formal curvature's flow rules, the relations of a store),
which grow but only cache total derivatives of fixed rules.  No part
holds a NonlocalStore: a reader resolving through a shared store would
allocate auxiliaries that the next mutant would see."""

import copy
import functools
import random
import time

from .. import catalog as _catalog
from .base import (
    CheckResult,
    ERRATUM,
    NORMAL_FORM,
    PASS,
    UNDECIDABLE,
    conclude,
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
    """Registry record for one published check.

    The runner takes a catalog view and yields (row id, derive,
    compare) in report order: derive() builds the row's derived half
    and compare(half) returns its Claim, which the harness concludes
    into the row.  It fetches no catalog entry outside derive and
    compare (every harness run raises if it does), and it keeps the
    reuse premise of the module docstring: every value it shares between
    rows is a C.derive part, which the harness builds once per check run
    and records with its reads, so one pass of the runner records every
    part a mutant may be handed, each row included."""

    __slots__ = ("name", "runner", "citation_ident", "claim", "strategy",
                 "reads")

    def __init__(self, name, runner, citation_ident, claim, strategy,
                 reads):
        self.name = name
        self.runner = runner
        self.citation_ident = citation_ident
        self.claim = claim
        self.strategy = strategy
        # reads: tuple of (catalog ident, part labels or None for all);
        # this is the surface the mutation harness samples from
        self.reads = tuple(reads)


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
         ("ymap", ("Q1", "Q2")))),
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
    """Claim, citation, strategy and catalog reads of one published
    check, with each row's id, every entry its build fetched, through
    served parts included, a cell read standing for its entry, and of
    those the entries its derived half did not fetch, whose mutants only
    compare, and the shared parts the row derived, each with its reads,
    a cell read as (entry, cell label), which a mutant of an entry or a
    cell outside them is handed."""
    spec = _BY_NAME[name]
    view = _unmutated(name, 0)
    parts = view.parts
    return {
        "id": spec.name,
        "claim": spec.claim,
        "citation": _catalog.CATALOG.citation(spec.citation_ident),
        "strategy": spec.strategy,
        "reads": [ident for ident, _parts in spec.reads],
        "rows": [{"id": rid, "reads": _entries(reads),
                  "compares": [i for i in _entries(reads)
                               if i not in _entries(parts[rid][1])],
                  "parts": {key: list(parts[key][1]) for key in nested
                            if key != rid}}
                 for rid, (_row, reads, nested) in view.rows().items()],
    }


def resolve_selection(selection=None):
    """The selected checks in registry order.

    A selection is None for every check, one check id, or an iterable
    of ids, read once.  Unknown identifiers raise KeyError before any
    check runs."""
    if selection is None:
        return check_ids()
    selection = ((selection,) if isinstance(selection, str)
                 else tuple(selection))
    for name in selection:
        if name not in _BY_NAME:
            raise KeyError("unknown check id %r" % (name,))
    return tuple(name for name in check_ids() if name in selection)


def _aborted_row(spec, exc):
    return CheckResult(
        spec.name, UNDECIDABLE, NORMAL_FORM,
        ("aborted before any comparison concluded",),
        _catalog.CATALOG.citation(spec.citation_ident),
        notes=("%s: %s" % (type(exc).__name__, exc),))


def _concluded(C, rid, derive, compare, seed, errata):
    """The row (rid, derive, compare) a runner yielded, concluded over
    the catalog view C with seed and errata: the row is the part of C
    keyed (rid,), its derived half the part keyed by the row id, and
    compare makes the Claim."""
    return C.derive((rid,), lambda: conclude(
        rid, compare(C.derive(rid, derive)), seed, errata))


def _run_check(C, spec, seed, errata, stop=False):
    """The rows one check yields over the catalog view C, each
    concluded with seed and errata; abnormal termination becomes a
    row.

    Reductions over a corrupted catalog may legitimately throw (a
    perturbed relation can stop being solvable), so the harness maps
    any exception to a single undecidable row instead of propagating,
    discarding the rows yielded before it.  With stop, the check stops
    after the first row that is neither a pass nor an erratum.  Each
    row is a copy of the concluded one, which a served row shares with
    every run handed it, and its elapsed_ms is the time from the check's
    start or its previous row to that row."""
    rows = []
    started = time.perf_counter()
    try:
        for rid, derive, compare in spec.runner(C):
            row = copy.copy(_concluded(C, rid, derive, compare, seed, errata))
            row.elapsed_ms = (time.perf_counter() - started) * 1000
            rows.append(row)
            if stop and not all_clear((row,)):
                break
            started = time.perf_counter()
    except Exception as exc:
        row = _aborted_row(spec, exc)
        row.elapsed_ms = (time.perf_counter() - started) * 1000
        return [row]
    return rows


def run_suite(selection=None, seed=0, errata=None, catalog=None):
    """Run the selected checks and return their result rows.

    Deterministic for a fixed seed, so reports are byte-identical
    across runs.  catalog defaults to the packaged catalog and errata to
    the packaged ledger; pass an empty dict to run with no corrections
    applied."""
    names = resolve_selection(selection)
    if errata is None:
        errata = load_ledger()
    if catalog is None:
        catalog = _catalog.CATALOG
    rows = []
    for name in names:
        rows.extend(_run_check(_HarnessView(catalog), _BY_NAME[name], seed,
                               errata))
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

def mutation_slots(name):
    """Every (ident, slot) coefficient position the check reads.

    Part-restricted reads keep the surface honest: slots that only feed
    a recorded-as-information row, or only the displayed half of an
    erratum, are excluded because corrupting them cannot flip a green
    row."""
    spec = _BY_NAME[name]
    out = []
    for ident, parts in spec.reads:
        ent = _catalog.CATALOG.entry(ident)
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


def sample_mutations(name, count=10):
    """Deterministic sample of read slots for sensitivity testing."""
    slots = mutation_slots(name)
    if len(slots) <= count:
        return slots
    rng = random.Random("0:%s:mutation" % (name,))
    return tuple(rng.sample(slots, count))


class _HarnessView:
    """The catalog view of every harness run: it reads its entries from
    base, recording in first-fetch order every entry fetched while reads
    is a dict, as its ident, or as (ident, cell label) when cell fetched
    one cell of it, and a fetch while reads is None, outside a row
    build, raises.  It offers only get, citation, cell and derive, so no
    view reads past it.

    parts maps each part key to (value, reads, nested): it serves the
    parts it was handed, and builds every other part once and keeps it.
    The entries and cells a build fetched, the reads of the parts nested
    in it included, are the part's reads, and each time the part is
    derived, built or served, they join the reads of the part around it,
    in first-fetch order; its key, then the keys nested in its build,
    join derived the same way.  A build that raises keeps no part and
    leaves reads and derived as they were around it.  A concluded row is
    the part keyed (row id,), the one part derived outside a build.
    windows maps each entry some part reads by cell to its part_windows,
    which served reads to find the cell of a slot."""

    def __init__(self, base, parts=None):
        self.base = base
        self.parts = {} if parts is None else parts
        self.reads = self.derived = None
        self.windows = {}

    def _fetch(self, ident, read):
        if self.reads is None:
            raise RuntimeError("catalog entry %r fetched outside a row build"
                               % (ident,))
        self.reads[read] = None
        return self.base.entry(ident)

    def entry(self, ident):
        return self._fetch(ident, ident)

    def get(self, ident):
        return self.entry(ident).value

    def citation(self, ident):
        return self.entry(ident).citation

    def cell(self, ident, row, col):
        return self._fetch(ident, (ident, _catalog.cell_label(row, col))
                           ).value.grid[row][col]

    def derive(self, key, build):
        outer, derived = self.reads, self.derived
        if outer is None and not isinstance(key, tuple):
            raise RuntimeError("part %r derived outside a row build"
                               % (key,))
        if key not in self.parts:
            self.reads, self.derived = {}, {}
            try:
                value = build()
                self.parts[key] = (value, tuple(self.reads),
                                   tuple(self.derived))
            finally:
                self.reads, self.derived = outer, derived
        value, reads, nested = self.parts[key]
        if outer is not None:
            outer.update(dict.fromkeys(reads))
            derived[key] = None
            derived.update(dict.fromkeys(nested))
        return value

    def rows(self):
        """{row id: (row, reads, nested)} of every concluded row, in the
        order they were concluded."""
        return {key[0]: part for key, part in self.parts.items()
                if isinstance(key, tuple)}

    def served(self, ident, slot):
        """The parts whose reads hold neither the entry ident nor the
        cell of it that holds slot, which windows names for each entry
        some part reads by cell: the parts a mutant of that slot is
        handed."""
        cell = next(((ident, label) for label, start, stop
                     in self.windows.get(ident, ()) if start <= slot < stop),
                    None)
        return {key: part for key, part in self.parts.items()
                if ident not in part[1] and cell not in part[1]}


def _entries(reads):
    """The entries of recorded reads in first-read order, a cell read
    standing for its entry."""
    return list(dict.fromkeys(read if isinstance(read, str) else read[0]
                              for read in reads))


@functools.lru_cache(maxsize=None)
def _unmutated(name, seed):
    """The harness view of one check's run over the packaged catalog and
    ledger, built once per check and seed, the first time a mutant or
    describe needs it.

    One pass of the runner concludes every row, so the view holds each
    row and every part its build derived, its half first, with their
    reads and nested keys.  Under the reuse premise of the module
    docstring, these parts stand for the same parts of any later run, a
    row built alone included.  An exception part-way through the pass
    leaves the parts built before it; run_suite reports it as the
    check's one undecidable row, a fault on the packaged catalog.  The
    view's windows are computed here, once per entry that a part reads
    by cell."""
    view = _HarnessView(_catalog.CATALOG)
    _run_check(view, _BY_NAME[name], seed, load_ledger())
    for ident in {read[0] for _value, reads, _nested in view.parts.values()
                  for read in reads if not isinstance(read, str)}:
        view.windows[ident] = _catalog.part_windows(view.base.entry(ident))
    return view


def run_mutated(name, ident, slot, seed=0):
    """Rows of one check over a catalog with one perturbed coefficient,
    up to and including the first row that is not green.

    The mutation sweep only asks whether the check goes off green, and
    a later row cannot turn it green again, so the check stops there.
    The run is handed every part of the check's unmutated run at the
    same seed whose reads hold neither the mutated entry nor the cell
    of it that holds the slot, its rows included, and builds each other
    part once over the mutated catalog: the one reuse rule of the
    module docstring, at part grain.  The slot's cell comes from the
    windows the unmutated run keeps, so no mutant walks an entry to
    find it.  A check whose unmutated run raised hands only the parts
    built before the fault, so its mutant's run meets the same fault
    unless the mutation avoids it.

    Prefix contract: the rows are the rows run_suite reports for the
    same catalog, through the first one that is neither a pass nor an
    erratum; the harness seeds each row's numeric oracle from the row
    id, and under the reuse premise a row reads the same whether or
    not other rows run.  An exception before that row gives
    the single undecidable row run_suite reports too.  An exception
    after it is never reached here, while run_suite reports the single
    undecidable row; all_clear is false either way, so it agrees with
    run_suite on every mutant."""
    mutated = _catalog.CATALOG.with_mutation(ident, slot)
    view = _HarnessView(mutated, _unmutated(name, seed).served(ident, slot))
    return _run_check(view, _BY_NAME[name], seed, load_ledger(), stop=True)
