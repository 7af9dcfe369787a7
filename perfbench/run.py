"""Benchmark of the jetverify suite: time to a verdict and mutation-sweep
throughput, with a separate traced run that splits the time by layer.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from the
checkout's ``src``.  ``README.md`` describes the workloads and metrics.
A run repeats whole passes over the workload's inputs until
``--seconds`` have elapsed, after untimed warm-up items, and checks
every output against the hand-written answers in ``expected.py``.  It
prints one line per metric, then, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` declares: the ``end_to_end`` ones with ``--trace 0``
and the ``per_layer`` ones with ``--trace 1``.

With ``--trace 1`` it runs one pass untraced, the same pass traced and
again untraced; it reports each layer's calls and times from the traced
pass, and the tracing overhead.  The spans are written to
``perfbench/out/<workload>.spans``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# fresh processes timed for setup_s, after one untimed process that may
# compile bytecode; each times its import, then probes the host's speed
SETUP_SAMPLES = 9
SETUP_PROBE = """
import time
started = time.perf_counter()
import jetverify.verify.suite
from jetverify.verify import load_ledger
load_ledger()
elapsed = time.perf_counter() - started
import jetverify
import probe
probe.probe_seconds()
speed = sum(probe.probe_seconds() for _ in range(10)) / 10
print(jetverify.__file__)
print(repr(elapsed), repr(speed))
"""

# span names reported per layer; the checks come from the registry
LAYER_SPANS = (
    "opcalc.resolve_dinv", "opcalc.resolve_inv", "opcalc.pseudo_compose",
    "opcalc.pseudo_apply", "opcalc.local_apply", "opcalc.matrix_apply",
    "opcalc.adjoint",
    "jetalg.expr_mul", "jetalg.expr_add", "jetalg.expr_pow",
    "jetalg.total_derivative", "jetalg.partial_derivative",
    "jetalg.euler_derivative", "jetalg.substitute", "jetalg.reduce",
    "jetalg.antiderivative", "jetalg.random_eval",
    "catalog.entry", "catalog.with_mutation",
)
ENTRY_SPANS = ("verify.run_suite", "verify.run_mutated")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_workloads():
    """The workloads module, over the package in the checkout's sources."""
    if not (SRC / "jetverify" / "__init__.py").is_file():
        raise SystemExit("no jetverify sources under %s; run the benchmark "
                         "from a checkout of the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import jetverify
    if SRC not in Path(jetverify.__file__).resolve().parents:
        raise SystemExit("imported jetverify from %s, not from %s"
                         % (jetverify.__file__, SRC))
    import workloads
    return workloads


def setup_seconds():
    """Import-and-ledger seconds of fresh processes at nominal speed, and
    the same in wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        where, elapsed, speed = done.stdout.split()
        if SRC not in Path(where).resolve().parents:
            raise SystemExit("setup probe imported jetverify from %s" % where)
        wall.append(float(elapsed))
        scaled.append(float(elapsed) * probe.NOMINAL_S / float(speed))
    return scaled[1:], wall[1:]


def wall_seconds(start, end):
    return end - start


def failure_lines(verdicts):
    attempted = len(verdicts)
    survivors = {}
    for v in verdicts:
        if v.survivor is not None:
            survivors[v.survivor] = survivors.get(v.survivor, 0) + 1
    lines = [
        "wrong_rows %d rows, over %d decisions"
        % (sum(v.wrong_rows for v in verdicts), attempted),
        "aborted %d undecidable rows, in %d of %d decisions"
        % (sum(v.aborted for v in verdicts),
           sum(1 for v in verdicts if v.aborted), attempted),
        "survivors %d of %d decisions" % (sum(survivors.values()),
                                         attempted),
    ]
    for (check, ident, slot), count in sorted(survivors.items()):
        lines.append("  survivor %s %s[%d] stayed green %d times"
                     % (check, ident, slot, count))
    notes = sorted({v.note for v in verdicts if v.note})
    lines.extend("  incorrect: %s" % note for note in notes)
    return lines


def median(seconds):
    return statistics.median(seconds)


def p90(seconds):
    return statistics.quantiles(seconds, n=10)[8]


def rate(seconds):
    return len(seconds) / sum(seconds)


def end_to_end_metrics(workload, results, scale, setup):
    """{name: (value, unit, detail)} for one untraced run.

    Times are at the probe's nominal speed; each detail also gives the
    figure in wall time."""
    rows = []

    def add(name, unit, figure, detail):
        rows.append((name, unit, figure(scale), figure(wall_seconds), detail))

    setup_scaled, setup_wall = setup
    rows.append(("setup_s", "s", median(setup_scaled), median(setup_wall),
                 "median of %d fresh processes" % len(setup_scaled)))
    items = results.item_seconds
    mutants = results.decision_seconds
    n = results.items
    add("item_s.p50", "s", lambda t: median(items(t)),
        "median of %d items" % n)
    add("items_per_s", "1/s", lambda t: rate(items(t)), "%d items" % n)
    if workload == "suite":
        add("verdict_s", "s", lambda t: median(items(t)),
            "median of %d suite runs" % n)
    else:
        count = len(results.decisions)
        add("mutants_per_s", "1/s", lambda t: rate(mutants(t)),
            "%d mutants" % count)
    if workload == "sweep_light":
        add("mutant_ms.p50", "ms", lambda t: median(mutants(t)) * 1e3,
            "median of %d mutants" % count)
        add("mutant_ms.p90", "ms", lambda t: p90(mutants(t)) * 1e3,
            "%d mutants" % count)
    if workload == "sweep_heavy":
        for check in ("theorem1", "appendix_a"):
            add("mutant_s." + check, "s",
                lambda t, check=check: median(mutants(t, check)),
                "median of %d mutants" % (count // 2))
    metrics = {name: (value, unit, "%s; wall %.6g %s" % (detail, wall, unit))
               for name, unit, value, wall, detail in rows}
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
        "this process")
    return metrics


def layer_metrics(totals, checks, aux_allocated, untraced_s, traced_s):
    """{name: (value, unit, detail)} from one traced pass."""
    checks = tuple("verify." + name for name in checks)
    # each workload runs other checks and another entry point, so the
    # verify layer also gets sums that are measured on every workload
    groups = {"verify.checks": checks, "verify.entry": ENTRY_SPANS}
    metrics = {}
    for span in LAYER_SPANS + checks + ENTRY_SPANS + tuple(groups):
        members = groups.get(span, (span,))
        calls, own, total = (sum(totals.get(m, (0, 0.0, 0.0))[j]
                                 for m in members) for j in range(3))
        metrics[span + ".calls"] = (calls, "count", "")
        metrics[span + ".self_s"] = (own, "s", "")
        if span.startswith("verify."):
            metrics[span + ".total_s"] = (total, "s", "")
    dinv_calls = metrics["opcalc.resolve_dinv.calls"][0]
    metrics["opcalc.aux_alloc_ratio"] = (
        aux_allocated / dinv_calls if dinv_calls else 0.0, "ratio",
        "%d auxiliaries over %d resolve_dinv calls"
        % (aux_allocated, dinv_calls))
    metrics["trace.overhead_ratio"] = (
        traced_s / untraced_s, "ratio",
        "traced pass %.3f s / mean untraced pass %.3f s, at nominal speed"
        % (traced_s, untraced_s))
    return metrics


def top_self_line(totals, count=6):
    own = sorted(((own, span) for span, (_calls, own, _total)
                  in totals.items()), reverse=True)
    return "largest self time: " + ", ".join(
        "%s %.3f s" % (span, seconds) for seconds, span in own[:count])


def run_untraced(wl, name, seed, seconds, problems):
    """Whole passes over the inputs until `seconds` have elapsed."""
    build_pass, warmup = wl.WORKLOADS[name]
    pass_items = build_pass(seed)
    setup = setup_seconds()
    wl.Results().run(pass_items[:warmup], seed)
    results = wl.Results()
    sampler = probe.SpeedSampler()
    problems.extend("traced binding %s" % b for b in spans.traced_bindings())
    with sampler:
        started = time.perf_counter()
        while True:
            results.run(pass_items, seed)
            if time.perf_counter() - started >= seconds:
                break
    problems.extend("traced binding %s" % b for b in spans.traced_bindings())
    metrics = end_to_end_metrics(name, results, sampler.scaled, setup)
    return results.verdicts, metrics, []


def run_traced(wl, name, seed, problems):
    """One traced pass between two untraced ones over the same items.

    The host-speed probe runs through all three passes, so both the
    overhead and the spans' times are at nominal speed."""
    build_pass, warmup = wl.WORKLOADS[name]
    pass_items = build_pass(seed)
    wl.Results().run(pass_items[:warmup], seed)
    before, traced, after = wl.Results(), wl.Results(), wl.Results()
    tracer = spans.Tracer()
    sampler = probe.SpeedSampler()
    with sampler:
        before.run(pass_items, seed)
        tracer.install()
        try:
            traced.run(pass_items, seed,
                       on_item=lambda k: setattr(tracer, "item_id", k))
        finally:
            tracer.uninstall()
        after.run(pass_items, seed)
    problems.extend("binding left traced: %s" % b
                    for b in spans.traced_bindings())
    if any((a.survivor, a.wrong_rows, a.aborted)
           != (b.survivor, b.wrong_rows, b.aborted)
           for a, b in zip(before.verdicts, traced.verdicts)):
        problems.append("tracing changed a verdict")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / ("%s.spans" % name), probe_at=sampler.at,
                 probe_took=sampler.took)
    untraced_s = (sum(before.item_seconds(sampler.scaled))
                  + sum(after.item_seconds(sampler.scaled))) / 2
    totals = tracer.layer_totals(sampler.scaled)
    metrics = layer_metrics(totals, wl.suite.check_ids(),
                            tracer.aux_allocated, untraced_s,
                            sum(traced.item_seconds(sampler.scaled)))
    verdicts = before.verdicts + traced.verdicts + after.verdicts
    return verdicts, metrics, [top_self_line(totals)]


def main(argv=None):
    args = parse_args(argv)
    wl = import_workloads()
    if args.workload not in wl.WORKLOADS:
        raise SystemExit("unknown workload %r; choose from %s"
                         % (args.workload, ", ".join(wl.WORKLOADS)))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if args.trace:
        verdicts, metrics, lines = run_traced(wl, args.workload, args.seed,
                                              problems)
        wanted = declared["per_layer"]
    else:
        verdicts, metrics, lines = run_untraced(
            wl, args.workload, args.seed, args.seconds, problems)
        wanted = declared["end_to_end"]

    print("workload %s seed %d trace %d" % (args.workload, args.seed,
                                            args.trace))
    for name in sorted(metrics):
        value, unit, detail = metrics[name]
        print("%s %s %s%s" % (name, value, unit,
                              "  (%s)" % detail if detail else ""))
    for line in lines + failure_lines(verdicts):
        print(line)
    for problem in problems:
        print("incorrect: %s" % problem)

    out = {}
    for spec in wanted:
        value, unit, _detail = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise SystemExit("metric %s is in %s, BENCHMARK.json says %s"
                             % (spec["name"], unit, spec["unit"]))
        out[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": not problems and all(v.correct for v in verdicts),
        "attempted": len(verdicts),
        "failed": sum(1 for v in verdicts if v.failed),
        "metrics": out,
    }))


if __name__ == "__main__":
    main()
