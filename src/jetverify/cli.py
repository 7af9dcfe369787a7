"""Command-line entry point: run the suite, describe a check, or sweep
its mutants.

    jetverify run [--checks ID ...] [--json | --timings]
    jetverify describe ID
    jetverify sweep [--check ID] [--sample N]

``run`` runs the checks named by ``--checks`` (all by default) and
prints one line per result row (status, id, how it was decided, and with
``--timings`` the milliseconds the row took, measured between the
check's yields) followed by the row's residual lines, or with ``--json``
the rows' records, which hold no timing, so the two flags exclude each
other; it exits 1 unless every row is a pass or a ledgered erratum.
``describe`` prints one check's claim, citation, strategy and catalog
reads as JSON, with each row's id, every entry that row's build fetched,
including through the shared parts it built or was served, of those
the entries its derived half did not fetch (``compares``), and the
shared parts it derived, each with its reads (``parts``), where a part
that fetched one cell of an operator matrix reads the pair [entry, cell
label].  These reads are recorded, not declared.  The sweep follows one
rule, at that grain, under the reuse premise stated in
``verify.suite``: a mutant is handed every row and every derived part
of the unmutated run whose reads hold neither the mutated entry nor the
cell holding the mutated slot, and rebuilds the rest, so a mutant of an
entry a row only compares with is handed the row's derived half and
only compares, and a mutant of one cell rebuilds only the parts that
read that cell or the whole entry.
``sweep`` corrupts, one at a time, every coefficient slot a check
reads (or a seeded sample of N of them) and prints, per check, the
number of mutants, how many turned the check off green, the seconds
taken (the check's unmutated run included) and the slowest mutant with
its seconds, then names every survivor; its last two lines are the
sha256 of every mutant's [row id, status] list and of every mutant's
row records, each mutant one canonical JSON line, in sweep order, so two
versions of the code can be shown to decide every mutant identically:
the first line pins the statuses alone, the second also what each row
quotes.  A failing row quotes only its first nonzero residual, and
theorem1.jt2 derives its second basis vector only when the first
leaves it green.  It exits 1 when a mutant survives.
"""

import argparse
import hashlib
import json
import sys
import time

from .verify import suite


def _positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive count, got %s"
                                         % text)
    return value


def _parser():
    parser = argparse.ArgumentParser(prog="jetverify",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the verification suite")
    run.add_argument("--checks", nargs="+", metavar="ID",
                     help="checks to run, in report order (default: all)")
    output = run.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true",
                        help="print the rows' records as JSON")
    output.add_argument("--timings", action="store_true",
                        help="print each row's wall time in ms (records "
                             "hold no timing)")
    describe = commands.add_parser("describe", help="describe one check")
    describe.add_argument("id", metavar="ID", help="the check to describe")
    sweep = commands.add_parser("sweep", help="run the mutation sweep")
    sweep.add_argument("--check", choices=suite.check_ids(), metavar="ID",
                       help="sweep one check (default: all)")
    sweep.add_argument("--sample", type=_positive, metavar="N",
                       help="a seeded sample of N slots per check "
                            "(default: every slot)")
    return parser


def _selection(parser, ids):
    try:
        return suite.resolve_selection(ids)
    except KeyError as exc:
        parser.error(exc.args[0])


def _run(parser, args):
    names = _selection(parser, args.checks)
    rows = suite.run_suite(selection=names)
    if args.json:
        print(json.dumps([row.to_record() for row in rows], indent=2))
    else:
        for row in rows:
            line = "%-11s %s (%s)" % (row.status, row.id, row.decided_by)
            if args.timings:
                line += " %.1f ms" % row.elapsed_ms
            print(line)
            for line in row.residual_summary:
                print("    " + line)
    return 0 if suite.all_clear(rows) else 1


def _describe(parser, args):
    _selection(parser, [args.id])
    print(json.dumps(suite.describe(args.id), indent=2))
    return 0


def _json_line(value):
    """value as canonical JSON, one line, encoded for a digest."""
    return (json.dumps(value, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def _sweep(args):
    checks = (args.check,) if args.check else suite.check_ids()
    mutants = off_green = 0
    survivors = []
    statuses, records = hashlib.sha256(), hashlib.sha256()
    for check in checks:
        if args.sample is None:
            slots = suite.mutation_slots(check)
        else:
            slots = suite.sample_mutations(check, args.sample)
        started = time.perf_counter()
        # describe builds the check's unmutated run, which every mutant
        # reuses, so the first mutant's time does not include it
        suite.describe(check)
        flipped = 0
        slowest = (-1.0, "", 0)
        for ident, slot in slots:
            begun = time.perf_counter()
            rows = suite.run_mutated(check, ident, slot)
            slowest = max(slowest, (time.perf_counter() - begun, ident, slot))
            statuses.update(_json_line([[row.id, row.status]
                                        for row in rows]))
            records.update(_json_line([row.to_record() for row in rows]))
            if suite.all_clear(rows):
                survivors.append((check, ident, slot))
            else:
                flipped += 1
        line = ("%-20s %4d mutants %4d off green %8.2f s"
                % (check, len(slots), flipped,
                   time.perf_counter() - started))
        if slots:
            line += " slowest %s[%d] %.3f s" % (slowest[1], slowest[2],
                                                 slowest[0])
        print(line, flush=True)
        mutants += len(slots)
        off_green += flipped
    print("%-20s %4d mutants %4d off green %d survivors"
          % ("total", mutants, off_green, len(survivors)))
    for survivor in survivors:
        print("survivor %s %s[%d]" % survivor)
    print("statuses sha256 %s" % statuses.hexdigest())
    print("records sha256 %s" % records.hexdigest())
    return 1 if survivors else 0


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(parser, args)
    if args.command == "describe":
        return _describe(parser, args)
    return _sweep(args)


if __name__ == "__main__":
    sys.exit(main())
