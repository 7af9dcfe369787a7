"""Command-line entry point: run the suite, describe a check, or sweep
its mutants.

    jetverify run [--checks ID ...] [--json]
    jetverify describe ID
    jetverify sweep [--check ID] [--sample N]

``run`` prints one line per result row (status, id, how it was
decided) followed by the row's residual lines, or with ``--json`` the
rows' records; it exits 1 unless every row is a pass or a ledgered
erratum.  ``describe`` prints one check's claim, citation, strategy,
dependencies and catalog reads as JSON.  ``sweep`` corrupts, one at a
time, every coefficient slot a check reads (or a seeded sample of N of
them) and prints, per check, the number of mutants, how many turned the
check off green and the seconds taken, then names every survivor; its
last line is the sha256 of every mutant's row records, in sweep order,
so two versions of the code can be shown to decide every mutant
identically.  It exits 1 when a mutant survives.
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
                     help="checks to run, with the checks they depend on "
                          "(default: all)")
    run.add_argument("--json", action="store_true",
                     help="print the rows' records as JSON")
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
            print("%-11s %s (%s)" % (row.status, row.id, row.decided_by))
            for line in row.residual_summary:
                print("    " + line)
    return 0 if suite.all_clear(rows) else 1


def _describe(parser, args):
    _selection(parser, [args.id])
    print(json.dumps(suite.describe(args.id), indent=2))
    return 0


def _records_line(rows):
    """One mutant's row records as canonical JSON, one line."""
    return json.dumps([row.to_record() for row in rows], sort_keys=True,
                      separators=(",", ":")) + "\n"


def _sweep(args):
    checks = (args.check,) if args.check else suite.check_ids()
    mutants = off_green = 0
    survivors = []
    records = hashlib.sha256()
    for check in checks:
        if args.sample is None:
            slots = suite.mutation_slots(check)
        else:
            slots = suite.sample_mutations(check, args.sample)
        started = time.perf_counter()
        flipped = 0
        for ident, slot in slots:
            rows = suite.run_mutated(check, ident, slot)
            records.update(_records_line(rows).encode("utf-8"))
            if suite.all_clear(rows):
                survivors.append((check, ident, slot))
            else:
                flipped += 1
        print("%-20s %4d mutants %4d off green %8.2f s"
              % (check, len(slots), flipped, time.perf_counter() - started),
              flush=True)
        mutants += len(slots)
        off_green += flipped
    print("%-20s %4d mutants %4d off green %d survivors"
          % ("total", mutants, off_green, len(survivors)))
    for survivor in survivors:
        print("survivor %s %s[%d]" % survivor)
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
