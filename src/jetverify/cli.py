"""Command-line entry point: run the suite, or sweep its mutants.

    jetverify run [--checks ID ...] [--json]
    jetverify sweep [--check ID] [--sample N]

``run`` prints one line per result row (status, id, how it was
decided) followed by the row's residual lines, or with ``--json`` the
rows' records; it exits 1 unless every row is a pass or a ledgered
erratum.  ``sweep`` corrupts, one at a time, every coefficient slot a
check reads (or a seeded sample of N of them) and prints, per check,
the number of mutants, how many turned the check off green and the
seconds taken, then names every survivor; it exits 1 when a mutant
survives.
"""

import argparse
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
    sweep = commands.add_parser("sweep", help="run the mutation sweep")
    sweep.add_argument("--check", choices=suite.check_ids(), metavar="ID",
                       help="sweep one check (default: all)")
    sweep.add_argument("--sample", type=_positive, metavar="N",
                       help="a seeded sample of N slots per check "
                            "(default: every slot)")
    return parser


def _run(parser, args):
    try:
        names = suite.resolve_selection(args.checks)
    except KeyError as exc:
        parser.error(exc.args[0])
    rows = suite.run_suite(selection=names)
    if args.json:
        print(json.dumps([row.to_record() for row in rows], indent=2))
    else:
        for row in rows:
            print("%-11s %s (%s)" % (row.status, row.id, row.decided_by))
            for line in row.residual_summary:
                print("    " + line)
    return 0 if suite.all_clear(rows) else 1


def _sweep(args):
    checks = (args.check,) if args.check else suite.check_ids()
    mutants = off_green = 0
    survivors = []
    for check in checks:
        if args.sample is None:
            slots = suite.mutation_slots(check)
        else:
            slots = suite.sample_mutations(check, args.sample)
        started = time.perf_counter()
        flipped = 0
        for ident, slot in slots:
            if suite.all_clear(suite.run_mutated(check, ident, slot)):
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
    return 1 if survivors else 0


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(parser, args)
    return _sweep(args)


if __name__ == "__main__":
    sys.exit(main())
