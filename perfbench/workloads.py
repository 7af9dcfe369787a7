"""The three workloads: their inputs, how an item runs, how it is judged.

Every workload is a closed loop with one caller: the next item starts
when the previous one returns.  A workload's inputs are one *pass*, a
list of items built from the seed; a run repeats whole passes.  An item
is a tuple of decisions, each one public call into the verifier: a full
``run_suite`` (``None``) or one ``run_mutated`` of a (check, ident,
slot) mutant.  The seed orders the pass and is the seed every call
gets, which drives the verifier's random test vectors.

- ``suite``: one item, a full ``run_suite`` on the unmutated catalog,
  which is what a reader of the paper runs.  A derivation cache could
  only fill here, never hit.
- ``sweep_light``: every mutation slot of the eleven cheap checks, one
  mutant per item.  Kernel arithmetic dominates; the store is minor.
- ``sweep_heavy``: eight theorem1 and eight appendix_a mutants, one of
  each per item.  Each mutant repeats a near-identical derivation, which
  is what a derived-object cache, an early stop or a faster store would
  save.  Theorem1 mutants take 1.1 to 2.4 s depending on the slot, so a
  seeded random draw of eight moved the median by 10 to 19% from seed to
  seed; the mutants are therefore fixed, one at the middle of each
  eighth of the check's slot list (which spans its catalog entries),
  and only their order and the call seed follow the seed.
"""

import hashlib
import json
import random
import time

from jetverify.verify import UNDECIDABLE, suite

import expected

HEAVY_PER_CHECK = 8


class Verdict:
    """The judgement of one decision against the hand-written answer."""

    __slots__ = ("wrong_rows", "aborted", "survivor", "correct", "note")

    def __init__(self, wrong_rows=0, aborted=0, survivor=None,
                 correct=True, note=None):
        self.wrong_rows = wrong_rows
        self.aborted = aborted
        self.survivor = survivor
        self.correct = correct
        self.note = note

    @property
    def failed(self):
        return bool(self.wrong_rows or self.aborted or self.survivor)


def records_digest(rows):
    text = json.dumps([row.to_record() for row in rows], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _aborted(rows):
    return sum(row.status == UNDECIDABLE for row in rows)


def judge_suite(rows):
    got = [(row.id, row.status, row.decided_by) for row in rows]
    want = list(expected.SUITE_ROWS)
    wrong = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
    digest = records_digest(rows)
    notes = []
    if wrong:
        notes.append("%d rows differ from the expected table" % wrong)
    if digest != expected.SUITE_DIGEST:
        notes.append("record digest %s differs from %s"
                     % (digest, expected.SUITE_DIGEST))
    return Verdict(wrong_rows=wrong, aborted=_aborted(rows),
                   correct=not notes, note="; ".join(notes) or None)


def judge_mutant(mutant, rows):
    """A mutant is decided correctly when its check goes off green.

    A survivor is a failed operation; one outside the known list also
    makes the run incorrect."""
    if not suite.all_clear(rows):
        return Verdict(aborted=_aborted(rows))
    known = mutant in expected.KNOWN_SURVIVORS
    return Verdict(survivor=mutant, correct=known,
                   note=None if known else "new survivor %s %s[%d]" % mutant)


def _shuffled(items, seed, tag):
    items = list(items)
    random.Random("%d:%s" % (seed, tag)).shuffle(items)
    return items


def _light_pass(seed):
    mutants = []
    for check in suite.check_ids():
        if check in expected.HEAVY_CHECKS:
            continue
        slots = suite.mutation_slots(check)
        if len(slots) != expected.LIGHT_SLOTS.get(check):
            raise SystemExit("check %s reads %d slots, expected %s"
                             % (check, len(slots),
                                expected.LIGHT_SLOTS.get(check)))
        mutants.extend((check, ident, slot) for ident, slot in slots)
    return [(m,) for m in _shuffled(mutants, seed, "sweep_light")]


def _heavy_mutants(check):
    slots = suite.mutation_slots(check)
    k = HEAVY_PER_CHECK
    return [(check,) + slots[(2 * j + 1) * len(slots) // (2 * k)]
            for j in range(k)]


def _heavy_pass(seed):
    pairs = zip(*(_heavy_mutants(check)
                  for check in expected.HEAVY_CHECKS))
    return _shuffled(pairs, seed, "sweep_heavy")


def run_decision(decision, seed):
    if decision is None:
        return suite.run_suite(seed=seed)
    check, ident, slot = decision
    return suite.run_mutated(check, ident, slot, seed=seed)


def judge(decision, rows):
    if decision is None:
        return judge_suite(rows)
    return judge_mutant(decision, rows)


class Results:
    """Timings and judgements of the decisions a run measured."""

    def __init__(self):
        self.items = 0
        self.decisions = []   # (item index, decision, start, end, verdict)

    def run(self, items, seed, on_item=None):
        for item in items:
            k = self.items
            self.items += 1
            if on_item is not None:
                on_item(k)
            for decision in item:
                start = time.perf_counter()
                rows = run_decision(decision, seed)
                end = time.perf_counter()
                self.decisions.append((k, decision, start, end,
                                       judge(decision, rows)))

    @property
    def verdicts(self):
        return [d[4] for d in self.decisions]

    def decision_seconds(self, seconds, check=None):
        """Each decision's time, as ``seconds(start, end)`` gives it."""
        return [seconds(start, end) for _k, d, start, end, _v
                in self.decisions if check is None or d[0] == check]

    def item_seconds(self, seconds):
        out = [0.0] * self.items
        for k, _d, start, end, _v in self.decisions:
            out[k] += seconds(start, end)
        return out


# name -> (the pass made from a seed, untimed warm-up items taken from the
# start of the pass); the first light items run slower than later ones,
# so a fifth of a light pass warms the process up
WORKLOADS = {
    "suite": (lambda seed: [(None,)], 1),
    "sweep_light": (_light_pass, 105),
    "sweep_heavy": (_heavy_pass, 1),
}
