"""The console script's commands, driven through main()."""

import hashlib
import json

import pytest

from jetverify.cli import main
from jetverify.verify import suite


def test_run_prints_the_selected_rows(capsys):
    assert main(["run", "--checks", "prop2"]) == 0
    assert capsys.readouterr().out == "pass        prop2 (normal-form)\n"


def test_run_json_prints_the_records(capsys):
    assert main(["run", "--checks", "prop2", "--json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert records == [row.to_record()
                       for row in suite.run_suite(selection=("prop2",))]


def test_run_timings_time_every_row(capsys):
    assert main(["run", "--checks", "prop1", "prop2", "--timings"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = suite.run_suite(selection=("prop1", "prop2"))
    assert [line.rsplit(" ", 2)[0] for line in lines] == [
        "%-11s %s (%s)" % (r.status, r.id, r.decided_by) for r in rows]
    assert all(line.endswith(" ms") and float(line.split()[-2]) >= 0
               for line in lines)
    assert all(r.elapsed_ms is not None and r.elapsed_ms >= 0 for r in rows)


def test_run_rejects_json_with_timings(capsys):
    # records hold no timing, so the combination is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["run", "--checks", "prop2", "--json", "--timings"])
    assert exc.value.code == 2
    assert "not allowed with argument --json" in capsys.readouterr().err


def test_run_rejects_an_unknown_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--checks", "prop3"])
    assert exc.value.code == 2
    assert "unknown check id 'prop3'" in capsys.readouterr().err


def test_describe_prints_the_check(capsys):
    assert main(["describe", "prop2"]) == 0
    assert json.loads(capsys.readouterr().out) == suite.describe("prop2")


def test_describe_lists_each_row_and_its_reads(capsys):
    # the entries of the recorded reads by which run_mutated serves each
    # row, for every check, each row in report order, of them the
    # entries the row's derived half did not fetch, and the parts other
    # than its half that the row derived, each with its reads, a cell
    # read printed as the pair [entry, cell label]; a row whose half
    # read all the row reads compares nothing
    for check in suite.check_ids():
        assert main(["describe", check]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        view = suite._unmutated(check, 0)
        parts = view.parts
        assert rows == [
            {"id": rid, "reads": suite._entries(reads),
             "compares": [ident for ident in suite._entries(reads)
                          if ident not in suite._entries(parts[rid][1])],
             "parts": {key: json.loads(json.dumps(parts[key][1]))
                       for key in nested if key != rid}}
            for rid, (_row, reads, nested) in view.rows().items()]
        # no cell read stands in a row's reads or compares
        assert all(isinstance(ident, str) for row in rows
                   for ident in row["reads"] + row["compares"])
        assert [row["id"] for row in rows] \
            == [r.id for r in suite.run_suite(selection=check)]
    # every entry the build fetches, in first-fetch order, including
    # usdefs, which the check's mutation surface leaves out, and the
    # Transport parts the row derived, nested ones included, each cell
    # of the mapped T1 reading its own cell of T1
    assert suite.describe("theorem1")["rows"][0] \
        == {"id": "theorem1.t1", "reads": ["ymap", "T1", "usdefs"],
            "compares": [],
            "parts": {"jacobians": ["ymap"],
                      "t1 0,0": [("T1", "0,0"), "usdefs"],
                      "smap": ["usdefs"],
                      "t1 0,1": [("T1", "0,1"), "usdefs"],
                      "t1 1,0": [("T1", "1,0"), "usdefs"],
                      "t1 1,1": [("T1", "1,1"), "usdefs"]}}
    # the flow drivers fetch their own inputs, in argument order
    rows = {row["id"]: row for check in suite.check_ids()
            for row in suite.describe(check)["rows"]}
    reads = {rid: row["reads"] for rid, row in rows.items()}
    assert reads["zc_main"] == ["lax.main", "sys.main"]
    assert reads["conservation.appb"] == ["recip.appb", "sys.appb"]
    # a row's derived half fetches first, then its compare fetches what
    # the half is compared with
    for rid in ("reciprocal.appb", "appendix_b.reciprocal"):
        assert reads[rid] == ["sys.appb", "recip.appb", "ymap", "usdefs",
                              "sys.appb.trans"]
    for rid in ("reciprocal.main.itau", "reciprocal.main.jtau"):
        assert reads[rid] == ["sys.main", "recip.main", "ymap", "usdefs",
                              "flow.intermediate"]
    assert reads["reciprocal.main.kernels"] \
        == ["sys.main", "recip.main", "flow.intermediate"]
    assert reads["reciprocal.main.flowlink"] \
        == ["flow.intermediate", "fg", "sys.mdflow", "usdefs"]
    assert reads["scalar_reduction.pair"] \
        == ["lax.main", "recip.main", "reduction2"]
    assert reads["scalar_reduction.fourth"] \
        == ["lax.main", "recip.main", "hmap", "scalar.mn", "scalar4"]
    assert reads["prop1"] == ["E", "Theta1", "Theta1.conj", "usdefs"]
    assert reads["prop2"] == ["E", "Theta2", "usdefs"]
    # a zero-curvature row is handed its pair's flat part, and the
    # nonlocal bihamiltonian row the gradient of H1, by a mutant of an
    # entry outside their reads
    parts = {rid: row["parts"] for rid, row in rows.items()}
    assert parts["zc_main"] == {"lax.main.flat": ["lax.main"]}
    assert parts["bihamiltonian_x.nonlocal"] \
        == {"H1.gradient": ["sys.main", "H1"]}
    # theorem1.jt2 is one whole row, whose image of each basis vector
    # is a part that reads no cell of Jt2
    images = {key: reads for key, reads in parts["theorem1.jt2"].items()
              if key.endswith(" image")}
    assert list(images) == ["theorem1.jt2 first image",
                            "theorem1.jt2 second image"]
    for reads in images.values():
        assert suite._entries(reads) == ["E", "J1", "T1", "usdefs", "T2"]
    # the eleven rows with a half of their own; every other row
    # derives its whole claim and compares nothing more
    assert {rid: row["compares"] for rid, row in rows.items()
            if row["compares"]} == {
        "reciprocal.main.itau": ["flow.intermediate"],
        "reciprocal.main.jtau": ["flow.intermediate"],
        "reciprocal.main.kernels": ["flow.intermediate"],
        "reciprocal.appb": ["sys.appb.trans"],
        "scalar_reduction.pair": ["reduction2"],
        "scalar_reduction.fourth": ["scalar.mn", "scalar4"],
        "prop1": ["Theta1", "Theta1.conj", "usdefs"],
        "prop2": ["Theta2", "usdefs"],
        "theorem1.t2": ["T2", "usdefs"],
        "appendix_a.link": ["P2"],
        "appendix_b.reciprocal": ["sys.appb.trans"]}


def test_describe_rejects_an_unknown_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "prop3"])
    assert exc.value.code == 2
    assert "unknown check id 'prop3'" in capsys.readouterr().err


def sweep_digests(mutants):
    """sha256 over each mutant's [row id, status] list, and over each
    mutant's records, one canonical JSON line each."""
    statuses, records = hashlib.sha256(), hashlib.sha256()
    for check, ident, slot in mutants:
        rows = suite.run_mutated(check, ident, slot)
        for digest, value in (
                (statuses, [[row.id, row.status] for row in rows]),
                (records, [row.to_record() for row in rows])):
            digest.update(json.dumps(value, sort_keys=True,
                                     separators=(",", ":"))
                          .encode("utf-8") + b"\n")
    return statuses.hexdigest(), records.hexdigest()


def test_sweep_reports_mutants_and_survivors(capsys):
    assert main(["sweep", "--check", "prop2", "--sample", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    fields = lines[0].split()
    assert fields[:5] == ["prop2", "3", "mutants", "3", "off"]
    assert lines[1].split() == ["total", "3", "mutants", "3", "off",
                                "green", "0", "survivors"]
    mutants = [("prop2",) + m for m in suite.sample_mutations("prop2", 3)]
    # the check's seconds, then its slowest mutant and that mutant's
    # seconds
    assert len(fields) == 12
    assert (fields[7], fields[8], fields[11]) == ("s", "slowest", "s")
    assert fields[9] in ["%s[%d]" % m[1:] for m in mutants]
    assert float(fields[10]) >= 0
    statuses, records = sweep_digests(mutants)
    assert lines[2:] == ["statuses sha256 " + statuses,
                         "records sha256 " + records]


def test_sweep_names_a_survivor(capsys, monkeypatch):
    # a check that stays green under every mutant must be reported
    monkeypatch.setattr(suite, "run_mutated", lambda *args: [])
    assert main(["sweep", "--check", "prop2", "--sample", "2"]) == 1
    out = capsys.readouterr().out
    names = ["survivor prop2 %s[%d]" % m
             for m in suite.sample_mutations("prop2", 2)]
    assert out.splitlines()[-4:-2] == names
    empty = hashlib.sha256(b"[]\n[]\n").hexdigest()
    assert out.splitlines()[-2:] == ["statuses sha256 " + empty,
                                     "records sha256 " + empty]
