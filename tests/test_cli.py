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


def test_run_rejects_an_unknown_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--checks", "prop3"])
    assert exc.value.code == 2
    assert "unknown check id 'prop3'" in capsys.readouterr().err


def test_describe_prints_the_check(capsys):
    assert main(["describe", "prop2"]) == 0
    assert json.loads(capsys.readouterr().out) == suite.describe("prop2")


def test_describe_rejects_an_unknown_check(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "prop3"])
    assert exc.value.code == 2
    assert "unknown check id 'prop3'" in capsys.readouterr().err


def records_digest(mutants):
    """sha256 over each mutant's records, one canonical JSON line each."""
    digest = hashlib.sha256()
    for check, ident, slot in mutants:
        rows = suite.run_mutated(check, ident, slot)
        digest.update(json.dumps([row.to_record() for row in rows],
                                 sort_keys=True, separators=(",", ":"))
                      .encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_sweep_reports_mutants_and_survivors(capsys):
    assert main(["sweep", "--check", "prop2", "--sample", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].split()[:5] == ["prop2", "3", "mutants", "3", "off"]
    assert lines[0].endswith(" s")
    assert lines[1].split() == ["total", "3", "mutants", "3", "off",
                                "green", "0", "survivors"]
    mutants = [("prop2",) + m for m in suite.sample_mutations("prop2", 3)]
    assert lines[2] == "records sha256 " + records_digest(mutants)


def test_sweep_names_a_survivor(capsys, monkeypatch):
    # a check that stays green under every mutant must be reported
    monkeypatch.setattr(suite, "run_mutated", lambda *args: [])
    assert main(["sweep", "--check", "prop2", "--sample", "2"]) == 1
    out = capsys.readouterr().out
    names = ["survivor prop2 %s[%d]" % m
             for m in suite.sample_mutations("prop2", 2)]
    assert out.splitlines()[-3:-1] == names
    empty = hashlib.sha256(b"[]\n[]\n").hexdigest()
    assert out.splitlines()[-1] == "records sha256 " + empty
