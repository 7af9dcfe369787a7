"""The console script's two commands, driven through main()."""

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


def test_sweep_reports_mutants_and_survivors(capsys):
    assert main(["sweep", "--check", "prop2", "--sample", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].split()[:5] == ["prop2", "3", "mutants", "3", "off"]
    assert lines[0].endswith(" s")
    assert lines[1].split() == ["total", "3", "mutants", "3", "off",
                                "green", "0", "survivors"]


def test_sweep_names_a_survivor(capsys, monkeypatch):
    # a check that stays green under every mutant must be reported
    monkeypatch.setattr(suite, "run_mutated", lambda *args: [])
    assert main(["sweep", "--check", "prop2", "--sample", "2"]) == 1
    out = capsys.readouterr().out
    names = ["survivor prop2 %s[%d]" % m
             for m in suite.sample_mutations("prop2", 2)]
    assert out.splitlines()[-2:] == names
