"""The example scripts run end to end and print what their tables claim."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_main(name, monkeypatch, capsys, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    code = module.main()
    return code, capsys.readouterr().out


def test_classify_catalog_names_the_inversion_certificate(monkeypatch, capsys):
    code, out = _run_main("classify_catalog", monkeypatch, capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("piecewise { [0,1): t;")]
    assert len(rows) == 1 and rows[0].split()[-1] == "isosceles_inversion"


def test_covering_divergence_isolates_every_level(monkeypatch, capsys):
    code, out = _run_main("covering_divergence", monkeypatch, capsys)
    assert code == 0
    rows = [line.split() for line in out.splitlines()[3:]]  # below the header and rule
    assert [(int(r[0]), int(r[-1])) for r in rows] == [(4, 4), (8, 8), (16, 16), (32, 32)]


def test_suite_criteria_times_all_nine(monkeypatch, capsys):
    from ultrapreserve.suite import SuiteConfig, run_suite

    code, out = _run_main("suite_criteria", monkeypatch, capsys, "--repeats", "1")
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()[3:]]  # below the header and rule
    assert names == [r.name for r in run_suite(SuiteConfig(trials=1)).results] + ["total"]


def test_golden_diff_fails_only_on_unmasked_differences(monkeypatch, capsys, tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps([
        {"function": "t", "report": {"verdicts": {"a": {"status": "holds", "seed": 1}}}},
        {"function": "t * t", "report": {}},
    ]))
    new.write_text(json.dumps([
        {"function": "t", "report": {"verdicts": {"a": {"status": "holds", "seed": None}}}},
        {"function": "t * t", "report": {}},
    ]))
    code, out = _run_main("golden_diff", monkeypatch, capsys, str(old), str(new))
    assert code == 1
    assert out.split("\t") == ["DIFF", "t", "report.verdicts.a.seed", "1 -> null\n"]
    code, out = _run_main("golden_diff", monkeypatch, capsys, str(old), str(new),
                          "--mask", "report.verdicts.a")
    assert code == 0 and out.startswith("masked\tt\treport.verdicts.a.seed\t")
    code, out = _run_main("golden_diff", monkeypatch, capsys, str(old), str(old))
    assert (code, out) == (0, "")
    new.write_text(old.read_text().replace("t * t", "t + t"))  # renames an entry
    code, out = _run_main("golden_diff", monkeypatch, capsys, str(old), str(new),
                          "--mask", "report")
    assert code == 1 and out.splitlines() == [
        'DIFF\tt * t\t<entry>\t"present" -> "<absent>"',
        'DIFF\tt + t\t<entry>\t"<absent>" -> "present"',
    ]
