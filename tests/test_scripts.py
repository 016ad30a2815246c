"""The example scripts run end to end and print what their tables claim."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_main(name, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
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
