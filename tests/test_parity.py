import importlib.util
import json
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

SMALL = dict(default_s=2.0, dense_s=2.0, turning_s=2.0, replay_s=2.0, mc_s=2.0)  # a 2 s matrix


def _record(path):
    outputs, final = parity.record(7, **SMALL)
    parity.write(7, outputs, final, path)


def test_two_records_agree_and_compare_finds_one_ulp(tmp_path, monkeypatch, capsys):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    _record(a)
    _record(b)
    assert a.read_text() == b.read_text()
    assert parity.compare(a, b) == []
    doc = json.loads(a.read_text())
    runs = {name.rsplit("/", 2)[0] for name in doc["sha256"]}
    assert {"default", "dense", "turning", "replay", "replay_no_truth"} <= runs
    assert "replay_no_truth/vif/report.csv" in doc["sha256"]
    assert "replay_no_truth/vif/err_deg" not in doc["sha256"]
    # 2 s at 1 s rows: pif's estimate().q at its two solved rows
    assert len(doc["final_hex"]["default/pif/q"]) == 2 * 4

    # the first run (the default scenario's vif) moves one estimate by one ulp
    run_alignment = parity.run_alignment
    calls = []

    def bumped(data, method, report_interval_s):
        report = run_alignment(data, method, report_interval_s)
        if not calls:
            report.est_deg[-1, 2] = np.nextafter(report.est_deg[-1, 2], np.inf)
        calls.append(method)
        return report

    monkeypatch.setattr(parity, "run_alignment", bumped)
    _record(c)
    lines = parity.compare(a, c)
    assert len(lines) == 1 and lines[0].startswith("default/vif/est_deg: max |a - b| ")
    assert parity.main(["--compare", str(a), str(c)]) == 1
    assert capsys.readouterr().out == lines[0] + "\n"
    assert parity.compare(a, c, rtol=1e-12) == []
    assert parity.main(["--compare", str(a), str(c), "--rtol", "1e-12"]) == 0
