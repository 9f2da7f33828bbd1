"""Every example script must run end-to-end.

Examples are executed in-process via ``runpy`` (no subprocess overhead)
with stdout captured; each must complete without raising and print its
headline content.
"""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

CASES = [
    ("quickstart.py", [], "Fine-tuning P0C3"),
    ("characterize_chip.py", ["5"], "thread worst"),
    ("managed_scheduling.py", [], "managed, QoS"),
    ("voltage_noise_transient.py", [], "di/dt events"),
    ("deploy_fleet.py", ["2"], "gain vs static"),
    ("aging_lifecycle.py", [], "re-characterize"),
]


@pytest.mark.parametrize("script, argv, expected", CASES)
def test_example_runs(script, argv, expected, capsys, monkeypatch):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert expected in out
    assert len(out) > 100


#: sha256 of ``voltage_noise_transient.py``'s stdout.  The example runs a
#: fixed seed, so its strip chart pins the transient kernel's trajectory
#: (supply, DPLL frequency, CPM reading and gating around a droop).
TRANSIENT_STRIP_CHART_SHA256 = (
    "827fe85d384d0674eedb870bef311c50fefcaf73a35e098aceb1a27426c7dc36"
)


def test_transient_strip_chart_is_pinned(capsys, monkeypatch):
    path = EXAMPLES_DIR / "voltage_noise_transient.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSIENT_STRIP_CHART_SHA256
