"""The minute-scale smoke script runs and separates gated from aspect-blind."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "smoke_run.py"


def test_smoke_run_gated_learns_and_blind_stays_at_chance(capsys):
    spec = importlib.util.spec_from_file_location("smoke_run", SCRIPT)
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    assert smoke.main() == 0
    acc = {}
    for line in capsys.readouterr().out.splitlines():
        name, _, rest = line.partition(" test accuracy ")
        acc[name.strip()] = float(rest.split()[0])
    assert acc["aspect-gated"] >= 0.9
    assert acc["aspect-blind"] <= 0.6
