"""The model reproduces the committed golden file bit for bit.

``tests/data/golden_model.npz`` is written by ``scripts/write_golden.py``:
forward outputs, losses and every parameter gradient over all 36 encoder
× pooling × direction × bias settings, and the SHA-256 of the files a
small CLI training run writes. A change that moves the numerics on
purpose regenerates the file and reports ``--compare``'s figures.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "write_golden.py"


def _script():
    spec = importlib.util.spec_from_file_location("write_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_model_and_cli_match_the_golden_file():
    golden = _script()
    want = golden.load(golden.GOLDEN)
    got = golden.golden()
    diffs = golden.differences(got, want)
    assert not diffs, (
        f"{len(diffs)} arrays differ from the golden file, first {diffs[0]}; "
        f"the file was written with {want['blas']}, this run uses {got['blas']}"
    )
