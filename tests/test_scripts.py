import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("scan_divergence.py", ("--max-m", "12")),
        ("torsion_survey.py", ("--count", "20")),
    ],
)
def test_experiment_script_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
