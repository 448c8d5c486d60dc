"""Golden-output test for the demo scripts: each runs in a subprocess
against the in-tree sources and must print exactly its recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("polynomial_factorization", "separated_networks", "worked_example_7x7")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_prints_golden_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=300, check=False,
    )
    assert result.returncode == 0, result.stderr
    expected = (ROOT / "tests" / "data" / "demos" / f"{name}.txt").read_text(encoding="utf-8")
    assert result.stdout == expected
