"""The micro-benchmark scripts (``tests/bench_*.py``) still import.

Tier-1 collects only ``test_*.py``, so a change that deletes or renames
what a micro-benchmark calls would break it unseen. This collects the
scripts in a subprocess, as ``python -m pytest tests/bench_X.py`` would,
without running a benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_micro_benchmark_collects():
    scripts = sorted((ROOT / "tests").glob("bench_*.py"))
    assert len(scripts) == 4, scripts
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "-p", "no:cacheprovider", *map(str, scripts)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
