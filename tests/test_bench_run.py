"""The benchmark's decode-lex40 workload drives the CLI: ``decode
--save-streams``, ``joint-decode --streams``, ``rescore`` and ``score``.
A tiny run of it here makes a change to that contract fail the test
suite, not only a later benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_decode_lex40_run_is_correct():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-lex40", "--seed", "1",
         "--tiny", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout
