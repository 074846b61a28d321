"""Tiny runs of the benchmark's two workloads. decode-lex40 drives the
CLI: ``decode --save-streams``, ``joint-decode --streams``, ``rescore``
and ``score``; recipe drives the pipeline in-process:
``run_recognition(..., jobs=)`` and ``reports[s].to_json_dict()``. A
tiny run of each here makes a change to either contract fail the test
suite, not only a later benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tiny_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--tiny", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout


def test_tiny_decode_lex40_run_is_correct():
    tiny_run_is_correct("decode-lex40")


def test_tiny_recipe_run_is_correct():
    tiny_run_is_correct("recipe")
