"""Self-test of the benchmark at tiny size (about half a minute):

    python3 perfbench/selftest.py

For every workload it checks that each metric named in BENCHMARK.json is
printed with its unit, untraced and traced, and that the hypothesis
digests repeat across runs with different run seeds. It also checks that
decode-lex40 writes byte-identical hypothesis files at --jobs 1 and
--jobs 2. Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import numbers
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(*argv):
    """Run the benchmark at tiny size; return (result, digests)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--tiny", *argv]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.splitlines()
    digests = next(line for line in lines if line.startswith("# digests "))
    return json.loads(lines[-1]), json.loads(digests[len("# digests "):])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        first = None
        for seed, trace, kind in ((11, 0, "end_to_end"), (12, 1, "per_layer"),
                                  (13, 0, "end_to_end")):
            result, digests = bench_run("--workload", workload, "--seed", str(seed),
                                        "--trace", str(trace))
            where = f"{workload} --seed {seed} --trace {trace}"
            expected = {m["name"]: m["unit"] for m in bench[kind]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            if not all(isinstance(m["value"], numbers.Real) and not isinstance(m["value"], bool)
                       for m in result["metrics"].values()):
                problems.append(f"{where}: a metric value is not a number")
            if not result["correct"]:
                problems.append(f"{where}: output check failed")
            first = first or digests["hypotheses"]
            if digests["hypotheses"] != first:
                problems.append(f"{where}: hypothesis digests differ from the first run")
        print(f"{workload}: checked", flush=True)

    files = {}
    for jobs in (1, 2):
        _, digests = bench_run("--workload", "decode-lex40", "--seed", "14", "--jobs", str(jobs))
        files[jobs] = digests["files"]
    if files[1] != files[2]:
        problems.append("decode-lex40 hypothesis files differ between --jobs 1 and --jobs 2")
    print("decode-lex40 --jobs 1 vs 2: checked")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
