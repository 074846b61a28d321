"""Benchmark entry point.

    python3 perfbench/run.py --workload recipe --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Runs the named workload (``all`` runs each in turn) in a fresh process
with OpenBLAS, OpenMP and MKL pinned to one thread, checks its outputs
and prints every metric of ``BENCHMARK.json`` with its unit. With
``--trace 0`` these are the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass. The last line of standard output is
the JSON result. Run from the root of a checkout; the program is
imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TIMEOUT_S = 175


def fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def run_workload(args, bench):
    """Run one workload in a child process; return the result object."""
    record_path = ROOT / ".bench_work" / f"record-{os.getpid()}-{args.workload}.json"
    record_path.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(record_path)]
    for flag in ("workload_seed", "jobs"):
        if getattr(args, flag) is not None:
            cmd += [f"--{flag.replace('_', '-')}", str(getattr(args, flag))]
    if args.tiny:
        cmd.append("--tiny")
    # temporary files stay inside the checkout too
    tmp = ROOT / ".bench_work" / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    # the child's stdout holds only the CLI's progress lines and tables
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                             start_new_session=True)
    # the child leads its own process group, so one signal also stops its
    # pool workers; stop them however this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        code = child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} ran longer than {TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if code != 0:
        fail(f"workload {args.workload} exited with {code}")
    record = json.loads(record_path.read_text())
    record_path.unlink()
    # largest of the workload process and its pool workers, in KiB on Linux
    record["metrics"]["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        fail(f"workload {args.workload} did not measure {', '.join(missing)}")
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"# workload {args.workload}: {record['passes']} timed pass(es), "
          f"{record['setups']} set-up(s)")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"#   {name:<{width}}  {m['value']:>14.6g} {m['unit']}")
    verdict = "passed" if record["correct"] else "FAILED: " + "; ".join(record["problems"])
    print(f"# output check {verdict}; {record['failed']} of {record['attempted']} "
          f"results failed")
    print("# digests " + json.dumps({"hypotheses": record["digests"],
                                     "files": record["file_digests"]}, sort_keys=True))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, required=True,
                        help="run seed; it relabels the test utterances")
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure timed passes for about this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int,
                        help="corpus and training seed (default: the workload's own; "
                             "perfbench/workloads.json names a validation seed too)")
    parser.add_argument("--jobs", type=int, help="override the workload's --jobs")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpus and schedules, for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "sslasr" / "__init__.py").is_file():
        fail(f"no program under {ROOT / 'src'}: run from the root of a checkout", 2)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        # one process per workload, so that peak RSS is each workload's own
        ok = True
        for name in names:
            argv = [a if a != "all" else name for a in sys.argv]
            done = subprocess.run([sys.executable] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            print(done.stdout, end="")
            ok = ok and done.returncode == 0 and json.loads(
                done.stdout.splitlines()[-1])["correct"]
        return 0 if ok else 1
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}", 2)
    print(json.dumps(run_workload(args, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
