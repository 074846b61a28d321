"""The benchmark's per-layer metrics name functions of the program: a
traced run (``perfbench/run.py --trace 1``) fails when one of them is
gone. This runs the same check without running the benchmark, from the
benchmark's own code: the span names are the targets of
``perfbench.spans.Tracer``, and the metric names the keys
``perfbench.workload.layer_metrics`` makes of them."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_stream

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import sslasr  # noqa: E402
import sslasr.cli  # noqa: E402,F401 - loads every layer module
import spans  # noqa: E402
import workload  # noqa: E402


def produced_metrics():
    """Every key ``layer_metrics`` reports for a traced pass over the
    program as it stands, with no call recorded."""
    tracer = spans.Tracer(sslasr)
    tracer.names = [name for name, *_ in tracer._targets()]
    specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    empty = {s: {"by_subset": {}, "by_condition": {}} for s in workload.SYSTEMS}
    traced = ({"wall_s": 1.0}, {"hyps": {s: [] for s in workload.SYSTEMS},
                                "reports": empty})
    return workload.layer_metrics(tracer, [({"wall_s": 1.0}, None)], traced, 1,
                                  workload.finetune_scopes(specs))


def test_every_per_layer_metric_is_produced():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = produced_metrics()
    # names without a dot (train_s, recognize_s) are stage times of the
    # workload itself, not spans of a function
    missing = [m["name"] for m in bench["per_layer"]
               if "." in m["name"] and m["name"] not in produced]
    assert not missing, f"functions named by the benchmark are missing: {missing}"


@pytest.mark.parametrize("name", ["decoder.decode_stream", "decoder.isolated_nbest",
                                  "decoder.viterbi_align_cost",
                                  "pipeline.decode_utterances"])
def test_a_missing_function_is_caught(name, monkeypatch):
    layer, attr = name.split(".")
    monkeypatch.delattr(getattr(sslasr, layer), attr)
    produced = produced_metrics()
    assert f"{name}.calls" not in produced and f"{name}.self_s" not in produced


def test_decode_pass_frames_read_from_tasks():
    """The tracer counts a decode pass's frames from ``task[1][0]`` of each
    ``pipeline.decode_utterances`` task."""
    rng = np.random.default_rng(0)
    tasks = [("u0", [random_stream(4, 3, rng)], None),
             ("u1", [random_stream(6, 3, rng), random_stream(6, 3, rng)], [3, 2])]
    assert spans._pass_frames("pipeline.decode_utterances", (tasks, None, None)) == 10
