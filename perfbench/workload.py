"""Run one benchmark workload in this process and write its record as JSON.

``run.py`` starts this script in a fresh process with BLAS threading
pinned, so numpy must not be imported before it starts. The workload seed
fixes the corpus and every training seed, so models, hypotheses and WERs
are the same in every run. The run seed (``--seed``) relabels the test
utterances, which changes the order in which they are processed but must
not change any result; hypotheses are digested under their original
labels, so runs with different run seeds are compared directly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sslasr  # noqa: E402
from sslasr import cli, pipeline  # noqa: E402
from sslasr.config import load_config, merge_config  # noqa: E402

from spans import FINALS, Tracer  # noqa: E402

SYSTEMS = ("fbk", "fused", "joint", "rescored")
PARTITIONS = ("test-seen", "test-unseen", "source", "target")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A system worse than this is not recognizing: guessing among 10 words
# gives 90 %.
MAX_WER = 50.0
WORK = ROOT / ".bench_work"


def relabel(corpus_dir, run_seed):
    """Give every utterance a new id drawn from the run seed; keep the
    manifest order, which fixes the training order. Returns new -> old."""
    path = Path(corpus_dir) / "manifest.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    order = list(range(len(rows)))
    random.Random(run_seed).shuffle(order)
    names = {}
    for row, k in zip(rows, order):
        names[f"u{k:05d}"] = row["id"]
        row["id"] = f"u{k:05d}"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return names


def digest(hyps, names):
    """sha256 of the sorted (original utt id, words) pairs."""
    lines = sorted(f"{names[utt]}\t{' '.join(words)}\n" for utt, words, _ in hyps)
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def code_digest(cfg):
    """sha256 of the program source and the workload config: runs with the
    same digest must produce the same hypotheses."""
    h = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(jobs, workload_seed, run_seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "jobs": jobs,
        "workload_seed": workload_seed,
        "run_seed": run_seed,
    }


class Recipe:
    """Default-config pipeline, called in-process."""

    def __init__(self, spec, cfg, jobs, run_seed, work):
        self.cfg, self.jobs, self.run_seed, self.work = cfg, jobs, run_seed, work
        self.train_s = []

    def setup(self, k):
        root = self.work / f"setup{k}"
        pipeline.generate_corpus(root, self.cfg)
        self.names = relabel(root, self.run_seed)
        self.corpus = pipeline.Corpus(root)

    def run_pass(self, k):
        cfg, corpus = self.cfg, self.corpus
        t0 = perf_counter()
        model, _ = pipeline.pretrain_encoder(corpus, cfg)
        adapter, _ = pipeline.finetune_encoder(corpus, model, cfg)
        pipeline.train_inversion_model(corpus, model, adapter, cfg)
        t1 = perf_counter()
        result = pipeline.run_recognition(corpus, cfg, model, adapter, jobs=self.jobs)
        t2 = perf_counter()
        output = {
            "hyps": {s: [(h.utt_id, list(h.words), h.cost) for h in result["hypotheses"][s]]
                     for s in SYSTEMS},
            "reports": {s: result["reports"][s].to_json_dict() for s in SYSTEMS},
            "files": {},
        }
        return {"train_s": t1 - t0, "recognize_s": t2 - t1, "wall_s": t2 - t0}, output

    def test_ids(self):
        return {r.utt_id for r in self.corpus.manifest.subset("test-seen", "test-unseen")}


class DecodeLex40:
    """CLI recognition passes over models trained through the CLI in set-up."""

    def __init__(self, spec, cfg, jobs, run_seed, work):
        self.spec, self.cfg, self.jobs, self.run_seed = spec, cfg, jobs, run_seed
        self.work = work
        self.train_s = []

    def setup(self, k):
        root = self.work / f"setup{k}"
        root.mkdir(parents=True)
        cfg_path = root / "config.json"
        cfg_path.write_text(json.dumps(self.cfg))
        common = ["--config", str(cfg_path)]
        corpus = root / "corpus"
        self.cli("gen-corpus", *common, "--out", corpus)
        self.names = relabel(corpus, self.run_seed)
        t0 = perf_counter()
        with_corpus = common + ["--corpus", str(corpus)]
        self.cli("pretrain", *with_corpus, "--out", root / "pre.spm")
        self.cli("finetune", *with_corpus, "--init", root / "pre.spm",
                 "--out", root / "ft.spm", "--adapter-out", root / "adapter.spm")
        self.cli("train-am", *with_corpus, "--features", "fbk", "--out", root / "am_fbk.spm")
        self.cli("train-am", *with_corpus, "--features", "fbk+w2v-bn",
                 "--model", root / "ft.spm", "--adapter", root / "adapter.spm",
                 "--out", root / "am_fused.spm")
        self.train_s.append(perf_counter() - t0)
        self.root, self.corpus, self.common = root, corpus, common

    @staticmethod
    def cli(*argv):
        code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"sslasr {argv[0]} exited with {code}")

    def run_pass(self, k):
        root, out = self.root, self.work / f"pass{k}"
        out.mkdir()
        models = ["--model", root / "ft.spm", "--adapter", root / "adapter.spm"]
        decode = ["--lexicon", self.corpus / "lexicon.json", "--corpus", self.corpus,
                  "--jobs", self.jobs]
        t0 = perf_counter()
        self.cli("decode", *self.common, *decode, "--am", root / "am_fbk.spm",
                 "--features", "fbk", "--save-streams", out / "post_fbk",
                 "--out", out / "fbk.jsonl")
        self.cli("decode", *self.common, *decode, "--am", root / "am_fused.spm",
                 "--features", "fbk+w2v-bn", *models, "--save-streams", out / "post_fused",
                 "--out", out / "fused.jsonl")
        self.cli("joint-decode", *self.common, "--lexicon", self.corpus / "lexicon.json",
                 "--streams", f"{out / 'post_fused'},{out / 'post_fbk'}",
                 "--weights", self.spec["weights"], "--nbest", self.spec["nbest"],
                 "--nbest-out", out / "nbest.jsonl", "--jobs", self.jobs,
                 "--out", out / "joint.jsonl")
        self.cli("rescore", *self.common, "--nbest", out / "nbest.jsonl",
                 "--corpus", self.corpus, *models, "--out", out / "rescored.jsonl")
        t1 = perf_counter()
        for s in SYSTEMS:
            self.cli("score", *self.common, "--hyp", out / f"{s}.jsonl",
                     "--corpus", self.corpus, "--out", out / f"{s}.report.json")
        t2 = perf_counter()
        hyps, reports, files = {}, {}, {}
        for s in SYSTEMS:
            data = (out / f"{s}.jsonl").read_bytes()
            files[s] = hashlib.sha256(data).hexdigest()
            rows = [json.loads(line) for line in data.decode().splitlines() if line.strip()]
            hyps[s] = [(r["utt_id"], list(r["words"]), r["cost"]) for r in rows]
            reports[s] = json.loads((out / f"{s}.report.json").read_text())
        shutil.rmtree(out)
        times = {"recognize_s": t1 - t0, "wall_s": t2 - t0}
        return times, {"hyps": hyps, "reports": reports, "files": files}

    def test_ids(self):
        manifest = pipeline.Manifest.load(self.corpus / "manifest.jsonl")
        return {r.utt_id for r in manifest.subset("test-seen", "test-unseen")}


WORKLOADS = {"recipe": Recipe, "decode-lex40": DecodeLex40}


def check_pass(hyps, reports, test_ids, max_wer):
    """Count failed (utterance x system) results and collect problems. A
    result fails if it is missing, duplicated, empty or has a non-finite
    cost."""
    failed, problems = 0, []
    for s in SYSTEMS:
        seen = {}
        for utt, words, cost in hyps[s]:
            ok = bool(words) and isinstance(cost, (int, float)) and math.isfinite(cost)
            seen[utt] = ok and utt not in seen
        extra = set(seen) - test_ids
        if extra:
            problems.append(f"{s}: {len(extra)} hypotheses for unknown utterances")
        failed += sum(1 for utt in test_ids if not seen.get(utt, False))
        wer = reports[s]["overall"]["wer_percent"]
        if not math.isfinite(wer) or (max_wer is not None and wer > max_wer):
            problems.append(f"{s}: overall WER {wer}")
    return failed, problems


def check_history(key, digests, problems):
    """Digests must repeat across runs of the same code at the same
    workload seed, whatever the run seed or --jobs."""
    WORK.mkdir(exist_ok=True)
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known and known[key] != digests:
        problems.append(f"hypothesis digests differ from an earlier run ({key})")
    else:
        known[key] = digests
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def finetune_scopes(specs):
    """Every fine-tuning scope a workload uses, so both report the same
    per-scope metrics."""
    scopes = set()
    for spec in specs.values():
        if isinstance(spec, dict) and "config" in spec:
            cfg = load_config(None, spec["config"])
            scopes.update(stage["scope"] for stage in cfg["finetune"]["stages"])
    return sorted(scopes)


def run(args):
    specs = json.loads((Path(__file__).parent / "workloads.json").read_text())
    spec = specs[args.workload]
    workload_seed = spec["seed"] if args.workload_seed is None else args.workload_seed
    jobs = spec["jobs"] if args.jobs is None else args.jobs
    size = spec["tiny"] if args.tiny else {}
    cfg = load_config(None, merge_config(merge_config(spec["config"], size),
                                         {"seed": workload_seed}))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = Tracer(sslasr) if args.trace else None
    try:
        workload = WORKLOADS[args.workload](spec, cfg, jobs, args.seed, work)
        return measure(args, spec, workload, tracer, jobs, workload_seed,
                       finetune_scopes(specs))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, workload, tracer, jobs, workload_seed, scopes):
    setup_s = []
    n_setups = 1 if args.trace else spec["setups"]
    if tracer is not None:
        tracer.install()  # only for the final losses of set-up training
    for k in range(n_setups):
        t0 = perf_counter()
        workload.setup(k)
        setup_s.append(perf_counter() - t0)
        if k:  # each set-up builds the same files; keep the last only
            shutil.rmtree(workload.work / f"setup{k - 1}")
    if tracer is not None:
        tracer.uninstall()
    test_ids = workload.test_ids()
    max_wer = None if args.tiny else MAX_WER

    passes = []  # (times, output) of untraced passes
    start = perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes)))
        elapsed = perf_counter() - start
        if args.trace or elapsed + passes[-1][0]["wall_s"] > args.seconds:
            break
    traced = None
    if tracer is not None:
        tracer.reset()
        tracer.install()
        try:
            traced = tracer.span("bench.pass", workload.run_pass, len(passes))
        finally:
            tracer.uninstall()

    attempted = failed = 0
    problems = []
    digests = None
    for _, out in passes + ([traced] if traced else []):
        n_failed, found = check_pass(out["hyps"], out["reports"], test_ids, max_wer)
        attempted += len(test_ids) * len(SYSTEMS)
        failed += n_failed
        problems += found
        these = {s: digest(out["hyps"][s], workload.names) for s in SYSTEMS}
        if digests is None:
            digests, file_digests = these, out["files"]
        elif these != digests:
            problems.append("hypotheses differ between passes of one run")
    key = f"{args.workload}:{code_digest(workload.cfg)}"
    check_history(key, digests, problems)

    reports = passes[0][1]["reports"]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(p[0]["wall_s"] for p in passes),
        "recognize_s": statistics.median(p[0]["recognize_s"] for p in passes),
        "ok_frac": 1.0 - failed / attempted,
    }
    train = [p[0]["train_s"] for p in passes if "train_s" in p[0]] or workload.train_s
    metrics["train_s"] = statistics.median(train)
    for s in SYSTEMS:
        metrics[f"wer_{s}"] = reports[s]["overall"]["wer_percent"]
    if tracer is not None:
        metrics.update(layer_metrics(tracer, passes, traced, len(test_ids), scopes))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "digests": digests,
        "file_digests": file_digests,
        "passes": len(passes),
        "setups": len(setup_s),
        "env": environment(jobs, workload_seed, args.seed),
    }


def layer_metrics(tracer, passes, traced, n_test, scopes):
    """Per-layer figures of the traced pass. A wrapped function that was
    not called reports 0, as does the final loss of a model the workload
    does not train."""
    out = {}
    for name in tracer.names:
        st = tracer.stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"], out[f"{name}.s"], out[f"{name}.self_s"] = st
    for name in ("ctc.ctc_loss", "ctc.ctc_forward_score", "decoder.viterbi_align_cost"):
        out[f"{name}.cells"] = tracer.extra[f"{name}.cells"]
    for scope in scopes:
        out[f"encoder.finetune_ctc.{scope}.s"] = tracer.extra[f"encoder.finetune_ctc.{scope}.s"]
    for key, _ in FINALS.values():
        out[key] = tracer.finals.get(key, 0.0)
    steps = tracer.calls("params.Adam.step")
    out["params.Adam.step.tensors_per_step"] = (
        tracer.extra["params.Adam.step.tensors"] / steps if steps else 0.0)
    out["encoder.encode_raw.per_test_utt"] = (
        tracer.extra["encoder.SslEncoder.encode_raw.recognition_calls"] / n_test)
    pass_s = tracer.extra["decoder.pass_s"]
    out["decoder.frames_per_s"] = tracer.extra["decoder.pass_frames"] / pass_s if pass_s else 0.0
    for command in ("decode", "joint-decode", "rescore", "score"):
        out[f"cli.{command}.s"] = tracer.inclusive(f"cli.cmd_{command.replace('-', '_')}")
    times, output = traced
    hyps, traced_reports = output["hyps"], output["reports"]
    joint = {utt: words for utt, words, _ in hyps["joint"]}
    changed = sum(1 for utt, words, _ in hyps["rescored"] if joint.get(utt) != words)
    out["rescore.changed_1best_frac"] = changed / max(1, len(hyps["rescored"]))
    for s in SYSTEMS:
        report = traced_reports[s]
        for part in PARTITIONS:
            group = report["by_subset"] if part.startswith("test") else report["by_condition"]
            out[f"corpus.wer.{s}.{part}"] = group[part]["wer_percent"] if part in group else 0.0
    untraced = statistics.median(p[0]["wall_s"] for p in passes)
    out["trace.overhead_frac"] = times["wall_s"] / untraced - 1.0
    out["trace.unattributed_frac"] = tracer.unattributed_s("bench.pass") / times["wall_s"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="run seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True, help="record JSON output path")
    args = parser.parse_args(argv)
    # keep the per-epoch INFO lines of the CLI and training loops off stderr
    logging.basicConfig(level=logging.WARNING)
    record = run(args)
    Path(args.out).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
