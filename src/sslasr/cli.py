"""Command-line front end: one JSON config file, reproducible seeds, and
subcommands covering the whole pipeline.

Two subcommands decode. ``decode`` computes one system's posterior
streams for a corpus's test split, from ``--features`` and an ``--am``,
and decodes them; ``--save-streams`` keeps the streams in an archive.
``joint-decode`` is the one decoder of saved archives and the one writer
of N-best lists: one archive with ``--weights 1`` decodes that system
again, byte for byte, and several are joined frame by frame.

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import sys
from pathlib import Path

from . import pipeline
from .config import load_config
from .container import ContainerError
from .corpus import Manifest, json_lines
from .ctc import LATTICE_WINDOW, NBestList, _is_str_list
from .decoder import Lexicon, parse_weight_ratio
from .params import ParameterStore
from .rescore import rescore_hypotheses

logger = logging.getLogger("sslasr")


def _add_common(p):
    p.add_argument("--config", help="global JSON config file")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored: decoding batches the test set in one process")


def _nbest_depth(text):
    """``--nbest``: an N-best depth, an int >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"N-best depth must be an int >= 1, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sslasr",
        description="Self-supervised representations integrated into hybrid ASR: "
        "feature fusion, frame-level joint decoding, and N-best rescoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate the synthetic corpus")
    _add_common(p)
    p.add_argument("--out", required=True, help="corpus output directory")

    p = sub.add_parser("pretrain", help="contrastive + diversity pretraining")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True,
                   help="parameter store output (.spm, a sslasr.container file)")

    p = sub.add_parser("finetune", help="CTC fine-tuning with the bottleneck adapter")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--init", required=True, help="pretrained parameter store")
    p.add_argument("--out", required=True, help="fine-tuned parameter store")
    p.add_argument("--adapter-out", required=True, help="adapter parameter store")

    p = sub.add_parser("invert", help="train the articulatory inversion model, the "
                                      "--mdn of the artic feature stream")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--mdn-out", required=True, help="inversion parameter store")

    p = sub.add_parser("train-am", help="train a frame acoustic model")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--features", default="fbk",
                   help="stream spec: fbk | fbk+w2v-bn | fbk+w2v-bn+artic")
    p.add_argument("--model", help="fine-tuned encoder store (for w2v-bn/artic)")
    p.add_argument("--adapter", help="adapter store (for w2v-bn/artic)")
    p.add_argument("--mdn", help="inversion store (for artic)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("decode", help="decode a corpus test split with one acoustic model",
                       description="Decode a corpus test split into each utterance's best "
                       "word. For N-best lists, save the streams and run joint-decode "
                       "--streams PATH --weights 1 --nbest N, which writes the same hypotheses.")
    _add_common(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--am", required=True, help="acoustic model store")
    p.add_argument("--features", default="fbk",
                   help="stream spec for --am: fbk | fbk+w2v-bn | fbk+w2v-bn+artic")
    p.add_argument("--model", help="encoder store (for w2v-bn/artic features)")
    p.add_argument("--adapter", help="adapter store (for w2v-bn/artic features)")
    p.add_argument("--mdn", help="inversion store (for artic features)")
    p.add_argument("--save-streams",
                   help="write the posterior streams to this archive, for joint-decode --streams")
    p.add_argument("--out", help="hypotheses JSON-lines output (default stdout)")

    p = sub.add_parser("joint-decode", help="decode saved posterior stream archives: one "
                                            "system, or several joined frame by frame")
    _add_common(p)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--streams", required=True,
                   help="comma-separated posterior stream archives, one per system")
    p.add_argument("--weights", required=True,
                   help='one weight per archive in ratio syntax, e.g. "1", "3:2" or "9:1:5"')
    p.add_argument("--nbest", type=_nbest_depth, help="also write n-best lists of this depth")
    p.add_argument("--nbest-out", help="n-best JSON-lines output path (needs --nbest)")
    p.add_argument("--out", help="hypotheses JSON-lines output (default stdout)")

    p = sub.add_parser("rescore", help="second-pass rescoring of n-best lists")
    _add_common(p)
    p.add_argument("--nbest", required=True, help="n-best JSON-lines file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True, help="fine-tuned encoder store")
    p.add_argument("--adapter", required=True)
    p.add_argument("--weights", help='ratio syntax "alpha:beta", e.g. "2:9"')
    p.add_argument("--out")

    p = sub.add_parser("score", help="WER with seen/unseen and condition partitions")
    _add_common(p)
    p.add_argument("--hyp", required=True, help="hypotheses JSON-lines")
    p.add_argument("--manifest", help="manifest path (default: corpus manifest)")
    p.add_argument("--corpus")
    p.add_argument("--out", help="JSON report output (default stdout)")

    return parser


def _config(args):
    return load_config(args.config)


def _emit_lines(lines, out):
    text = "\n".join(lines) + ("\n" if lines else "")
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_stream_sources(spec):
    """Read each comma-separated posterior stream archive into
    ``{utt_id: PosteriorStream}``; every source must hold the same
    utterances, and an archive that does not read fails by its path."""
    items = spec.split(",")
    sources = []
    for path in map(Path, items):
        if path.is_dir():
            raise IsADirectoryError(f"stream source {path} is a directory; a stream set "
                                    "is one archive file (decode --save-streams PATH)")
        if not path.exists():
            raise FileNotFoundError(f"stream source {path} does not exist")
        try:
            sources.append(pipeline.read_streams(path))
        except ContainerError as exc:
            raise ContainerError(f"stream source {path}: {exc}") from None
    utts = set().union(*sources)
    if not utts:
        raise ValueError("stream sources hold no utterances")
    lacking = [len(utts - set(s)) for s in sources]
    if any(lacking):
        raise ValueError(f"stream sources hold different utterance sets ({len(utts)} ids "
                         "in all): " + ", ".join(f"{item} lacks {n}" for item, n in
                                                 zip(items, lacking)))
    return sources


def _trend(history, key):
    """``key`` at the first and the last epoch of a training history."""
    return f"{history[0][key]:.4f} -> {history[-1][key]:.4f}" if history else "(0 epochs)"


def _hyp_lines(hyps):
    return [json.dumps(vars(h)) for h in hyps]


def cmd_gen_corpus(args):
    cfg = _config(args)
    manifest, _ = pipeline.generate_corpus(args.out, cfg)
    print(f"wrote {len(manifest)} utterances to {args.out}")


def cmd_pretrain(args):
    cfg = _config(args)
    corpus = pipeline.Corpus(args.corpus)
    model, history = pipeline.pretrain_encoder(corpus, cfg)
    ParameterStore.from_module(model).save(args.out)
    print(f"pretrained {len(history)} epochs; combined loss {_trend(history, 'combined')}")


def cmd_finetune(args):
    cfg = _config(args)
    corpus = pipeline.Corpus(args.corpus)
    model = pipeline.load_encoder(cfg, args.init)
    adapter, histories = pipeline.finetune_encoder(corpus, model, cfg)
    ParameterStore.from_module(model).save(args.out)
    ParameterStore.from_module(adapter).save(args.adapter_out)
    last = histories[-1][-1]["ctc_loss"] if histories and histories[-1] else float("nan")
    print(f"fine-tuned; final CTC loss {last:.4f}")


def cmd_invert(args):
    cfg = _config(args)
    corpus = pipeline.Corpus(args.corpus)
    model = pipeline.load_encoder(cfg, args.model)
    adapter = pipeline.load_adapter(cfg, model.cfg.d_model, args.adapter)
    mdn_model, history = pipeline.train_inversion_model(corpus, model, adapter, cfg)
    ParameterStore.from_module(mdn_model).save(args.mdn_out)
    print(f"inversion NLL {_trend(history, 'nll')}")


def _feature_fn_from_args(args, cfg, corpus):
    """The features function of ``--features``, loading only the models its
    streams need; an unknown stream, or a model flag it does not need,
    fails by name before any file is read."""
    needed = set()
    for part in args.features.split("+"):
        if part not in pipeline._STREAM_MODELS:
            raise ValueError(f"unknown feature stream {part!r}")
        needed.update(pipeline._STREAM_MODELS[part])
    given = {"--model": args.model, "--adapter": args.adapter, "--mdn": args.mdn}
    unused = [flag for flag, path in given.items() if path and flag not in needed]
    if unused:
        raise ValueError(f"--features {args.features} computes from no "
                         f"{' or '.join(unused)}; leave it out")
    model = pipeline.load_encoder(cfg, args.model) if args.model else None
    adapter = (pipeline.load_adapter(cfg, cfg["encoder"]["d_model"], args.adapter)
               if args.adapter else None)
    mdn_model = pipeline.load_mdn(cfg, args.mdn) if args.mdn else None
    return pipeline.build_feature_fn(corpus, args.features, model=model, adapter=adapter,
                                     mdn_model=mdn_model)


def cmd_train_am(args):
    cfg = _config(args)
    corpus = pipeline.Corpus(args.corpus)
    feature_fn = _feature_fn_from_args(args, cfg, corpus)
    am, history = pipeline.train_frame_am(corpus, feature_fn, cfg)
    ParameterStore.from_module(am).save(args.out)
    print(f"trained AM on {args.features}; cross-entropy {_trend(history, 'cross_entropy')}")


def cmd_decode(args):
    cfg = _config(args)
    lexicon = Lexicon.load(args.lexicon)
    corpus = pipeline.Corpus(args.corpus)
    feature_fn = _feature_fn_from_args(args, cfg, corpus)
    am = pipeline.load_am(cfg, args.am)
    records = sorted(corpus.subset("test-seen", "test-unseen"), key=lambda r: r.utt_id)
    stream_list = [s for feats in feature_fn(records) for s in am.posteriors(feats)]
    streams = {r.utt_id: s for r, s in zip(records, stream_list)}
    if args.save_streams:
        pipeline.write_streams(args.save_streams, streams)
    hyps, _ = pipeline.decode_utterances([(u, [s], None) for u, s in streams.items()],
                                         lexicon, lexicon.vocab())
    _emit_lines(_hyp_lines(hyps), args.out)


def cmd_joint_decode(args):
    if args.nbest_out and not args.nbest:
        raise ValueError(f"--nbest-out {args.nbest_out} needs --nbest N")
    _config(args)  # validates the config file if given
    lexicon = Lexicon.load(args.lexicon)
    weights = parse_weight_ratio(args.weights, len(args.streams.split(",")), "--weights")
    sources = _load_stream_sources(args.streams)
    tasks = [(u, [src[u] for src in sources], weights) for u in sources[0]]
    hyps, nbests = pipeline.decode_utterances(tasks, lexicon, lexicon.vocab(), args.nbest or 1)
    if args.nbest_out:
        _emit_lines([nb.to_json() for nb in nbests], args.nbest_out)
    _emit_lines(_hyp_lines(hyps), args.out)


def cmd_rescore(args):
    cfg = _config(args)
    what = "rescoring weights alpha:beta (--weights)"
    alpha, beta = (parse_weight_ratio(args.weights, 2, what) if args.weights
                   else (cfg["rescore"]["alpha"], cfg["rescore"]["beta"]))
    corpus = pipeline.Corpus(args.corpus)
    model = pipeline.load_encoder(cfg, args.model)
    adapter = pipeline.load_adapter(cfg, model.cfg.d_model, args.adapter)
    by_id = corpus.manifest.by_id()
    hyps = []
    with open(args.nbest) as fh:
        lists = json_lines(args.nbest, fh, NBestList.from_json_dict)
        # one lattice window of lists at a time is read, encoded and rescored
        while nbests := list(itertools.islice(lists, LATTICE_WINDOW)):
            for nbest in nbests:
                if nbest.utt_id not in by_id:
                    raise KeyError(f"utterance {nbest.utt_id!r} not in the corpus manifest")
            records = [by_id[nbest.utt_id] for nbest in nbests]
            ssl = [stream for _, _, _, h in
                   pipeline.record_batches(corpus, records, model, adapter)
                   for stream in model.head_posteriors(h)]
            hyps += rescore_hypotheses(nbests, ssl, corpus.vocab, alpha, beta)
    _emit_lines(_hyp_lines(hyps), args.out)


def _hyp_pair(d):
    """``(utt_id, words)`` of one hypothesis line's object."""
    if not (isinstance(d, dict) and isinstance(d.get("utt_id"), str)
            and _is_str_list(d.get("words"))):
        raise ValueError('a hypothesis is an object with a string "utt_id" and a list of '
                         'strings "words"')
    return d["utt_id"], d["words"]


def cmd_score(args):
    _config(args)  # validates the config file if given
    if args.manifest:
        manifest = Manifest.load(args.manifest)
    elif args.corpus:
        manifest = Manifest.load(Path(args.corpus) / "manifest.jsonl")
    else:
        raise ValueError("score needs --manifest or --corpus")
    with open(args.hyp) as fh:
        pairs = list(json_lines(args.hyp, fh, _hyp_pair))
    report = pipeline.score_hypotheses(pairs, manifest)
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    print(report.table())


COMMANDS = {
    "gen-corpus": cmd_gen_corpus,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "invert": cmd_invert,
    "train-am": cmd_train_am,
    "decode": cmd_decode,
    "joint-decode": cmd_joint_decode,
    "rescore": cmd_rescore,
    "score": cmd_score,
}


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
