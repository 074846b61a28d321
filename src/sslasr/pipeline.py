"""End-to-end orchestration over a corpus directory: pretraining,
fine-tuning, feature extraction, acoustic-model training, single and
joint decoding, N-best rescoring, and scoring. The CLI, the demos, and
the acceptance suite all drive these functions.

Decoding runs in this process, and every decode pass of the recipe and
the CLI goes through ``decode_utterances``: a single system's streams and
a joint system's weighted streams alike are tasks of one call, which
decodes an isolated-word test set in batched lattice passes, one window
of ``ctc.LATTICE_WINDOW`` utterances each
(``decoder.isolated_nbest_batch``). Every rescoring pass goes through
``rescore.rescore_hypotheses``, which scores the entries of the joint
N-best lists the same way, into one cost matrix, and re-ranks each list
by its combined costs; the CLI's ``rescore`` reads, encodes and rescores
its N-best file one such window of lists at a time.

Forward passes over many utterances run in ragged batches.
``record_batches`` reads records just in time, a fixed window at a time
(``encoder.windows``), and runs each window through the encoder as one
ragged batch (``nn.Ragged``); the window's features go through a frame
acoustic model, and its head inputs through the CTC head, as one batch
too. Every result equals the per-utterance forward of training bit for
bit. Every feature stream is computed from the models (``build_feature_fn``);
none is read from a file.
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .bottleneck import BottleneckAdapter, train_adapter
from .config import (
    am_config,
    bottleneck_config,
    corpus_config,
    encoder_config,
    mdn_config,
)
from .corpus import Manifest, gen_synth_corpus, partition_report
from .ctc import PosteriorStream, _row_logsumexp
from .decoder import (
    Lexicon,
    best_hypothesis,
    interpolate_posteriors,
    isolated_nbest_batch,
    parse_weight_ratio,
)
from .encoder import SslEncoder, finetune_ctc, pretrain, windows
from .features import (
    FRAME_SHIFT_US,
    FeatureMatrix,
    compute_fbank,
    fuse_features,
    read_archive,
    read_wav,
    write_archive,
)
from .frame_am import FrameAm, train_am, uniform_alignment
from .inversion import MdnModel, mdn_forward, mdn_predict, train_inversion
from .nn import Ragged
from .params import ParameterStore
from .rescore import rescore_hypotheses

logger = logging.getLogger(__name__)


class Corpus:
    """A generated corpus directory: manifest, lexicon, audio access."""

    def __init__(self, root):
        self.root = Path(root)
        self.manifest = Manifest.load(self.root / "manifest.jsonl")
        self.lexicon = Lexicon.load(self.root / "lexicon.json")
        self.vocab = self.lexicon.vocab()

    def subset(self, *names):
        """The manifest's records of the subsets ``names``, in file order;
        if they hold none, ValueError names the manifest and the subsets."""
        records = self.manifest.subset(*names)
        if not records:
            raise ValueError(f"{self.root / 'manifest.jsonl'} holds no "
                             f"{' or '.join(names)} records")
        return records

    def audio(self, record):
        return read_wav(self.root / record.audio_path)

    def tokens(self, record):
        """Token-id sequence of the record's transcript."""
        symbols = self.lexicon.tokens_of_words(record.transcript.split())
        return self.vocab.ids_of(symbols)


def generate_corpus(out_dir, cfg):
    manifest, lexicon = gen_synth_corpus(out_dir, corpus_config(cfg), cfg["seed"])
    logger.info("generated %d utterances under %s", len(manifest), out_dir)
    return manifest, lexicon


def pretrain_encoder(corpus: Corpus, cfg):
    section = cfg["pretrain"]
    audio = [corpus.audio(r).samples for r in corpus.subset("train")]
    return pretrain(audio, encoder_config(cfg), epochs=section["epochs"], seed=cfg["seed"],
                    optimizer_cfg=section["optimizer"])


def finetune_encoder(corpus: Corpus, model: SslEncoder, cfg):
    """CTC fine-tuning with the configured stage list. No stage trains the
    CNN feature encoder: each training WAV is read and encoded once, one
    ``encode_raw`` batch per window, and no waveform is kept. The
    bottleneck adapter is first initialized by standalone reconstruction
    training on the pretrained context features (one ragged
    ``contextualize`` per window), then trained jointly with the CTC loss
    in the encoder-updating stages."""
    seed = cfg["seed"]
    section = cfg["finetune"]
    train_records = corpus.subset("train")
    features, contexts = [], []
    for window in windows(train_records):
        z = model.encode_raw([corpus.audio(r) for r in window])
        features += z
        rows, batch = Ragged.of(z)
        contexts += batch.split(model.contextualize(rows, batch=batch))
    adapter, _ = train_adapter(contexts, bottleneck_config(cfg, model.cfg.d_model),
                               epochs=section["adapter_init_epochs"], seed=seed + 7,
                               optimizer_cfg=section["adapter_init_optimizer"])
    del contexts  # only the adapter's initialisation reads them
    dataset = [(z, corpus.tokens(r)) for z, r in zip(features, train_records)]
    histories = [finetune_ctc(dataset, model, corpus.vocab.width, epochs=stage["epochs"],
                              seed=seed + i, scope=stage["scope"], adapter=adapter,
                              optimizer_cfg=stage["optimizer"])
                 for i, stage in enumerate(section["stages"])]
    return adapter, histories


def load_encoder(cfg, path) -> SslEncoder:
    """Rebuild an encoder from the global config and a parameter store;
    a stored CTC head is re-attached with its stored width."""
    store = ParameterStore.load(path)
    model = SslEncoder(encoder_config(cfg), seed=0)
    if "ctc_head.w" in store.tensors:
        model.attach_ctc_head(store.tensors["ctc_head.w"].shape[1], seed=0)
    store.load_into(model)
    return model


def load_adapter(cfg, d_model, path) -> BottleneckAdapter:
    adapter = BottleneckAdapter(bottleneck_config(cfg, d_model), seed=0)
    ParameterStore.load(path).load_into(adapter)
    return adapter


def load_mdn(cfg, path) -> MdnModel:
    model = MdnModel(mdn_config(cfg), seed=0)
    ParameterStore.load(path).load_into(model)
    return model


def load_am(cfg, path) -> FrameAm:
    """Rebuild a frame acoustic model from the global config and a
    parameter store; its feature width and class count are read from the
    stored first-layer and output weights."""
    store = ParameterStore.load(path)
    am_cfg = am_config(cfg)
    first = "am.hidden0.w" if am_cfg.hidden_dims else "am.out.w"
    if first not in store.tensors or "am.out.w" not in store.tensors:
        raise ValueError(f"{path} holds no frame acoustic model ({first}, am.out.w)")
    d_in, n_classes = store.tensors[first].shape[0], store.tensors["am.out.w"].shape[1]
    if d_in % len(am_cfg.offsets):
        raise ValueError(f"{path}: input width {d_in} is not a multiple of the "
                         f"{len(am_cfg.offsets)} configured am.offsets")
    am = FrameAm(am_cfg, d_in // len(am_cfg.offsets), n_classes, seed=0)
    store.load_into(am)
    return am


def record_batches(corpus: Corpus, records, model: SslEncoder = None, adapter=None):
    """Read ``records`` just in time, a fixed window at a time
    (``encoder.windows``), and yield ``(records, audio, bn, h)`` per
    window, in order: the window's records, their AudioBuffers and, with
    a model, the lists of their :meth:`SslEncoder.represent` outputs, run
    as one ragged batch (both None without a model)."""
    for window in windows(records):
        audio = [corpus.audio(r) for r in window]
        bn, h = (None, None) if model is None else model.represent(audio, adapter)
        yield window, audio, bn, h


def bottleneck_features(corpus: Corpus, records, model: SslEncoder,
                        adapter: BottleneckAdapter):
    """Yield the 10 ms bottleneck streams of ``records`` in order (no
    dropout), from one ragged encoder batch per window; one window's
    streams are held at a time."""
    for _, _, bn, _ in record_batches(corpus, records, model, adapter):
        for rows in bn:
            yield FeatureMatrix(rows)


def articulatory_map(d_in, d_artic, seed):
    """The synthetic articulator: a fixed linear map used to fabricate
    ground-truth trajectories from speech representations."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_artic))
    b = rng.normal(0.0, 0.1, size=d_artic)
    return a, b


def train_inversion_model(corpus: Corpus, model, adapter, cfg):
    """Train the MDN on (bottleneck representation, synthetic articulatory)
    pairs from the train subset; targets are a fixed linear map of the
    representations plus Gaussian noise."""
    seed = cfg["seed"]
    section = cfg["mdn"]
    mdn_cfg = mdn_config(cfg)
    a, b = articulatory_map(mdn_cfg.d_in, mdn_cfg.d_artic, seed + 17)
    noise_rng = np.random.default_rng(seed + 18)
    sigma = section["map_noise"]
    pairs = []
    for bn in bottleneck_features(corpus, corpus.subset("train"), model, adapter):
        target = bn.data.astype(np.float64) @ a + b
        target += sigma * noise_rng.normal(size=target.shape)
        pairs.append((bn.data.astype(np.float64), target))
    return train_inversion(pairs, mdn_cfg, epochs=section["epochs"], seed=seed,
                           optimizer_cfg=section["optimizer"])


# the models each feature stream is computed from, by the CLI flags that
# load them
_STREAM_MODELS = {"fbk": (), "w2v-bn": ("--model", "--adapter"),
                  "artic": ("--model", "--adapter", "--mdn")}


def build_feature_fn(corpus, kind, model=None, adapter=None, mdn_model=None):
    """Return the features function of a feature spec like "fbk",
    "fbk+w2v-bn", or "fbk+w2v-bn+artic". It takes a list of records and
    yields their FeatureMatrix objects in order, one list per window of
    records (``record_batches``). Each is ``features.fuse_features`` of
    the record's streams.

    The bottleneck stream comes from ``model`` and ``adapter``, and the
    articulatory stream is the MDN's (``mdn_model``) trajectory of it.
    Each record's WAV is read once and encoded at most once, whatever
    streams it feeds; a window's records are encoded as one ragged batch.
    An unknown stream, and a stream whose model is missing, raise
    ValueError here, the latter naming the CLI flags that would supply it
    (``_STREAM_MODELS``).
    """
    parts = kind.split("+")
    given = {"--model": model, "--adapter": adapter, "--mdn": mdn_model}
    for part in parts:
        if part not in _STREAM_MODELS:
            raise ValueError(f"unknown feature stream {part!r}")
        missing = [flag for flag in _STREAM_MODELS[part] if given[flag] is None]
        if missing:
            raise ValueError(f"feature stream {part!r} needs {' and '.join(missing)}")
    encoder = model if any(part != "fbk" for part in parts) else None

    def stream(part, audio, rows):
        if part == "fbk":
            return compute_fbank(audio)
        return rows if part == "w2v-bn" else mdn_predict(mdn_forward(rows, mdn_model))

    def features(records):
        for _, audio, window_bn, _ in record_batches(corpus, records, encoder, adapter):
            feats = []
            for j, samples in enumerate(audio):
                rows = None if window_bn is None else FeatureMatrix(window_bn[j])
                feats.append(fuse_features([stream(part, samples, rows) for part in parts]))
            yield feats

    return features


def write_streams(path, streams):
    """Write ``{utt_id: PosteriorStream}`` to one feature archive, log
    probabilities as each payload (float32)."""
    write_archive(path, ((utt_id, FeatureMatrix(s.logp)) for utt_id, s in streams.items()))


def read_streams(path) -> dict[str, PosteriorStream]:
    """Read the ``{utt_id: PosteriorStream}`` that ``write_streams`` wrote."""
    streams = {}
    for utt_id, feats in read_archive(path).items():
        logp = feats.data.astype(np.float64)
        # float32 storage rounds the rows; renormalize exactly
        streams[utt_id] = PosteriorStream(logp - _row_logsumexp(logp)[:, None])
    return streams


def alignment_labels(corpus: Corpus, record, feats: FeatureMatrix, cfg):
    """Per-frame labels for AM training: uniform segmentation with blank
    edges matching the generator's silence margins."""
    edge_ms = cfg["corpus"]["edge_ms"]
    edge_frames = int(round(edge_ms * 1000.0 / FRAME_SHIFT_US))
    return uniform_alignment(feats.n_frames, corpus.tokens(record), edge_frames)


def train_frame_am(corpus: Corpus, feature_fn, cfg, seed=None):
    seed = cfg["seed"] if seed is None else seed
    section = cfg["am"]
    records = corpus.subset("train")
    feats = [f for window in feature_fn(records) for f in window]
    dataset = [(f, alignment_labels(corpus, record, f, cfg))
               for record, f in zip(records, feats)]
    return train_am(dataset, am_config(cfg), d_feat=dataset[0][0].dim,
                    n_classes=corpus.vocab.width, epochs=section["epochs"], seed=seed,
                    optimizer_cfg=section["optimizer"])


def decode_utterances(tasks, lexicon: Lexicon, vocab, n=1):
    """Decode a test set of ``(utt_id, streams, weights)`` tasks; returns
    ``(hypotheses, nbests)`` in utterance-id order.

    A task with one stream and no weights decodes that stream; otherwise
    its streams are interpolated first (equal weights when None); streams
    of unequal shapes raise ValueError naming the utterance. The
    tasks are decoded in batched lattice passes, one window of
    ``ctc.LATTICE_WINDOW`` streams each (``decoder.isolated_nbest_batch``),
    into N-best lists of depth ``n``, each entry costed by its alignment
    cost, and each hypothesis is the head of its list.
    """
    tasks = sorted(tasks, key=lambda task: task[0])
    utt_ids, streams = [], []
    for utt_id, parts, weights in tasks:
        utt_ids.append(utt_id)
        if len(parts) == 1 and weights is None:
            streams.append(parts[0])
        else:
            w = np.ones(len(parts)) if weights is None else weights
            try:
                streams.append(interpolate_posteriors(parts, w))
            except ValueError as exc:
                raise ValueError(f"utterance {utt_id!r}: {exc}") from None
    nbests = isolated_nbest_batch(streams, lexicon, vocab, n, utt_ids)
    return [best_hypothesis(nbest) for nbest in nbests], nbests


def score_hypotheses(pairs, manifest: Manifest):
    """WER report of (utt_id, hypothesis words) pairs against the
    manifest's transcripts; an id the manifest lacks raises KeyError, an
    id given twice ValueError, and so does a test utterance left without a
    hypothesis (to score a subset, pass a manifest of that subset)."""
    by_id = manifest.by_id()
    per_utt = {}
    for utt_id, words in pairs:
        if utt_id not in by_id:
            raise KeyError(f"utterance {utt_id!r} not in manifest")
        if utt_id in per_utt:
            raise ValueError(f"utterance {utt_id!r} has more than one hypothesis")
        per_utt[utt_id] = (by_id[utt_id].transcript.split(), list(words))
    missing = [r.utt_id for r in manifest.subset("test-seen", "test-unseen")
               if r.utt_id not in per_utt]
    if missing:
        raise ValueError(f"{len(missing)} test-seen/test-unseen utterances have no "
                         f"hypothesis, the first {missing[0]!r}")
    return partition_report(per_utt, manifest)


def run_recognition(corpus: Corpus, cfg, model, adapter, jobs=1):
    """Full recognition comparison on the test subsets.

    Trains the fbk-only and fbk+w2v-bn acoustic models and decodes four
    systems: each single system, the frame-level joint system of the two
    (interpolated with ``decode.weights``) and the rescoring of the joint
    N-best lists with second-pass SSL-CTC scores (``rescore.alpha``/
    ``beta``); ``config.load_config`` has checked both weight pairs.
    The joint hypothesis is the head of its N-best list, so the mixed
    stream is decoded once. Each test utterance is read, turned into filterbanks and
    encoded once: the encoder pass gives both the bottleneck stream of the
    fused features and the CTC head input of the rescoring stream. The
    encoder, both acoustic models and the CTC head run one ragged batch
    per window of utterances (``record_batches``). Every utterance's
    streams are computed first; then each of fbk, fused and joint is one
    ``decode_utterances`` call over the test set, and the rescoring one
    ``rescore.rescore_hypotheses`` call. ``jobs`` is accepted and ignored.
    Returns a dict of hypothesis lists and WER reports per system, and the
    two acoustic models.
    """
    seed = cfg["seed"]
    weights = parse_weight_ratio(cfg["decode"]["weights"], 2, "decode.weights (fused:fbk)")
    fbk_fn = build_feature_fn(corpus, "fbk")
    fused_fn = build_feature_fn(corpus, "fbk+w2v-bn", model=model, adapter=adapter)
    logger.info("training fbk-only acoustic model")
    am_fbk, _ = train_frame_am(corpus, fbk_fn, cfg, seed=seed + 101)
    logger.info("training fbk+w2v-bn acoustic model")
    am_fused, _ = train_frame_am(corpus, fused_fn, cfg, seed=seed + 202)

    records = sorted(corpus.subset("test-seen", "test-unseen"), key=lambda r: r.utt_id)
    ids = [r.utt_id for r in records]
    s_fbk, s_fused, ssl = [], [], []
    for _, audio, bn, h in record_batches(corpus, records, model, adapter):
        fbk = [compute_fbank(a) for a in audio]
        fused = [fuse_features([f, FeatureMatrix(rows)]) for f, rows in zip(fbk, bn)]
        s_fbk += am_fbk.posteriors(fbk)
        s_fused += am_fused.posteriors(fused)
        ssl += model.head_posteriors(h)
    lexicon, vocab = corpus.lexicon, corpus.vocab
    hyps = {}
    for name, streams in (("fbk", s_fbk), ("fused", s_fused)):
        hyps[name], _ = decode_utterances([(u, [s], None) for u, s in zip(ids, streams)],
                                          lexicon, vocab)
    joint = [(u, [fused, fbk], weights) for u, fused, fbk in zip(ids, s_fused, s_fbk)]
    hyps["joint"], nbests = decode_utterances(joint, lexicon, vocab, cfg["decode"]["nbest"])
    hyps["rescored"] = rescore_hypotheses(nbests, ssl, vocab, cfg["rescore"]["alpha"],
                                          cfg["rescore"]["beta"])
    reports = {name: score_hypotheses([(h.utt_id, h.words) for h in hs], corpus.manifest)
               for name, hs in hyps.items()}
    return {"hypotheses": hyps, "reports": reports,
            "models": {"am_fbk": am_fbk, "am_fused": am_fused}}
