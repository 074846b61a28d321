"""Frame-level acoustic model: context splicing over feature frames feeding
a feed-forward classifier trained with cross-entropy against per-frame
labels (uniform segmentation of the transcript).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import PosteriorStream
from .features import FeatureMatrix
from .nn import Linear, Module, Ragged, Relu, log_softmax, log_softmax_backward
from .params import train_epochs


@dataclass
class AmConfig:
    offsets: tuple
    hidden_dims: tuple

    def __post_init__(self):
        self.offsets = tuple(int(o) for o in self.offsets)
        if not self.offsets or list(self.offsets) != sorted(set(self.offsets)):
            raise ValueError(f"offsets: must be sorted, unique and nonempty, got {self.offsets}")
        self.hidden_dims = tuple(self.hidden_dims)


def splice_context(feats: FeatureMatrix, offsets) -> FeatureMatrix:
    """Row t becomes the concatenation of rows t+o for each offset, with
    edge replication; output width is len(offsets) * D."""
    t = feats.n_frames
    idx = np.clip(np.arange(t)[:, None] + np.array(offsets, dtype=np.intp), 0, t - 1)
    return FeatureMatrix(feats.data[idx].reshape(t, -1))


class FrameAm(Module):
    """Spliced-context MLP producing log posteriors over V+1 classes."""

    def __init__(self, cfg: AmConfig, d_feat, n_classes, seed=0):
        self.cfg = cfg
        self.d_feat = d_feat
        self.n_classes = n_classes
        rng = np.random.default_rng(seed)
        d_in = d_feat * len(cfg.offsets)
        self.layers = []
        self.acts = []
        for i, h in enumerate(cfg.hidden_dims):
            self.layers.append(Linear(rng, d_in, h, f"am.hidden{i}"))
            self.acts.append(Relu())
            d_in = h
        self.out = Linear(rng, d_in, n_classes, "am.out")

    def _forward_logits(self, x, batch=None):
        for layer, act in zip(self.layers, self.acts):
            x = act.forward(layer.forward(x, batch), batch)
        return self.out.forward(x, batch)

    def _backward_logits(self, dlogits):
        dx = self.out.backward(dlogits)
        for layer, act in zip(reversed(self.layers), reversed(self.acts)):
            dx = layer.backward(act.backward(dx))
        return dx

    def _spliced(self, feats: FeatureMatrix):
        """The spliced float32 rows of one utterance; the MLP takes them
        cast to float64."""
        spliced = splice_context(feats, self.cfg.offsets)
        if spliced.dim != self.d_feat * len(self.cfg.offsets):
            raise ValueError(
                f"feature width {feats.dim} does not match the model's {self.d_feat}"
            )
        return spliced.data

    def posteriors(self, feats):
        """Per-frame log posteriors of a list of FeatureMatrix objects, as
        a list of streams in the same order.

        The list runs through the MLP as one ragged batch (:class:`nn.Ragged`):
        each layer's activations once over all its rows, its matrix product
        once per run of equal frame counts. Each stream equals the
        per-utterance training forward (:func:`cross_entropy_step`) bit for
        bit; one utterance is the batch of one, ``[feats]``.
        """
        rows, batch = Ragged.of([self._spliced(f) for f in feats])
        logp = log_softmax(self._forward_logits(rows, batch), axis=-1)
        return [PosteriorStream(x) for x in batch.split(logp)]

    def training_example(self, feats: FeatureMatrix, labels):
        """``(x, labels)`` for :func:`cross_entropy_step`: the spliced
        float32 rows and int64 labels of one utterance, with one label per
        frame, each a class of the model."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (feats.n_frames,):
            raise ValueError("need one label per frame")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError(
                f"label outside 0..{self.n_classes - 1}: range "
                f"[{labels.min()}, {labels.max()}]"
            )
        return self._spliced(feats), labels


def cross_entropy_step(model: FrameAm, x, labels):
    """Mean frame cross-entropy with backward over one utterance's
    :meth:`FrameAm.training_example`; returns (loss, the log posteriors
    of the forward pass)."""
    logits = model._forward_logits(x.astype(np.float64))
    logp = log_softmax(logits, axis=-1)
    t = logp.shape[0]
    loss = float(-logp[np.arange(t), labels].mean())
    dlogp = np.zeros_like(logp)
    dlogp[np.arange(t), labels] = -1.0 / t
    model._backward_logits(log_softmax_backward(logp, dlogp, axis=-1))
    return loss, logp


def uniform_alignment(n_frames, token_ids, edge_blank_frames=0):
    """Flat alignment: optional blank margins at the edges, then equal
    spans per entry of ``token_ids``; callers put a 0 between words to get
    blank separator spans."""
    token_ids = list(token_ids)
    labels = np.zeros(n_frames, dtype=np.int64)
    inner = n_frames - 2 * edge_blank_frames
    if inner < len(token_ids) or not token_ids:
        return labels  # too short to segment: all blank
    bounds = np.linspace(0, inner, len(token_ids) + 1).round().astype(int)
    for i, tok in enumerate(token_ids):
        labels[edge_blank_frames + bounds[i] : edge_blank_frames + bounds[i + 1]] = tok
    return labels


def train_am(dataset, cfg: AmConfig, d_feat, n_classes, epochs, seed,
             optimizer_cfg=None):
    """Train the frame classifier over (features, labels) pairs.

    Each utterance is spliced and its labels checked once, before the
    first epoch; the spliced rows stay float32, half the memory, and each
    step casts them to float64.

    Returns (model, history); history holds mean cross-entropy and frame
    accuracy per epoch. Both are taken from each step's forward pass, so
    they measure the model before that step's update. Deterministic under
    a fixed seed.
    """
    seq = np.random.SeedSequence(seed)
    init_seed, loop_seed = seq.spawn(2)
    model = FrameAm(cfg, d_feat, n_classes, seed=init_seed)
    rng = np.random.default_rng(loop_seed)
    examples = [model.training_example(feats, labels) for feats, labels in dataset]

    def step(i, _epoch):
        x, labels = examples[i]
        loss, logp = cross_entropy_step(model, x, labels)
        hits = int((np.argmax(logp, axis=1) == labels).sum())
        return loss, hits, len(logp)

    def summarize(results):
        hits, total = sum(r[1] for r in results), sum(r[2] for r in results)
        return {"cross_entropy": float(np.mean([r[0] for r in results])),
                "frame_accuracy": hits / max(total, 1)}

    history = train_epochs(model.parameters(), len(dataset), epochs, rng, optimizer_cfg, step,
                           "AM training", summarize)
    return model, history
