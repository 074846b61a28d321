"""Frame-level acoustic model: context splicing over feature frames feeding
a feed-forward classifier trained with cross-entropy against per-frame
labels (uniform segmentation of the transcript, or CTC-head argmax).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .ctc import PosteriorStream
from .features import FeatureMatrix
from .nn import Linear, Module, Relu, log_softmax, log_softmax_backward
from .params import make_optimizer

logger = logging.getLogger(__name__)


@dataclass
class AmConfig:
    offsets: tuple = (-2, -1, 0, 1, 2)
    hidden_dims: tuple = (64, 64)
    hidden_fusion_layer: int | None = None  # inject an auxiliary stream after this hidden layer

    def __post_init__(self):
        self.offsets = tuple(int(o) for o in self.offsets)
        if list(self.offsets) != sorted(set(self.offsets)):
            raise ValueError("offsets must be sorted and unique")
        self.hidden_dims = tuple(self.hidden_dims)
        if self.hidden_fusion_layer is not None and not (
            0 <= self.hidden_fusion_layer < len(self.hidden_dims)
        ):
            raise ValueError("hidden_fusion_layer must index a hidden layer")


def splice_context(feats: FeatureMatrix, offsets) -> FeatureMatrix:
    """Row t becomes the concatenation of rows t+o for each offset, with
    edge replication; output width is len(offsets) * D."""
    offsets = tuple(int(o) for o in offsets)
    t = feats.n_frames
    cols = []
    for o in offsets:
        idx = np.clip(np.arange(t) + o, 0, t - 1)
        cols.append(feats.data[idx])
    return FeatureMatrix(np.concatenate(cols, axis=1), feats.frame_shift_us, feats.label)


class FrameAm(Module):
    """Spliced-context MLP producing log posteriors over V+1 classes."""

    def __init__(self, cfg: AmConfig, d_feat, n_classes, seed=0, d_aux=0):
        self.cfg = cfg
        self.d_feat = d_feat
        self.d_aux = d_aux
        self.n_classes = n_classes
        rng = np.random.default_rng(seed)
        d_in = d_feat * len(cfg.offsets)
        self.layers = []
        self.acts = []
        for i, h in enumerate(cfg.hidden_dims):
            if cfg.hidden_fusion_layer is not None and i == cfg.hidden_fusion_layer:
                d_in += d_aux
            self.layers.append(Linear(rng, d_in, h, f"am.hidden{i}"))
            self.acts.append(Relu())
            d_in = h
        if cfg.hidden_fusion_layer is not None and cfg.hidden_fusion_layer == len(cfg.hidden_dims):
            d_in += d_aux
        self.out = Linear(rng, d_in, n_classes, "am.out")

    def _forward_logits(self, spliced, aux=None):
        x = spliced
        fusion = self.cfg.hidden_fusion_layer
        if fusion is not None and aux is None:
            raise ValueError("model was configured for hidden-layer fusion; pass aux features")
        self._fusion_split = None
        for i, (layer, act) in enumerate(zip(self.layers, self.acts)):
            if fusion is not None and i == fusion:
                self._fusion_split = x.shape[1]
                x = np.concatenate([x, aux], axis=1)
            x = act.forward(layer.forward(x))
        return self.out.forward(x)

    def _backward_logits(self, dlogits):
        dx = self.out.backward(dlogits)
        for i in range(len(self.layers) - 1, -1, -1):
            dx = self.layers[i].backward(self.acts[i].backward(dx))
            if self._fusion_split is not None and i == self.cfg.hidden_fusion_layer:
                dx = dx[:, : self._fusion_split]
        return dx

    def posteriors(self, feats: FeatureMatrix, aux: FeatureMatrix | None = None,
                   source="am") -> PosteriorStream:
        spliced = splice_context(feats, self.cfg.offsets)
        if spliced.dim != self.d_feat * len(self.cfg.offsets):
            raise ValueError(
                f"feature width {feats.dim} does not match the model's {self.d_feat}"
            )
        aux_data = None
        if aux is not None:
            if aux.n_frames != feats.n_frames:
                raise ValueError("auxiliary stream must match the main stream frame count")
            aux_data = aux.data.astype(np.float64)
        logits = self._forward_logits(spliced.data.astype(np.float64), aux_data)
        return PosteriorStream(log_softmax(logits, axis=-1), feats.frame_shift_us, source)


def cross_entropy_step(model: FrameAm, feats: FeatureMatrix, labels, aux=None):
    """Mean frame cross-entropy with backward; returns (loss, n_frames)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != feats.n_frames:
        raise ValueError("need one label per frame")
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise ValueError(
            f"label outside 0..{model.n_classes - 1}: range "
            f"[{labels.min()}, {labels.max()}]"
        )
    spliced = splice_context(feats, model.cfg.offsets)
    aux_data = aux.data.astype(np.float64) if aux is not None else None
    logits = model._forward_logits(spliced.data.astype(np.float64), aux_data)
    logp = log_softmax(logits, axis=-1)
    t = logp.shape[0]
    loss = float(-logp[np.arange(t), labels].mean())
    dlogp = np.zeros_like(logp)
    dlogp[np.arange(t), labels] = -1.0 / t
    model._backward_logits(log_softmax_backward(logp, dlogp, axis=-1))
    return loss, t


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


def ctc_argmax_alignment(stream: PosteriorStream):
    """Frame labels from a CTC head's per-frame argmax (blank included)."""
    return np.argmax(stream.logp, axis=1).astype(np.int64)


def train_am(dataset, cfg: AmConfig, d_feat, n_classes, epochs, seed,
             optimizer_cfg=None, d_aux=0):
    """Train the frame classifier over (features, labels[, aux]) tuples.

    Returns (model, history); history holds mean cross-entropy and frame
    accuracy per epoch. Deterministic under a fixed seed.
    """
    seq = np.random.SeedSequence(seed)
    init_seed, loop_seed = seq.spawn(2)
    model = FrameAm(cfg, d_feat, n_classes, seed=init_seed, d_aux=d_aux)
    rng = np.random.default_rng(loop_seed)
    opt_cfg = dict(optimizer_cfg or {})
    opt_cfg.setdefault("decay_steps", max(1, epochs * len(dataset)))
    opt = make_optimizer(model.parameters(), opt_cfg)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(dataset))
        losses, hits, total = [], 0, 0
        for i in order:
            item = dataset[i]
            feats, labels = item[0], item[1]
            aux = item[2] if len(item) > 2 else None
            opt.zero_grad()
            loss, t = cross_entropy_step(model, feats, labels, aux=aux)
            if not np.isfinite(loss):
                raise RuntimeError(f"AM training diverged at epoch {epoch}")
            losses.append(loss)
            opt.step()
            pred = np.argmax(model.posteriors(feats, aux=aux).logp, axis=1)
            hits += int((pred == np.asarray(labels)).sum())
            total += t
        history.append(
            {"epoch": epoch, "cross_entropy": float(np.mean(losses)),
             "frame_accuracy": hits / max(total, 1)}
        )
        logger.info("am epoch %d: ce %.4f acc %.3f", epoch,
                    history[-1]["cross_entropy"], history[-1]["frame_accuracy"])
    return model, history
