"""Mixture-density-network articulatory inversion: per frame the model
emits mixture weights, means, and diagonal standard deviations over the
articulatory space; training minimizes the mixture negative log
likelihood on frame-aligned (representation, trajectory) pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix
from .nn import Linear, Module, Relu, softmax
from .params import train_epochs

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class MdnConfig:
    d_in: int  # bottleneck.d_bn
    d_artic: int  # 144 at paper scale
    mixtures: int
    hidden_dims: tuple

    def __post_init__(self):
        self.hidden_dims = tuple(self.hidden_dims)
        if self.mixtures < 1 or self.d_artic < 1:
            raise ValueError("d_artic: need d_artic >= 1 and mixtures >= 1")


@dataclass
class MixtureParams:
    """Per-frame diagonal Gaussian mixtures: weights (T, M), means
    (T, M, D), standard deviations (T, M, D). Construction checks that
    the shapes agree, the weights sum to 1 and the deviations are
    positive."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        t, m = self.weights.shape
        if self.means.shape[:2] != (t, m) or self.stds.shape != self.means.shape:
            raise ValueError("weights, means, and stds disagree on (T, M, D)")
        if not np.allclose(self.weights.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("mixture weights must sum to 1 per frame")
        if (self.stds <= 0).any():
            raise ValueError("standard deviations must be positive")


class MdnModel(Module):
    """ReLU MLP trunk with three heads: weight logits, means, log-stds.
    Softmax and exp transforms keep every emitted mixture valid by
    construction."""

    def __init__(self, cfg: MdnConfig, seed=0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.layers = []
        self.acts = []
        d = cfg.d_in
        for i, h in enumerate(cfg.hidden_dims):
            self.layers.append(Linear(rng, d, h, f"mdn.hidden{i}"))
            self.acts.append(Relu())
            d = h
        m, da = cfg.mixtures, cfg.d_artic
        self.head_w = Linear(rng, d, m, "mdn.head_weights")
        self.head_mu = Linear(rng, d, m * da, "mdn.head_means")
        self.head_s = Linear(rng, d, m * da, "mdn.head_logstd")

    def _trunk(self, x):
        for layer, act in zip(self.layers, self.acts):
            x = act.forward(layer.forward(x))
        return x

    def forward_arrays(self, x):
        """Mixture weights (T, M), means (T, M, D) and standard deviations
        (T, M, D) for the rows of ``x``. Softmax and exp make them a valid
        mixture once their inputs are finite, so training uses them
        unchecked; ``mdn_forward`` wraps them in a checked MixtureParams."""
        t = x.shape[0]
        m, da = self.cfg.mixtures, self.cfg.d_artic
        h = self._trunk(x)
        logit_w = self.head_w.forward(h)
        mu = self.head_mu.forward(h).reshape(t, m, da)
        log_std = self.head_s.forward(h).reshape(t, m, da)
        if not (np.isfinite(logit_w).all() and np.isfinite(log_std).all()):
            # overflowed weights; the mixture would not be valid
            raise RuntimeError("inversion model diverged: mixture outputs are not finite")
        return softmax(logit_w, axis=1), mu, np.exp(log_std)

    def backward_heads(self, dlogit_w, dmu, dlog_std):
        t = dlogit_w.shape[0]
        dh = self.head_w.backward(dlogit_w)
        dh += self.head_mu.backward(dmu.reshape(t, -1))
        dh += self.head_s.backward(dlog_std.reshape(t, -1))
        for i in range(len(self.layers) - 1, -1, -1):
            dh = self.layers[i].backward(self.acts[i].backward(dh))
        return dh


def mdn_forward(feats: FeatureMatrix, model: MdnModel) -> MixtureParams:
    if feats.dim != model.cfg.d_in:
        raise ValueError(f"feature width {feats.dim} does not match model d_in {model.cfg.d_in}")
    weights, means, stds = model.forward_arrays(feats.data.astype(np.float64))
    return MixtureParams(weights, means, stds)


def _component_logliks(weights, means, stds, targets):
    """(T, M) log [ w_m * N(x | mu_m, diag sigma_m^2) ]."""
    x = targets[:, None, :]  # (T, 1, D)
    z = (x - means) / stds
    log_n = -0.5 * (z * z + LOG_2PI).sum(axis=2) - np.log(stds).sum(axis=2)
    return np.log(weights) + log_n


def _target_array(means, targets):
    data = targets.data if isinstance(targets, FeatureMatrix) else np.asarray(targets)
    data = data.astype(np.float64)
    shape = (means.shape[0], means.shape[2])
    if data.shape != shape:
        raise ValueError(f"targets of shape {data.shape} do not match mixture {shape}")
    return data


def mdn_predict(mix: MixtureParams) -> FeatureMatrix:
    """Expected trajectory sum_m w_m mu_m."""
    expect = np.einsum("tm,tmd->td", mix.weights, mix.means)
    return FeatureMatrix(expect)


def mdn_nll_step(model: MdnModel, x, targets):
    """NLL forward + backward for one utterance; returns the loss."""
    x = np.asarray(x, dtype=np.float64)
    weights, means, stds = model.forward_arrays(x)
    targets = _target_array(means, targets)
    ll = _component_logliks(weights, means, stds, targets)
    post = softmax(ll, axis=1)  # responsibilities gamma_{t,m}
    m = ll.max(axis=1)
    lse = m + np.log(np.exp(ll - m[:, None]).sum(axis=1))
    t = x.shape[0]
    # d(mean NLL)/d logits = (w - gamma) / T; means and log-stds via gamma
    dlogit_w = (weights - post) / t
    z = (targets[:, None, :] - means) / stds
    dmu = -(post[:, :, None] * z / stds) / t
    dlog_std = -(post[:, :, None] * (z * z - 1.0)) / t
    model.backward_heads(dlogit_w, dmu, dlog_std)
    return float(-lse.mean())


def train_inversion(dataset, cfg: MdnConfig, epochs, seed, optimizer_cfg=None):
    """Train on frame-aligned (representation, articulatory) pairs.

    Both sides may be FeatureMatrix or plain arrays, and the two sides of
    a pair must have the same number of frames (ValueError otherwise).
    Returns (model, per-epoch NLL history).
    """
    seq = np.random.SeedSequence(seed)
    init_seed, loop_seed = seq.spawn(2)
    model = MdnModel(cfg, seed=init_seed)
    rng = np.random.default_rng(loop_seed)
    pairs = []
    for i, (feats, artic) in enumerate(dataset):
        x = feats.data if isinstance(feats, FeatureMatrix) else np.asarray(feats)
        y = artic.data if isinstance(artic, FeatureMatrix) else np.asarray(artic)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"pair {i}: {x.shape[0]} representation frames but "
                             f"{y.shape[0]} articulatory frames")
        pairs.append((x.astype(np.float64), y.astype(np.float64)))

    def step(i, _epoch):
        return mdn_nll_step(model, *pairs[i])

    history = train_epochs(model.parameters(), len(pairs), epochs, rng, optimizer_cfg, step,
                           "inversion training", lambda losses: {"nll": float(np.mean(losses))})
    return model, history
