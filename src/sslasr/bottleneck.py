"""Bottleneck adapter: four interleaving conv / fully-connected layers that
turn contextual representations into compact half-shift features and back:
the factor 2 turns the encoder's 20 ms frames into 10 ms fused frames.

Layer order: transposed conv (kernel 2, stride 2; doubles the frame rate)
-> FC block (linear, ReLU, dropout; d_in -> d_bn)  <- features tap here
-> conv (kernel 2, stride 2; halves the frame rate)
-> FC block (d_bn -> d_in)                         <- reconstruction

The transposed conv's kernel equals its stride, so its output rows never
overlap and it needs no overlap-add (``nn.ConvTranspose1d``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Conv1d, ConvTranspose1d, Dropout, Linear, Module, Relu
from .params import train_epochs


@dataclass
class BottleneckConfig:
    d_in: int  # encoder.d_model
    d_bn: int
    dropout: float

    def __post_init__(self):
        if self.d_bn >= self.d_in:
            raise ValueError(f"d_bn: must be smaller than d_in {self.d_in} (encoder.d_model)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout: rate must lie in [0, 1), got {self.dropout}")


class BottleneckAdapter(Module):
    def __init__(self, cfg: BottleneckConfig, seed=0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.deconv = ConvTranspose1d(rng, cfg.d_in, cfg.d_in, 2, "bottleneck.deconv")
        self.fc1 = Linear(rng, cfg.d_in, cfg.d_bn, "bottleneck.fc1")
        self.act1 = Relu()
        self.drop1 = Dropout(cfg.dropout)
        self.reconv = Conv1d(rng, cfg.d_bn, cfg.d_bn, 2, 2, "bottleneck.reconv")
        # final FC block is linear + dropout: a terminal ReLU could not
        # reconstruct the (zero-mean) contextual targets
        self.fc2 = Linear(rng, cfg.d_bn, cfg.d_in, "bottleneck.fc2")
        self.drop2 = Dropout(cfg.dropout)

    def forward_arrays(self, c, rng=None, batch=None):
        """(T, d_in) -> (bn (2T, d_bn), restored (T, d_in)). With a ragged
        ``batch`` (:class:`nn.Ragged`), ``c`` holds its rows and so do the
        outputs, 2T and T rows per utterance.

        Pass an rng to enable dropout (training); extraction calls leave
        it unset, so repeated extraction is deterministic.
        """
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != self.cfg.d_in:
            raise ValueError(f"expected (T, {self.cfg.d_in}) input, got {c.shape}")
        up = self.deconv.forward(c, batch)
        up_batch = None if batch is None else batch.resized(self.deconv.out_length)
        hidden = self.act1.forward(self.fc1.forward(up, up_batch), up_batch)
        bn = self.drop1.forward(hidden, rng)
        down = self.reconv.forward(bn, up_batch)
        down_batch = None if batch is None else up_batch.resized(self.reconv.out_length)
        restored = self.drop2.forward(self.fc2.forward(down, down_batch), rng)
        return bn, restored

    def backward_from_restored(self, drestored):
        """Backward through the whole stack given dL/drestored."""
        ddown = self.fc2.backward(self.drop2.backward(drestored))
        dbn = self.reconv.backward(ddown)
        dup = self.fc1.backward(self.act1.backward(self.drop1.backward(dbn)))
        return self.deconv.backward(dup)


def reconstruction_loss(adapter: BottleneckAdapter, c, rng=None):
    """Mean squared reconstruction error with gradient accumulation."""
    c = np.asarray(c, dtype=np.float64)
    bn, restored = adapter.forward_arrays(c, rng=rng)
    diff = restored - c
    loss = float((diff * diff).mean())
    dres = 2.0 * diff / diff.size
    adapter.backward_from_restored(dres)
    return loss


def train_adapter(dataset, cfg: BottleneckConfig, epochs, seed, optimizer_cfg=None):
    """Standalone training that minimizes reconstruction MSE over a list of
    (T, d_in) context matrices. Returns (adapter, per-epoch loss history)."""
    seq = np.random.SeedSequence(seed)
    init_seed, loop_seed = seq.spawn(2)
    adapter = BottleneckAdapter(cfg, seed=init_seed)
    rng = np.random.default_rng(loop_seed)

    def step(i, _epoch):
        return reconstruction_loss(adapter, dataset[i], rng=rng)

    history = train_epochs(adapter.parameters(), len(dataset), epochs, rng, optimizer_cfg,
                           step, "adapter training",
                           lambda losses: {"mse": float(np.mean(losses))})
    return adapter, history
