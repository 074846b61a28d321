"""Micro-benchmarks of the per-step training layers at the recipe's
default-config shapes: one 22-frame utterance (7,040 samples).

- ``contrastive_loss``: 11 masked frames of 22, K = 5 distractors drawn
  per frame, d = 64;
- ``ctc_loss``: 22 frames, 12 tokens plus blank, a 3-token target;
- ``Conv1d.backward``: conv0 (7,040 x 1 samples, kernel 80, stride 80)
  and conv1 (88 x 32 frames, kernel 5, stride 4);
- ``ConvTranspose1d`` forward and backward at the bottleneck adapter's
  shape: 22 x 64 frames, kernel = stride = 2, 64 output channels;
- ``LayerNorm`` forward and backward over 22 x 64;
- ``Gelu.forward`` over the feed-forward rows of one utterance (22 x 256),
  the second conv's input (88 x 32) and an 8-utterance batch of the
  former. Its erf is ``nn._erf``, a numpy port of the cephes ``ndtr.c``
  algorithm that ``scipy.special.erf`` runs, bit-identical to it
  (``tests/test_nn.py::TestErfOracle``). Its exponential is the C
  library's ``exp``, the real part of numpy's complex exp, taken over
  every tail entry at once.

    python -m pytest tests/bench_layers.py

Tier-1 does not collect this file: its name does not start with test_.
"""

import numpy as np
import pytest

from sslasr.ctc import ctc_loss
from sslasr.encoder import contrastive_loss
from sslasr.nn import Conv1d, ConvTranspose1d, Gelu, LayerNorm, Ragged

T, D = 22, 64


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


@pytest.mark.benchmark(group="contrastive")
def test_contrastive_loss(benchmark, rng):
    c, q = rng.normal(size=(T, D)), rng.normal(size=(T, D))
    masked = list(range(5, 16))
    draws = np.random.default_rng(0)
    res = benchmark(contrastive_loss, c, q, masked, 5, 0.1, rng=draws)
    assert res.grad_c.shape == (T, D)
    assert len(res.distractors[5]) == 5


@pytest.mark.benchmark(group="ctc")
def test_ctc_loss(benchmark, rng):
    logits = rng.normal(size=(T, 13))
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    res = benchmark(ctc_loss, logp, [3, 7, 7])
    assert np.isfinite(res.value)


@pytest.mark.benchmark(group="conv-backward")
@pytest.mark.parametrize("t_in, c_in, kernel, stride", [(7040, 1, 80, 80), (88, 32, 5, 4)],
                         ids=["conv0", "conv1"])
def test_conv1d_backward(benchmark, rng, t_in, c_in, kernel, stride):
    conv = Conv1d(rng, c_in, 32, kernel, stride, "conv")
    conv.forward(rng.normal(size=(t_in, c_in)))
    dy = rng.normal(size=(conv.out_length(t_in), 32))
    assert benchmark(conv.backward, dy).shape == (t_in, c_in)


@pytest.mark.benchmark(group="conv-transpose")
def test_conv_transpose_forward(benchmark, rng):
    deconv = ConvTranspose1d(rng, D, D, 2, "deconv")
    assert benchmark(deconv.forward, rng.normal(size=(T, D))).shape == (2 * T, D)


@pytest.mark.benchmark(group="conv-transpose")
def test_conv_transpose_backward(benchmark, rng):
    deconv = ConvTranspose1d(rng, D, D, 2, "deconv")
    deconv.forward(rng.normal(size=(T, D)))
    assert benchmark(deconv.backward, rng.normal(size=(2 * T, D))).shape == (T, D)


@pytest.mark.benchmark(group="layer-norm")
def test_layer_norm_forward(benchmark, rng):
    ln = LayerNorm(D, "ln")
    assert benchmark(ln.forward, rng.normal(size=(T, D))).shape == (T, D)


@pytest.mark.benchmark(group="layer-norm")
def test_layer_norm_backward(benchmark, rng):
    ln = LayerNorm(D, "ln")
    ln.forward(rng.normal(size=(T, D)))
    assert benchmark(ln.backward, rng.normal(size=(T, D))).shape == (T, D)


@pytest.mark.benchmark(group="gelu")
@pytest.mark.parametrize("shape", [(T, 4 * D), (88, 32)], ids=["ffn", "conv1"])
def test_gelu_forward(benchmark, rng, shape):
    assert benchmark(Gelu().forward, rng.normal(size=shape)).shape == shape


@pytest.mark.benchmark(group="gelu")
def test_gelu_forward_batch(benchmark, rng):
    rows, batch = Ragged.of([rng.normal(size=(T, 4 * D)) for _ in range(8)])
    assert benchmark(Gelu().forward, rows, batch).shape == (8 * T, 4 * D)
