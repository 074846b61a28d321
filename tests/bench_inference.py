"""Micro-benchmarks of forward-only encoding and of the transformer's
linear and attention layers at the recipe's default-config shapes.

- ``represent``: 32 utterances through the default encoder and bottleneck
  adapter, one at a time through the per-utterance layers of training
  (what a one-utterance ``represent`` ran before ragged batches) against
  ragged batches of 1, 8, 16 and 32 utterances per call. Two sets of
  lengths: ``mixed``, the two sample counts of the synthetic test sets
  (7,040 and 8,000) alternating, so a batch has two runs of equal
  length; and ``distinct``, 32 different sample counts from 6,400 to
  9,500, so every utterance is a run of its own and only the row-wise
  work is shared. The window of ``encoder.windows`` comes from these
  numbers;
- ``Linear`` forward and backward over 21 x 64 -> 192 (a block's qkv);
- ``MultiHeadSelfAttention`` forward and backward over 21 x 64, 4 heads;
- the recognition kernels, one case each: the batched forward of conv0
  (kernel 80, stride 80 over raw samples) over one 8-utterance window of
  the ``mixed`` lengths, ``compute_fbank`` of one 7,040-sample utterance,
  ``splice_context`` of its 42 x 40 filterbank rows at the default
  ``am.offsets``, and ``Gelu.forward`` over a 176 x 256 feed-forward batch
  (8 utterances of 22 frames).

    python -m pytest tests/bench_inference.py

Tier-1 does not collect this file: its name does not start with test_.
"""

import numpy as np
import pytest

from sslasr.bottleneck import BottleneckAdapter
from sslasr.config import DEFAULT_CONFIG
from sslasr.encoder import _WINDOW, EncoderConfig, SslEncoder
from sslasr.features import AudioBuffer, compute_fbank
from sslasr.frame_am import splice_context
from sslasr.nn import Gelu, Linear, MultiHeadSelfAttention, Ragged
from sslasr.pipeline import bottleneck_config

N_UTTS, T, D = 32, 21, 64
SAMPLE_COUNTS = {
    "mixed": [7040, 8000] * (N_UTTS // 2),
    "distinct": [6400 + 100 * i for i in range(N_UTTS)],
}


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def encoder_and_adapter():
    model = SslEncoder(EncoderConfig(**DEFAULT_CONFIG["encoder"]), seed=0)
    adapter = BottleneckAdapter(bottleneck_config(DEFAULT_CONFIG, model.cfg.d_model), seed=0)
    return model, adapter


@pytest.fixture(scope="module", params=sorted(SAMPLE_COUNTS))
def utterances(request):
    rng = np.random.default_rng(7)
    return [rng.normal(0.0, 0.3, n) for n in SAMPLE_COUNTS[request.param]]


def per_utterance(model, audio, adapter):
    """``(bn, h)`` of one utterance through the layers without a batch."""
    z, _ = model._encode(model._samples(audio))
    return adapter.forward_arrays(model.contextualize(z))


@pytest.mark.benchmark(group="represent-32-utterances")
def test_represent_one_at_a_time(benchmark, encoder_and_adapter, utterances):
    model, adapter = encoder_and_adapter
    outs = benchmark(lambda: [per_utterance(model, u, adapter) for u in utterances])
    assert len(outs) == N_UTTS


@pytest.mark.benchmark(group="represent-32-utterances")
@pytest.mark.parametrize("batch", [1, 8, 16, 32])
def test_represent_batched(benchmark, encoder_and_adapter, utterances, batch):
    model, adapter = encoder_and_adapter

    def run():
        return [model.represent(utterances[i : i + batch], adapter)
                for i in range(0, N_UTTS, batch)]

    outs = benchmark(run)
    assert sum(len(h) for _, h in outs) == N_UTTS


@pytest.mark.benchmark(group="linear")
def test_linear_forward(benchmark, rng):
    layer = Linear(rng, D, 3 * D, "qkv")
    assert benchmark(layer.forward, rng.normal(size=(T, D))).shape == (T, 3 * D)


@pytest.mark.benchmark(group="linear")
def test_linear_backward(benchmark, rng):
    layer = Linear(rng, D, 3 * D, "qkv")
    layer.forward(rng.normal(size=(T, D)))
    assert benchmark(layer.backward, rng.normal(size=(T, 3 * D))).shape == (T, D)


@pytest.mark.benchmark(group="attention")
def test_attention_forward(benchmark, rng):
    attn = MultiHeadSelfAttention(rng, D, 4, "attn")
    assert benchmark(attn.forward, rng.normal(size=(T, D))).shape == (T, D)


@pytest.mark.benchmark(group="attention")
def test_attention_backward(benchmark, rng):
    attn = MultiHeadSelfAttention(rng, D, 4, "attn")
    attn.forward(rng.normal(size=(T, D)))
    assert benchmark(attn.backward, rng.normal(size=(T, D))).shape == (T, D)


@pytest.mark.benchmark(group="recognition-kernels")
def test_conv0_forward_batched(benchmark, encoder_and_adapter, rng):
    conv0 = encoder_and_adapter[0].convs[0]
    rows, batch = Ragged.of([rng.normal(0.0, 0.3, (n, 1))
                             for n in SAMPLE_COUNTS["mixed"][:_WINDOW]])
    y = benchmark(conv0.forward, rows, batch)
    assert len(y) == sum(batch.resized(conv0.out_length).lengths)


@pytest.mark.benchmark(group="recognition-kernels")
def test_compute_fbank(benchmark, rng):
    audio = AudioBuffer(rng.normal(0.0, 0.3, SAMPLE_COUNTS["mixed"][0]))
    assert benchmark(compute_fbank, audio).n_frames == 42


@pytest.mark.benchmark(group="recognition-kernels")
def test_splice_context(benchmark, rng):
    feats = compute_fbank(AudioBuffer(rng.normal(0.0, 0.3, SAMPLE_COUNTS["mixed"][0])))
    offsets = DEFAULT_CONFIG["am"]["offsets"]
    assert benchmark(splice_context, feats, offsets).dim == len(offsets) * feats.dim


@pytest.mark.benchmark(group="recognition-kernels")
def test_gelu_forward(benchmark, rng):
    x = rng.normal(size=(_WINDOW * 22, 4 * D))
    assert benchmark(Gelu().forward, x).shape == x.shape
