import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erf as scipy_erf

from sslasr.nn import (
    Conv1d,
    ConvTranspose1d,
    Gelu,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    Ragged,
    Relu,
    TransformerBlock,
    _erf,
    _overlap_add,
)

from oracles import (
    reference_conv_frames,
    reference_conv_transpose,
    reference_layer_norm,
    reference_overlap_add,
)


@st.composite
def overlap_cases(draw):
    """(parts, stride, length): per-tap rows of any kernel and stride in
    1..12, and an output at least as long as the taps reach."""
    t = draw(st.integers(1, 6))
    k = draw(st.integers(1, 12))
    stride = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.normal(size=(t, k, draw(st.integers(1, 3))))
    return parts, stride, (t - 1) * stride + k + draw(st.integers(0, 3))


def _parts(t, k, c, seed=0):
    return np.random.default_rng(seed).normal(size=(t, k, c))


class TestOverlapAdd:
    """The stride-block overlap-add equals ``np.add.at`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(case=overlap_cases())
    @example(case=(_parts(5, 12, 2), 4, 28))  # three taps overlap every row
    @example(case=(_parts(6, 11, 1), 3, 26))  # four overlap, the last block short
    @example(case=(_parts(4, 2, 3), 5, 17))  # kernel < stride: rows left zero
    @example(case=(_parts(3, 80, 1), 80, 240))  # the first conv's geometry
    def test_equals_add_at(self, case):
        parts, stride, length = case
        out = _overlap_add(parts, stride, length)
        assert out.shape == (length, parts.shape[2])
        assert out.tobytes() == reference_overlap_add(parts, stride, length).tobytes()

    def test_conv1d_input_gradient(self):
        rng = np.random.default_rng(1)
        conv = Conv1d(rng, 3, 4, 5, 4, "conv")
        x = rng.normal(size=(30, 3))
        dy = rng.normal(size=(conv.out_length(30), 4))
        conv.forward(x)
        dcols = (dy @ conv.w.value.T).reshape(-1, 5, 3)
        assert conv.backward(dy).tobytes() == reference_overlap_add(dcols, 4, 30).tobytes()

    def test_conv_transpose_forward(self):
        """Kernel = stride: the reshaped product is the overlap-add of its
        taps, none overlapping."""
        rng = np.random.default_rng(2)
        conv = ConvTranspose1d(rng, 3, 2, 2, "up")
        conv.b.value[...] = rng.normal(size=2)
        x = rng.normal(size=(7, 3))
        contrib = (x @ conv.w.value).reshape(7, 2, 2)
        expected = reference_overlap_add(contrib, 2, conv.out_length(7)) + conv.b.value
        assert conv.forward(x).tobytes() == expected.tobytes()


class TestConvTransposeOracle:
    """``ConvTranspose1d``'s reshaped product and reshaped gradient equal
    the overlap-add and index-gather forms bit for bit, per utterance and
    over a ragged batch."""

    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.integers(1, 30), min_size=1, max_size=8),
           c_in=st.integers(1, 70), c_out=st.integers(1, 70), stride=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @example(lengths=[22, 22, 25, 22, 19, 25, 22, 22], c_in=64, c_out=64, stride=2,
             seed=0)  # the adapter's shape
    def test_equals_overlap_add_reference(self, lengths, c_in, c_out, stride, seed):
        rng = np.random.default_rng(seed)
        conv = ConvTranspose1d(rng, c_in, c_out, stride, "up")
        conv.b.value[...] = rng.normal(size=c_out)
        inputs = [rng.normal(size=(t, c_in)) for t in lengths]
        outputs = []
        for x in inputs:
            dy = rng.normal(size=(stride * len(x), c_out))
            y, dx, dw, db = reference_conv_transpose(x, conv.w.value, conv.b.value, stride, dy)
            conv.zero_grad()
            assert conv.forward(x).tobytes() == y.tobytes()
            assert conv.backward(dy).tobytes() == dx.tobytes()
            assert conv.w.grad.tobytes() == dw.tobytes()
            assert conv.b.grad.tobytes() == db.tobytes()
            outputs.append(y)
        rows, batch = Ragged.of(inputs)
        split = batch.resized(conv.out_length).split(conv.forward(rows, batch))
        for out, y in zip(split, outputs):
            assert out.tobytes() == y.tobytes()


class TestErfOracle:
    """``_erf`` equals ``scipy.special.erf`` bit for bit, sign bits and
    nan included; scipy is the reference implementation, a test
    dependency only."""

    EDGES = np.array([
        0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
        6.0, np.nextafter(6.0, 0.0), np.nextafter(6.0, 7.0), 5.9, 5.99,
        np.inf, np.nan, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-8,
        np.finfo(np.float64).max,
    ])

    def test_samples_over_several_scales(self, monkeypatch):
        def no_python_exp(v):
            raise AssertionError("_erf called math.exp: a per-entry Python loop")

        # the C library's exp comes from numpy's complex exp, one call over
        # every tail entry
        monkeypatch.setattr(math, "exp", no_python_exp)
        rng = np.random.default_rng(2302)
        samples = [rng.normal(scale=s, size=200_000) for s in (0.25, 1.0, 2.0, 4.0, 8.0)]
        samples.append(rng.uniform(-6.5, 6.5, size=200_000))  # dense over the tail branch
        # dense just above |x| = 1, where an ulp of the exponential moves the
        # result most
        samples.append(rng.uniform(1.0, 1.5, size=200_000) * rng.choice([-1.0, 1.0], 200_000))
        for x in samples:
            assert _erf(x).tobytes() == scipy_erf(x).tobytes()

    def test_edge_cases(self):
        x = np.concatenate([self.EDGES, -self.EDGES])  # -0.0, -inf and -nan included
        assert _erf(x).tobytes() == scipy_erf(x).tobytes()

    def test_gelu_forward_equals_the_scipy_formula(self):
        x = np.random.default_rng(1).normal(scale=2.0, size=(88, 32))
        cdf = 0.5 * (1.0 + scipy_erf(x * (1.0 / math.sqrt(2.0))))
        y = Gelu().forward(x)
        assert y.shape == x.shape and y.tobytes() == (x * cdf).tobytes()


class TestLayerNormOracle:
    """Means and variance by ``np.add.reduce`` equal ``x.mean``/``x.var``."""

    @settings(max_examples=100, deadline=None)
    @given(t=st.integers(1, 8), d=st.integers(1, 70), scale=st.sampled_from([1e-4, 1.0, 1e4]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_mean_var_reference(self, t, d, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(t, d)) * scale + rng.normal()
        dy = rng.normal(size=(t, d))
        ln = LayerNorm(d, "ln")
        ln.gain.value[...] = rng.normal(size=d)
        ln.bias.value[...] = rng.normal(size=d)
        y, dx, dgain, dbias = reference_layer_norm(x, ln.gain.value, ln.bias.value, dy)
        assert ln.forward(x).tobytes() == y.tobytes()
        assert ln.backward(dy).tobytes() == dx.tobytes()
        assert ln.gain.grad.tobytes() == dgain.tobytes()
        assert ln.bias.grad.tobytes() == dbias.tobytes()


def _layer(kind, d, d_out, kernel, stride, rng):
    """A layer of ``kind`` over width-``d`` rows, with random biases and
    gains so that no parameter is a neutral 0 or 1."""
    layer = {
        "linear": lambda: Linear(rng, d, d_out, "lin"),
        "layer_norm": lambda: LayerNorm(d, "ln"),
        "gelu": Gelu,
        "relu": Relu,
        "conv": lambda: Conv1d(rng, d, d_out, kernel, stride, "conv"),
        "conv_transpose": lambda: ConvTranspose1d(rng, d, d_out, stride, "up"),
        "attention": lambda: MultiHeadSelfAttention(rng, 2 * d, 2, "attn"),
        "block": lambda: TransformerBlock(rng, 2 * d, 2, "block"),
    }[kind]()
    for p in layer.parameters():
        p.value[...] = rng.normal(size=p.value.shape)
    return layer


LAYERS = ["linear", "layer_norm", "gelu", "relu", "conv", "conv_transpose", "attention"]


class TestRagged:
    def test_rows_in_order_of_length_and_split_back(self):
        arrays = [np.full((t, 2), float(i), dtype=np.float32) for i, t in
                  enumerate([3, 1, 3, 2, 1])]
        rows, batch = Ragged.of(arrays)
        assert rows.dtype == np.float64 and rows.shape == (10, 2)
        assert batch.order == (1, 4, 3, 0, 2) and batch.lengths == (1, 1, 2, 3, 3)
        assert batch.runs == ((0, 2, 1), (2, 1, 2), (4, 2, 3))
        for a, part in zip(arrays, batch.split(rows)):
            assert part.tobytes() == a.astype(np.float64).tobytes()
        assert batch.resized(lambda t: 2 * t).runs == ((0, 2, 2), (4, 1, 4), (8, 2, 6))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one utterance"):
            Ragged.of([])


class TestRaggedForward:
    """A ragged batch's forward equals the per-utterance forwards bit for
    bit, whatever the mix of lengths; a backward pass after it is refused
    by name."""

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(LAYERS + ["block"]),
           lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
           d=st.integers(1, 5), d_out=st.integers(1, 45), kernel=st.integers(1, 4),
           stride=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(kind="conv_transpose", lengths=[5, 2, 5], d=2, d_out=3, kernel=2, stride=2,
             seed=0)  # the adapter's stride
    @example(kind="linear", lengths=[1, 7, 2, 1, 9, 3], d=5, d_out=41, kernel=1, stride=1,
             seed=1)  # a width BLAS computes in a row-count-dependent order
    @example(kind="attention", lengths=[4, 1, 6, 4], d=2, d_out=1, kernel=1, stride=1,
             seed=2)
    def test_rows_equal_per_utterance_forwards(self, kind, lengths, d, d_out, kernel,
                                               stride, seed):
        rng = np.random.default_rng(seed)
        layer = _layer(kind, d, d_out, kernel, stride, rng)
        width = 2 * d if kind in ("attention", "block") else d
        if kind == "conv":
            lengths = [max(t, kernel) for t in lengths]
        inputs = [rng.normal(size=(t, width)) for t in lengths]
        rows, batch = Ragged.of(inputs)
        y = layer.forward(rows, batch)
        out_batch = batch.resized(getattr(layer, "out_length", lambda t: t))
        outputs = out_batch.split(y)
        assert len(y) == sum(out_batch.lengths)
        for x, out in zip(inputs, outputs):
            assert out.tobytes() == layer.forward(x).tobytes()

    @pytest.mark.parametrize("kind, name", [
        ("linear", "Linear 'lin'"), ("layer_norm", "LayerNorm 'ln'"), ("gelu", "Gelu"),
        ("relu", "Relu"), ("conv", "Conv1d 'conv'"), ("conv_transpose", "ConvTranspose1d 'up'"),
        ("attention", "MultiHeadSelfAttention 'attn'"),
    ])
    def test_backward_after_batched_forward_names_the_layer(self, kind, name):
        rng = np.random.default_rng(0)
        layer = _layer(kind, 2, 3, 2, 2, rng)
        width = 4 if kind == "attention" else 2
        # a per-utterance forward first, so a stale cache cannot serve
        y = layer.forward(rng.normal(size=(6, width)))
        layer.forward(*Ragged.of([rng.normal(size=(t, width)) for t in (6, 3)]))
        grads = [p.grad.copy() for p in layer.parameters()]
        with pytest.raises(ValueError, match=f"^{name}: backward pass without a per-utterance"):
            layer.backward(np.ones_like(y))
        assert all(np.array_equal(g, p.grad) for g, p in zip(grads, layer.parameters()))
        # a per-utterance forward makes backward available again
        layer.forward(rng.normal(size=(6, width)))
        layer.backward(np.ones_like(y))


class TestConv1dFrames:
    """Conv1d's frames, rows of a window view over the flattened input,
    equal an index-array gather bit for bit, per utterance and over a
    ragged batch, for kernels equal to the stride and overlapping ones."""

    @settings(max_examples=80, deadline=None)
    @given(c_in=st.sampled_from([1, 32]), kernel=st.integers(1, 6), overlap=st.integers(0, 5),
           lengths=st.lists(st.integers(1, 30), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(c_in=1, kernel=80, overlap=0, lengths=[7040, 8000, 7040], seed=0)  # conv0
    @example(c_in=32, kernel=5, overlap=1, lengths=[88, 100, 88], seed=0)  # conv1
    def test_equal_index_gather(self, c_in, kernel, overlap, lengths, seed):
        stride = max(kernel - overlap, 1)
        rng = np.random.default_rng(seed)
        conv = _layer("conv", c_in, 3, kernel, stride, rng)
        inputs = [rng.normal(size=(max(t, kernel), c_in)) for t in lengths]
        frames = [reference_conv_frames(x, kernel, stride) for x in inputs]
        expected = [f @ conv.w.value + conv.b.value for f in frames]
        for x, f, want in zip(inputs, frames, expected):
            assert conv.forward(x).tobytes() == want.tobytes()
            assert conv._cols.tobytes() == f.tobytes()  # what backward reads
        rows, batch = Ragged.of(inputs)
        outputs = batch.resized(conv.out_length).split(conv.forward(rows, batch))
        for out, want in zip(outputs, expected):
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [2, 4])
    def test_wrong_channel_count_rejected(self, width):
        conv = Conv1d(np.random.default_rng(0), 3, 4, 5, 4, "conv")
        with pytest.raises(ValueError, match="conv: expected 3 input channels, got " + str(width)):
            conv.forward(np.zeros((30, width)))
