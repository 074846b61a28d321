import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslasr.nn import Conv1d, ConvTranspose1d, LayerNorm, _overlap_add

from oracles import reference_layer_norm, reference_overlap_add


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
        rng = np.random.default_rng(2)
        conv = ConvTranspose1d(rng, 3, 2, 5, 2, "up")
        conv.b.value = rng.normal(size=2)
        x = rng.normal(size=(7, 3))
        contrib = (x @ conv.w.value).reshape(7, 5, 2)
        expected = reference_overlap_add(contrib, 2, conv.out_length(7)) + conv.b.value
        assert conv.forward(x).tobytes() == expected.tobytes()


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
        ln.gain.value = rng.normal(size=d)
        ln.bias.value = rng.normal(size=d)
        y, dx, dgain, dbias = reference_layer_norm(x, ln.gain.value, ln.bias.value, dy)
        assert ln.forward(x).tobytes() == y.tobytes()
        assert ln.backward(dy).tobytes() == dx.tobytes()
        assert ln.gain.grad.tobytes() == dgain.tobytes()
        assert ln.bias.grad.tobytes() == dbias.tobytes()
