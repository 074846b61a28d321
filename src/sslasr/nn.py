"""Minimal neural-net layers with explicit forward/backward passes.

All computation is float64 numpy. Every layer caches what its backward pass
needs on the most recent forward call, so the usage pattern is strictly
forward -> backward per example; parameter gradients accumulate across
examples until they are cleared.

A forward pass also takes a ragged batch of utterances: their (T_i, d)
rows concatenated one utterance after another into one (sum T_i, d)
array, with a :class:`Ragged` that gives each utterance's length. The
row-wise work (bias adds, activations, normalisation) runs once on all
rows, and a conv frames all of them with one gather. Each matrix
product runs once per run of consecutive utterances of equal length, as
one (n, T, d) stack: numpy calls BLAS for each (T, d) matrix, the call
one utterance makes alone. One product over rows of mixed lengths would
not be exact: OpenBLAS sums some shapes in an order that depends on the
row count (seen for output widths that are not a multiple of 8 and for
more than ~384 inputs per row), and a one-row product is a gemv.
Attention runs per run of equal length too. The transposed conv has no
overlap-add: its kernel equals its stride, so its output is the product
reshaped to ``stride`` rows per input row. So every utterance's output
rows equal its own forward pass bit for bit, and ``Ragged.of`` orders a
batch by length so that equal lengths share their calls. A forward pass
without a ``Ragged`` is the one-utterance case of the same code, which
training runs: it keeps what its backward pass needs. Inference runs
batches only (a batch may hold one utterance) and a batched forward
keeps no cache; a backward pass after it raises ValueError naming the
layer.

Gradients live in optimizer-owned storage: an optimizer packs the values
and gradients of the parameters it is given into one flat buffer each
(``pack_parameters``), and the optimizer's ``zero_grad`` clears them with
a single fill. The one training schedule, ``params.train_epochs``, clears
only its optimizer's gradients before each step: a frozen layer that
gradients pass through accumulates gradients no one reads. When the
schedule returns its history, or raises, the parameters get compact
storage of their own back
(``unpack_parameters``), so a frozen layer does not keep a finished
stage's buffers alive.
``Module.zero_grad`` clears every parameter of a module, for callers that
compute gradients without an optimizer.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# erf's rational approximations, from cephes ``ndtr.c``: x T(x^2) / U(x^2)
# on |x| <= 1 and 1 - exp(-x^2) P(x) / Q(x) above; U and Q are monic, their
# leading 1 left out
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


class ParameterShapeError(ValueError):
    """An assignment would change the shape of a parameter's storage."""


class DuplicateParameterError(ValueError):
    """A parameter appears twice in a list that must hold each once."""


class Parameter:
    """A named trainable tensor with an accumulated gradient.

    ``value`` and ``grad`` are fixed storage: assigning to either copies
    into the existing array, so a parameter packed into an optimizer's
    flat buffers can never be detached from it by assignment. A shape
    change raises ParameterShapeError.
    """

    __slots__ = ("name", "_value", "_grad")

    def __init__(self, name, value):
        self.name = name
        self._value = np.asarray(value, dtype=np.float64)
        self._grad = np.zeros_like(self._value)

    @property
    def value(self):
        return self._value

    @value.setter
    def value(self, x):
        self._write(self._value, x, "value")

    @property
    def grad(self):
        return self._grad

    @grad.setter
    def grad(self, x):
        self._write(self._grad, x, "grad")

    def _write(self, dst, x, what):
        # in-place operators (``p.grad += g``) hand back the storage itself
        if x is dst:
            return
        shape = np.shape(x)
        if shape != dst.shape:
            raise ParameterShapeError(
                f"cannot assign shape {shape} to the {what} of {self.name!r}, "
                f"which has shape {dst.shape}"
            )
        dst[...] = x

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.value.shape})"


def pack_parameters(params):
    """Move the values and gradients of ``params`` into one contiguous
    float64 buffer each, in list order, and return ``(value, grad)``.

    Every parameter's ``value`` and ``grad`` become reshaped views into
    the new buffers; their contents are kept. A parameter packed before
    by another call leaves its old buffers, which stay alive only while
    something else still refers to them.
    """
    seen = set()
    for p in params:
        if id(p) in seen:
            raise DuplicateParameterError(f"parameter {p.name!r} is listed twice")
        seen.add(id(p))
    total = sum(p._value.size for p in params)
    value, grad = np.empty(total), np.empty(total)
    off = 0
    for p in params:
        end = off + p._value.size
        shape = p._value.shape
        value[off:end] = p._value.ravel()
        grad[off:end] = p._grad.ravel()
        p._value = value[off:end].reshape(shape)
        p._grad = grad[off:end].reshape(shape)
        off = end
    return value, grad


def unpack_parameters(params):
    """Give each of ``params`` its own compact value and gradient storage
    again, contents kept, so the flat buffers of ``pack_parameters`` are
    freed once nothing else refers to them."""
    for p in params:
        p._value = p._value.copy()
        p._grad = p._grad.copy()


class Module:
    """Base class: a container of parameters and sub-modules."""

    def parameters(self):
        params = []
        for attr in self.__dict__.values():
            if isinstance(attr, Parameter):
                params.append(attr)
            elif isinstance(attr, Module):
                params.extend(attr.parameters())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        params.append(item)
        return params

    def zero_grad(self):
        for p in self.parameters():
            p.grad[...] = 0.0

    def param_dict(self):
        d = {}
        for p in self.parameters():
            if p.name in d:
                raise ValueError(f"duplicate parameter name {p.name!r}")
            d[p.name] = p
        return d


class Ragged:
    """The layout of a ragged batch: the rows of several utterances in one
    array, one utterance after another.

    ``lengths`` holds the utterances' frame counts in row order and
    ``order`` the caller's index of each. ``runs`` holds ``(first row,
    utterances, frames)`` for each run of consecutive equal lengths; each
    run shares one BLAS call per matrix product.
    """

    __slots__ = ("lengths", "order", "runs")

    def __init__(self, lengths, order):
        self.lengths, self.order = tuple(lengths), tuple(order)
        runs, first = [], 0
        for t, same in itertools.groupby(self.lengths):
            n = sum(1 for _ in same)
            runs.append((first, n, t))
            first += n * t
        self.runs = tuple(runs)

    @classmethod
    def of(cls, arrays):
        """``(rows, batch)`` of a list of per-utterance arrays: their rows
        as float64, concatenated in order of length (a stable sort), so
        utterances of equal length form one run."""
        if not arrays:
            raise ValueError("a batch needs at least one utterance")
        order = sorted(range(len(arrays)), key=lambda i: len(arrays[i]))
        rows = np.concatenate([arrays[i] for i in order], dtype=np.float64)
        return rows, cls([len(arrays[i]) for i in order], order)

    def resized(self, frames):
        """The layout after a layer that turns T frames into ``frames(T)``."""
        return Ragged([frames(t) for t in self.lengths], self.order)

    def split(self, rows):
        """Each utterance's rows of ``rows`` (views), in the caller's order."""
        out = [None] * len(self.order)
        first = 0
        for i, t in zip(self.order, self.lengths):
            out[i] = rows[first : first + t]
            first += t
        return out


def _runs(x, batch):
    """The runs of ``batch``; one utterance of ``len(x)`` frames without one."""
    return ((0, 1, len(x)),) if batch is None else batch.runs


def _matmul(x, w, batch):
    """``x @ w`` over the rows of one utterance or of a ragged batch, one
    BLAS product per run of equal-length utterances (module docstring)."""
    if batch is None:
        return x @ w
    out = np.empty((len(x), w.shape[1]))
    for first, n, t in batch.runs:
        rows = slice(first, first + n * t)
        np.matmul(x[rows].reshape(n, t, -1), w, out=out[rows].reshape(n, t, -1))
    return out


def _for_backward(batch, *cache):
    """What a forward pass keeps for its backward pass: ``cache`` for one
    utterance, Nones for a batch. A batch keeps nothing, so inference over
    it holds no layer's activations once it returns."""
    return cache if batch is None else (None,) * len(cache)


def _per_utterance(layer, cache):
    """Refuse a backward pass with no per-utterance forward cached."""
    if cache is None:
        raise ValueError(
            f"{layer}: backward pass without a per-utterance forward; the last "
            "forward was a batch or none ran, and backward passes run one "
            "utterance at a time"
        )


def _init_weight(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, rng, d_in, d_out, name):
        self.name = name
        self.w = Parameter(name + ".w", _init_weight(rng, (d_in, d_out), d_in))
        self.b = Parameter(name + ".b", np.zeros(d_out))
        self._x = None

    def forward(self, x, batch=None):
        (self._x,) = _for_backward(batch, x)
        return _matmul(x, self.w.value, batch) + self.b.value

    def backward(self, dy):
        _per_utterance(f"Linear {self.name!r}", self._x)
        self.w.grad += self._x.T @ dy
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value.T


class Relu(Module):
    _mask = None

    def forward(self, x, batch=None):
        mask = x > 0.0
        (self._mask,) = _for_backward(batch, mask)
        return np.where(mask, x, 0.0)

    def backward(self, dy):
        _per_utterance("Relu", self._mask)
        return np.where(self._mask, dy, 0.0)


def _polevl(x, coef):
    """cephes ``polevl``: the polynomial with coefficients ``coef``
    (highest power first) at ``x``, in Horner order."""
    y = x * coef[0]
    for c in coef[1:-1]:
        y += c
        y *= x
    y += coef[-1]
    return y


def _p1evl(x, coef):
    """cephes ``p1evl``: ``_polevl`` with a leading coefficient of 1."""
    y = x + coef[0]
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erf(x):
    """erf of every entry of ``x``, bit for bit what ``scipy.special.erf``
    returns: a numpy port of the cephes ``ndtr.c`` algorithm it runs.

    - |x| <= 1: ``x T(x^2) / U(x^2)``;
    - |x| > 1: ``1 - exp(-x^2) P(|x|) / Q(|x|)`` with the sign of x. From
      |x| = 6 on that rounds to exactly 1, so |x| is clamped at 6, which
      also takes +-inf to +-1;
    - nan gives a nan with the sign bit clear, as scipy's does, and -0.0
      stays -0.0.

    The exponential must be the C library's ``exp``, which scipy's compiled
    code calls; numpy's vectorised ``np.exp`` misses it by one ulp in a few
    per cent of arguments. numpy's complex ``exp`` calls the C library's
    ``cexp``, which takes ``cexp(x + 0i)`` as ``exp(x) cos 0 + i exp(x) sin
    0``. As cos 0 is exactly 1, the real part is the C library's
    ``exp(x)``, for every entry at once.
    """
    # the |x| <= 1 branch on every entry, clamped so that the others stay
    # finite until they are overwritten; clamping changes exactly those
    # entries and nan
    xc = np.clip(x, -1.0, 1.0)
    tail = np.flatnonzero(xc != x)
    z = xc * xc
    out = _polevl(z, _ERF_T)
    out *= xc
    out /= _p1evl(z, _ERF_U)
    if not tail.size:
        return out
    xt = np.take(x, tail)
    a = np.abs(xt)
    np.minimum(a, 6.0, out=a)
    arg = -a
    arg *= a
    # 1 - e P / Q in cephes' order
    y = np.exp(arg.astype(np.complex128)).real * _polevl(a, _ERFC_P)
    y /= _p1evl(a, _ERFC_Q)
    np.subtract(1.0, y, out=y)
    np.copysign(y, xt, out=y)
    y[np.isnan(y)] = np.nan  # with the sign bit clear
    out.reshape(-1)[tail] = y
    return out


class Gelu(Module):
    """Exact (erf-based) GELU."""

    _x = _cdf = None

    def forward(self, x, batch=None):
        cdf = _erf(x * _INV_SQRT2)
        cdf += 1.0
        cdf *= 0.5
        self._x, self._cdf = _for_backward(batch, x, cdf)
        return x * cdf

    def backward(self, dy):
        x = self._x
        _per_utterance("Gelu", x)
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return dy * (self._cdf + x * pdf)


class Dropout(Module):
    """Inverted dropout; identity when inactive (rate 0 or eval mode)."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x, rng=None):
        if rng is None or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dy):
        if self._mask is None:
            return dy
        return dy * self._mask


class LayerNorm(Module):
    def __init__(self, d, name, eps=1e-6):
        self.name = name
        self.gain = Parameter(name + ".gain", np.ones(d))
        self.bias = Parameter(name + ".bias", np.zeros(d))
        self.eps = eps
        self._inv_std = self._xhat = None

    def forward(self, x, batch=None):
        # np.add.reduce(...) / d is what x.mean and x.var compute, without
        # their Python-level wrappers
        d = x.shape[-1]
        xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = xc * inv_std
        self._inv_std, self._xhat = _for_backward(batch, inv_std, xhat)
        return xhat * self.gain.value + self.bias.value

    def backward(self, dy):
        xhat = self._xhat
        _per_utterance(f"LayerNorm {self.name!r}", xhat)
        d = xhat.shape[-1]
        self.gain.grad += (dy * xhat).sum(axis=0)
        self.bias.grad += dy.sum(axis=0)
        dxhat = dy * self.gain.value
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        return self._inv_std * (dxhat - m1 - xhat * m2)


def _overlap_add(parts, stride, length):
    """Overlap-add of (T, K, C) per-tap rows: a (length, C) array whose row
    ``t * stride + k`` sums ``parts[t, k, :]`` over every (t, k) that lands
    there; rows nothing lands on are zero.

    Equal to ``np.add.at(out, idx.ravel(), parts.reshape(-1, C))`` with
    ``idx[t, k] = t * stride + k`` bit for bit. ``add.at`` adds each row's
    parts in order of t, so of k from high to low. Here the taps go in
    stride-wide blocks, visited from the last block down: the taps of one
    block never share a row, so each block is one reshape-add over a
    strided view, ceil(K / stride) adds in all.
    """
    t, k, c = parts.shape
    n_blocks = -(-k // stride)
    out = np.zeros((max(length, (t + n_blocks - 1) * stride), c))
    for block in reversed(range(n_blocks)):
        lo = block * stride
        taps = parts[:, lo : lo + stride]
        # splitting one axis of a slice is always a view, so += writes out
        rows = out[lo : lo + t * stride].reshape(t, stride, c)
        rows[:, : taps.shape[1]] += taps
    return out[:length]


class Conv1d(Module):
    """Valid (no padding) strided 1-D convolution over (T, C_in) sequences.

    ``init="kaiming"`` keeps activation variance roughly constant through
    deep unnormalized ReLU/GELU stacks; the default matches Linear.
    """

    def __init__(self, rng, c_in, c_out, kernel, stride, name, init="uniform"):
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        self.name = name
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        fan_in = kernel * c_in
        if init == "kaiming":
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, c_out))
        else:
            w = _init_weight(rng, (fan_in, c_out), fan_in)
        self.w = Parameter(name + ".w", w)
        self.b = Parameter(name + ".b", np.zeros(c_out))
        self._cols = None

    def out_length(self, t_in):
        return (t_in - self.kernel) // self.stride + 1 if t_in >= self.kernel else 0

    def forward(self, x, batch=None):
        if x.shape[-1] != self.c_in:
            raise ValueError(f"{self.name}: expected {self.c_in} input channels, got {x.shape[-1]}")
        t_in = len(x) if batch is None else min(batch.lengths)
        if self.out_length(t_in) < 1:
            raise ValueError(f"input of {t_in} frames shorter than kernel {self.kernel}")
        # frame t is the contiguous run of kernel rows from starts[t]: one row
        # of a window view over the flattened rows, c_in values apart
        windows = sliding_window_view(x.reshape(-1), self.kernel * self.c_in)[:: self.c_in]
        cols = windows[self._frame_starts(len(x), batch)]
        out_batch = None if batch is None else batch.resized(self.out_length)
        self._cols, self._t_in = _for_backward(batch, cols, len(x))
        return _matmul(cols, self.w.value, out_batch) + self.b.value

    def _frame_starts(self, rows, batch):
        """The first input row of every output frame, utterance after
        utterance: of one utterance of ``rows`` frames, or of a batch."""
        if batch is None:
            return np.arange(self.out_length(rows)) * self.stride
        # frame j of an utterance whose input rows start at a and whose
        # output rows start at b reads input rows from a + (j - b) * stride
        lengths = np.array(batch.lengths)
        t_out = (lengths - self.kernel) // self.stride + 1
        first_in = np.cumsum(lengths) - lengths
        first_out = np.cumsum(t_out) - t_out
        return (np.arange(t_out.sum()) * self.stride
                + np.repeat(first_in - first_out * self.stride, t_out))

    def backward(self, dy):
        _per_utterance(f"Conv1d {self.name!r}", self._cols)
        self.w.grad += self._cols.T @ dy
        self.b.grad += dy.sum(axis=0)
        dcols = (dy @ self.w.value.T).reshape(-1, self.kernel, self.c_in)
        return _overlap_add(dcols, self.stride, self._t_in)


class ConvTranspose1d(Module):
    """Transposed 1-D convolution whose kernel equals its stride: input row
    t gives output rows t * stride .. t * stride + stride - 1, which no
    other row touches, so the output has exactly stride * T rows."""

    def __init__(self, rng, c_in, c_out, stride, name):
        self.name = name
        self.c_out, self.stride = c_out, stride
        self.w = Parameter(name + ".w", _init_weight(rng, (c_in, stride * c_out), c_in))
        self.b = Parameter(name + ".b", np.zeros(c_out))
        self._x = None

    def out_length(self, t_in):
        return t_in * self.stride

    def forward(self, x, batch=None):
        (self._x,) = _for_backward(batch, x)
        return _matmul(x, self.w.value, batch).reshape(-1, self.c_out) + self.b.value

    def backward(self, dy):
        _per_utterance(f"ConvTranspose1d {self.name!r}", self._x)
        self.b.grad += dy.sum(axis=0)
        dcontrib = dy.reshape(len(self._x), self.stride * self.c_out)
        self.w.grad += self._x.T @ dcontrib
        return dcontrib @ self.w.value.T


def softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def softmax_backward(probs, dprobs, axis=-1):
    """Jacobian-vector product of softmax: given y = softmax(x) and dL/dy."""
    dot = (dprobs * probs).sum(axis=axis, keepdims=True)
    return probs * (dprobs - dot)


def log_softmax_backward(logp, dlogp, axis=-1):
    """Given y = log_softmax(x) and dL/dy, return dL/dx."""
    return dlogp - np.exp(logp) * dlogp.sum(axis=axis, keepdims=True)


class MultiHeadSelfAttention(Module):
    def __init__(self, rng, d_model, n_heads, name):
        if d_model % n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        self.name = name
        self.d_model, self.n_heads = d_model, n_heads
        self.d_head = d_model // n_heads
        self.qkv = Linear(rng, d_model, 3 * d_model, name + ".qkv")
        self.out = Linear(rng, d_model, d_model, name + ".out")
        self._attn = None

    def _split(self, x):
        """(..., T, d_model) -> (..., heads, T, d_head)"""
        *lead, t, _ = x.shape
        return x.reshape(*lead, t, self.n_heads, self.d_head).swapaxes(-3, -2)

    def forward(self, x, batch=None):
        qkv = self.qkv.forward(x, batch)
        scale = 1.0 / math.sqrt(self.d_head)
        merged = []
        for first, n, t in _runs(x, batch):
            # a run of n utterances of t frames attends as one (n, t) stack
            run = qkv[first : first + n * t].reshape(n, t, -1)
            q, k, v = (self._split(a) for a in np.split(run, 3, axis=-1))
            attn = softmax((q @ k.swapaxes(-2, -1)) * scale, axis=-1)
            merged.append((attn @ v).swapaxes(-3, -2).reshape(n * t, self.d_model))
        self._q, self._k, self._v, self._attn, self._scale = _for_backward(
            batch, q[0], k[0], v[0], attn[0], scale)
        merged = merged[0] if len(merged) == 1 else np.concatenate(merged)
        return self.out.forward(merged, batch)

    def backward(self, dy):
        _per_utterance(f"MultiHeadSelfAttention {self.name!r}", self._attn)
        t = dy.shape[0]
        dmerged = self.out.backward(dy)
        dctx = dmerged.reshape(t, self.n_heads, self.d_head).transpose(1, 0, 2)
        dattn = dctx @ self._v.transpose(0, 2, 1)
        dv = self._attn.transpose(0, 2, 1) @ dctx
        dscores = softmax_backward(self._attn, dattn) * self._scale
        dq = dscores @ self._k
        dk = dscores.transpose(0, 2, 1) @ self._q
        dqkv = np.concatenate(
            [a.transpose(1, 0, 2).reshape(t, self.d_model) for a in (dq, dk, dv)], axis=1
        )
        return self.qkv.backward(dqkv)


class TransformerBlock(Module):
    """Pre-norm block: x + attn(ln(x)), then x + ffn(ln(x))."""

    def __init__(self, rng, d_model, n_heads, name, ffn_mult=4):
        self.ln1 = LayerNorm(d_model, name + ".ln1")
        self.attn = MultiHeadSelfAttention(rng, d_model, n_heads, name + ".attn")
        self.ln2 = LayerNorm(d_model, name + ".ln2")
        self.ffn1 = Linear(rng, d_model, ffn_mult * d_model, name + ".ffn1")
        self.act = Gelu()
        self.ffn2 = Linear(rng, ffn_mult * d_model, d_model, name + ".ffn2")

    def forward(self, x, batch=None):
        x = x + self.attn.forward(self.ln1.forward(x, batch), batch)
        h = self.act.forward(self.ffn1.forward(self.ln2.forward(x, batch), batch), batch)
        return x + self.ffn2.forward(h, batch)

    def backward(self, dy):
        d_ffn = self.ln2.backward(self.ffn1.backward(self.act.backward(self.ffn2.backward(dy))))
        dy = dy + d_ffn
        d_attn = self.ln1.backward(self.attn.backward(dy))
        return dy + d_attn


@functools.lru_cache(maxsize=64)
def sinusoidal_positions(t, d):
    """Classic fixed sinusoidal position table, shape (t, d). Computed
    once per (t, d) and shared by every caller, so it is read-only."""
    pos = np.arange(t)[:, None].astype(np.float64)
    dim = np.arange(d // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * dim / d)
    table = np.zeros((t, d))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    table.flags.writeable = False
    return table


def gumbel_noise(rng, shape):
    u = rng.random(shape)
    tiny = np.finfo(np.float64).tiny
    return -np.log(-np.log(np.maximum(u, tiny)) + tiny)
