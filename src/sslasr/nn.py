"""Minimal neural-net layers with explicit forward/backward passes.

All computation is float64 numpy. Every layer caches what its backward pass
needs on the most recent forward call, so the usage pattern is strictly
forward -> backward per example; parameter gradients accumulate across
examples until they are cleared.

Gradients live in optimizer-owned storage: an optimizer packs the values
and gradients of the parameters it is given into one flat buffer each
(``pack_parameters``), and the optimizer's ``zero_grad`` clears them with
a single fill. The one training schedule, ``params.train_epochs``, clears
only its optimizer's gradients before each step: a frozen layer that
gradients pass through accumulates gradients no one reads.
``Module.zero_grad`` clears every parameter of a module, for callers that
compute gradients without an optimizer.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def _init_weight(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, rng, d_in, d_out, name):
        self.w = Parameter(name + ".w", _init_weight(rng, (d_in, d_out), d_in))
        self.b = Parameter(name + ".b", np.zeros(d_out))
        self._x = None

    def forward(self, x):
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, dy):
        self.w.grad += self._x.T @ dy
        self.b.grad += dy.sum(axis=0)
        return dy @ self.w.value.T


class Relu(Module):
    def forward(self, x):
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, dy):
        return np.where(self._mask, dy, 0.0)


class Gelu(Module):
    """Exact (erf-based) GELU."""

    def forward(self, x):
        self._x = x
        self._cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        return x * self._cdf

    def backward(self, dy):
        x = self._x
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
        self.gain = Parameter(name + ".gain", np.ones(d))
        self.bias = Parameter(name + ".bias", np.zeros(d))
        self.eps = eps

    def forward(self, x):
        # np.add.reduce(...) / d is what x.mean and x.var compute, without
        # their Python-level wrappers
        d = x.shape[-1]
        xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._xhat = xc * self._inv_std
        return self._xhat * self.gain.value + self.bias.value

    def backward(self, dy):
        xhat = self._xhat
        d = xhat.shape[-1]
        self.gain.grad += (dy * xhat).sum(axis=0)
        self.bias.grad += dy.sum(axis=0)
        dxhat = dy * self.gain.value
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
        return self._inv_std * (dxhat - m1 - xhat * m2)


def _overlap_add(parts, stride, length):
    """Overlap-add of (T, K, C) per-tap rows: a (length, C) array whose
    row ``t * stride + k`` sums ``parts[t, k]`` over every (t, k) that
    lands there; rows nothing lands on are zero.

    Equal to ``np.add.at(out, idx.ravel(), parts.reshape(-1, C))`` with
    ``idx[t, k] = t * stride + k`` bit for bit. ``add.at`` adds each
    row's parts in order of t, so of k from high to low. Here the taps
    go in stride-wide blocks, visited from the last block down: the
    taps of one block never share a row, so each block is one
    reshape-add over a strided view, ceil(K / stride) adds in all.
    """
    t, k, c = parts.shape
    n_blocks = -(-k // stride)
    out = np.zeros((max(length, (t + n_blocks - 1) * stride), c))
    for block in reversed(range(n_blocks)):
        lo = block * stride
        taps = parts[:, lo : lo + stride]
        out[lo : lo + t * stride].reshape(t, stride, c)[:, : taps.shape[1]] += taps
    return out[:length]


class Conv1d(Module):
    """Valid (no padding) strided 1-D convolution over (T, C_in) sequences.

    ``init="kaiming"`` keeps activation variance roughly constant through
    deep unnormalized ReLU/GELU stacks; the default matches Linear.
    """

    def __init__(self, rng, c_in, c_out, kernel, stride, name, init="uniform"):
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        fan_in = kernel * c_in
        if init == "kaiming":
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, c_out))
        else:
            w = _init_weight(rng, (fan_in, c_out), fan_in)
        self.w = Parameter(name + ".w", w)
        self.b = Parameter(name + ".b", np.zeros(c_out))

    def out_length(self, t_in):
        return (t_in - self.kernel) // self.stride + 1 if t_in >= self.kernel else 0

    def forward(self, x):
        t_in = x.shape[0]
        t_out = self.out_length(t_in)
        if t_out < 1:
            raise ValueError(f"input of {t_in} frames shorter than kernel {self.kernel}")
        idx = (np.arange(t_out)[:, None] * self.stride + np.arange(self.kernel)[None, :])
        cols = x[idx].reshape(t_out, self.kernel * self.c_in)
        self._cols, self._t_in = cols, t_in
        return cols @ self.w.value + self.b.value

    def backward(self, dy):
        self.w.grad += self._cols.T @ dy
        self.b.grad += dy.sum(axis=0)
        dcols = (dy @ self.w.value.T).reshape(-1, self.kernel, self.c_in)
        return _overlap_add(dcols, self.stride, self._t_in)


class ConvTranspose1d(Module):
    """Transposed 1-D convolution; with kernel == stride the output length
    is exactly stride * T (no overlap, no cropping ambiguity)."""

    def __init__(self, rng, c_in, c_out, kernel, stride, name):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        self.w = Parameter(name + ".w", _init_weight(rng, (c_in, kernel * c_out), c_in))
        self.b = Parameter(name + ".b", np.zeros(c_out))

    def out_length(self, t_in):
        return (t_in - 1) * self.stride + self.kernel

    def forward(self, x):
        t_in = x.shape[0]
        t_out = self.out_length(t_in)
        contrib = (x @ self.w.value).reshape(t_in, self.kernel, self.c_out)
        idx = np.arange(t_in)[:, None] * self.stride + np.arange(self.kernel)[None, :]
        self._x, self._idx = x, idx
        return _overlap_add(contrib, self.stride, t_out) + self.b.value

    def backward(self, dy):
        self.b.grad += dy.sum(axis=0)
        dcontrib = dy[self._idx].reshape(self._x.shape[0], self.kernel * self.c_out)
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
        self.d_model, self.n_heads = d_model, n_heads
        self.d_head = d_model // n_heads
        self.qkv = Linear(rng, d_model, 3 * d_model, name + ".qkv")
        self.out = Linear(rng, d_model, d_model, name + ".out")

    def _split(self, x):
        t = x.shape[0]
        return x.reshape(t, self.n_heads, self.d_head).transpose(1, 0, 2)

    def forward(self, x):
        t = x.shape[0]
        qkv = self.qkv.forward(x)
        q, k, v = (self._split(a) for a in np.split(qkv, 3, axis=1))
        scale = 1.0 / math.sqrt(self.d_head)
        scores = (q @ k.transpose(0, 2, 1)) * scale
        attn = softmax(scores, axis=-1)
        ctx = attn @ v
        self._q, self._k, self._v, self._attn, self._scale = q, k, v, attn, scale
        merged = ctx.transpose(1, 0, 2).reshape(t, self.d_model)
        return self.out.forward(merged)

    def backward(self, dy):
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

    def forward(self, x):
        x = x + self.attn.forward(self.ln1.forward(x))
        return x + self.ffn2.forward(self.act.forward(self.ffn1.forward(self.ln2.forward(x))))

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
