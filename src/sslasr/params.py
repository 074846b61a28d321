"""Named-parameter store, binary serialization, and optimizers.

Store file layout (little-endian), magic ``SPM1``:

    magic        4 bytes  b"SPM1"
    n_tensors    u32
    per tensor:
        name_len u16, name utf-8 bytes
        rank     u32
        dims     u32 * rank
        payload  f64 * prod(dims), C order

Names are unique within a file. Every malformed file raises
StoreFormatError.

Optimizers own flat storage. On construction, ``SgdMomentum`` and ``Adam``
pack the values and gradients of the parameters they are given into one
contiguous buffer each (``nn.pack_parameters``); every ``Parameter.value``
and ``.grad`` becomes a reshaped view into them. ``step`` then applies the
update rule as a few whole-vector in-place operations into reused scratch
buffers, performing for every element the same IEEE operations in the same
order as a per-tensor loop would, and ``zero_grad`` is one fill. Packing is
per optimizer, so a fine-tuning stage that trains a subset of a model gets
its own buffers over exactly that subset.

``train_epochs`` is the one training schedule. Every trainer in the
package (pretraining, CTC fine-tuning, the bottleneck adapter, the
inversion MDN and the frame acoustic model) hands it a per-item ``step``
and reads back each epoch's results: it builds the optimizer, draws each
epoch's visiting order, clears and applies the gradients around each
step and aborts on a non-finite loss.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .nn import pack_parameters, unpack_parameters

MAGIC = b"SPM1"


class StoreFormatError(ValueError):
    """Malformed parameter-store file."""


class ParameterStore:
    """Ordered mapping of tensor name -> float64 ndarray."""

    def __init__(self, tensors=None):
        self.tensors = dict(tensors or {})

    @classmethod
    def from_module(cls, module):
        return cls({p.name: p.value.copy() for p in module.parameters()})

    def load_into(self, module):
        """Copy stored values into a module's parameters, matching by name."""
        params = module.param_dict()
        missing = set(params) - set(self.tensors)
        extra = set(self.tensors) - set(params)
        if missing or extra:
            raise KeyError(
                f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, param in params.items():
            value = self.tensors[name]
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: stored {value.shape}, "
                    f"model {param.value.shape}"
                )
            param.value[...] = value

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(self.tensors)))
            for name, value in self.tensors.items():
                raw = name.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                arr = np.ascontiguousarray(value, dtype="<f8")
                fh.write(struct.pack("<I", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                fh.write(arr.tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != MAGIC:
            raise StoreFormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
        off = 4

        def take(n):
            nonlocal off
            if off + n > len(blob):
                raise StoreFormatError("truncated parameter store")
            chunk = blob[off : off + n]
            off += n
            return chunk

        (count,) = struct.unpack("<I", take(4))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StoreFormatError(f"tensor name is not utf-8: {exc}") from None
            if name in tensors:
                raise StoreFormatError(f"tensor {name!r} appears twice")
            (rank,) = struct.unpack("<I", take(4))
            dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
            # exact integer product: a fixed-width one can wrap to a size
            # the payload seems to match
            payload = take(8 * math.prod(dims))
            try:
                value = np.frombuffer(payload, dtype="<f8").reshape(dims)
            except ValueError as exc:  # too many dims, or a size numpy cannot hold
                raise StoreFormatError(f"tensor {name!r} has unusable dims: {exc}") from None
            tensors[name] = value.copy()
        if off != len(blob):
            raise StoreFormatError("trailing bytes after last tensor")
        return cls(tensors)


class SgdMomentum:
    """SGD with Nesterov momentum (Sutskever et al. 2013) and optional
    linear learning-rate decay: ``v = mu * v + g``, then
    ``x -= lr * (g + mu * v)``. Momentum 0 is plain SGD.

    With ``decay_steps`` set, the rate falls linearly from ``lr`` to zero
    across that many calls to ``step``.
    """

    def __init__(self, params, lr, momentum=0.9, decay_steps=None):
        self.params = list(params)
        self.value, self.grad = pack_parameters(self.params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.decay_steps = decay_steps
        self.velocity = np.zeros_like(self.value)
        self._scratch = np.empty_like(self.value)
        self.t = 0

    def zero_grad(self):
        self.grad.fill(0.0)

    def current_lr(self):
        if not self.decay_steps:
            return self.lr
        frac = max(0.0, 1.0 - self.t / self.decay_steps)
        return self.lr * frac

    def step(self):
        lr = self.current_lr()
        g, v, s = self.grad, self.velocity, self._scratch
        v *= self.momentum
        v += g
        # x -= lr * (g + mu * v)
        np.multiply(v, self.momentum, out=s)
        np.add(g, s, out=s)
        s *= lr
        self.value -= s
        self.t += 1


class Adam:
    """Adam; available behind configuration where SGD converges too slowly."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.value, self.grad = pack_parameters(self.params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self._s1 = np.empty_like(self.value)
        self._s2 = np.empty_like(self.value)
        self.t = 0

    def zero_grad(self):
        self.grad.fill(0.0)

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        g, m, v, s1, s2 = self.grad, self.m, self.v, self._s1, self._s2
        # m += (1 - beta1) * (g - m)
        np.subtract(g, m, out=s1)
        s1 *= 1.0 - self.beta1
        m += s1
        # v += (1 - beta2) * (g * g - v)
        np.multiply(g, g, out=s1)
        s1 -= v
        s1 *= 1.0 - self.beta2
        v += s1
        # x -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=s1)
        s1 *= self.lr
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        self.value -= s1


def make_optimizer(params, cfg):
    """Build an optimizer from a config mapping with keys
    ``optimizer`` ("sgd" | "adam"), ``lr``, ``momentum``, ``decay_steps``."""
    kind = cfg.get("optimizer", "sgd")
    if kind == "sgd":
        return SgdMomentum(
            params,
            lr=cfg.get("lr", 1e-5),
            momentum=cfg.get("momentum", 0.9),
            decay_steps=cfg.get("decay_steps"),
        )
    if kind == "adam":
        return Adam(params, lr=cfg.get("lr", 1e-3))
    raise ValueError(f"unknown optimizer {kind!r}")


def train_epochs(params, n_items, epochs, rng, optimizer_cfg, step, what):
    """Run ``epochs`` passes of one optimizer step per item over ``params``.

    The optimizer comes from ``optimizer_cfg`` (see ``make_optimizer``),
    with ``decay_steps`` defaulting to ``epochs * n_items``. Each epoch
    visits the items in the order ``rng.permutation(n_items)``; per item
    it clears the gradients, calls ``step(i, epoch)`` to accumulate them,
    and applies them. A step returns its loss, or a tuple whose first
    element is the loss; a loss that is not finite raises RuntimeError
    naming ``what`` and the epoch. Yields ``(epoch, results)`` after each
    epoch, ``results`` holding the step returns in visiting order.

    When the schedule ends, however it ends, the parameters leave the
    optimizer's flat buffers for storage of their own, values and
    gradients kept, so the buffers go with the optimizer.
    """
    cfg = dict(optimizer_cfg or {})
    cfg.setdefault("decay_steps", max(1, epochs * n_items))
    opt = make_optimizer(params, cfg)
    try:
        for epoch in range(epochs):
            results = []
            for i in rng.permutation(n_items):
                opt.zero_grad()
                result = step(i, epoch)
                loss = result[0] if isinstance(result, tuple) else result
                if not np.isfinite(loss):
                    raise RuntimeError(f"{what} diverged at epoch {epoch}: loss={loss}")
                results.append(result)
                opt.step()
            yield epoch, results
    finally:
        # the optimizer's moments and scratch go first, so the copies
        # never coexist with them
        params = opt.params
        del opt
        unpack_parameters(params)
