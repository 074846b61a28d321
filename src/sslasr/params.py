"""Named-parameter store and the Adam optimizer.

A store file is a container of float64 tensors (``container``, which
describes the byte layout); a malformed one raises
``container.ContainerError``.

The optimizer is Adam, configured by one mapping, ``{"optimizer": "adam",
"lr": rate}`` (``OPTIMIZER_DEFAULTS``), which ``make_optimizer`` and the
config loader check with ``optimizer_errors``. It owns flat storage: on
construction it packs the values and gradients of its parameters into one
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
and a ``summarize`` of one epoch's step results: it builds the optimizer,
draws each epoch's visiting order, clears and applies the gradients
around each step, aborts on a non-finite loss, and makes, logs and
returns the per-epoch history records.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import container
from .nn import pack_parameters, unpack_parameters

logger = logging.getLogger(__name__)


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
        container.write(path, np.float64, ((name, np.asarray(value, np.float64))
                                           for name, value in self.tensors.items()),
                        "tensor name")

    @classmethod
    def load(cls, path):
        return cls(container.read(path, np.float64, "tensor name"))


class Adam:
    """Adam (Kingma & Ba 2015) over flat buffers, the optimizer of every
    training stage."""

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


# the one optimizer mapping; a key left out takes its value here
OPTIMIZER_DEFAULTS = {"optimizer": "adam", "lr": 1e-3}


def optimizer_errors(cfg, path="optimizer"):
    """Each way ``cfg`` is not an optimizer mapping, by its dotted path under
    ``path``: a key that nothing reads, an optimizer other than "adam", a
    rate that is not a positive finite number."""
    if not isinstance(cfg, dict):
        return [f"{path} must be a mapping like {OPTIMIZER_DEFAULTS}, got {cfg!r}"]
    errors = [f"{path}.{key}: nothing reads it" for key in cfg if key not in OPTIMIZER_DEFAULTS]
    if cfg.get("optimizer", "adam") != "adam":
        errors.append(f"{path}.optimizer: {cfg['optimizer']!r} is not an optimizer here "
                      "(Adam is the only one)")
    lr = cfg.get("lr", OPTIMIZER_DEFAULTS["lr"])
    if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr < math.inf:
        errors.append(f"{path}.lr: must be a positive finite number, got {lr!r}")
    return errors


def make_optimizer(params, cfg=None):
    """Adam over ``params`` from an optimizer mapping (None: the defaults).
    Raises ValueError naming every error ``optimizer_errors`` finds."""
    cfg = cfg or {}
    errors = optimizer_errors(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    return Adam(params, lr=cfg.get("lr", OPTIMIZER_DEFAULTS["lr"]))


def train_epochs(params, n_items, epochs, rng, optimizer_cfg, step, what, summarize):
    """Run ``epochs`` passes of one optimizer step per item over ``params``
    and return the training history, one record per epoch.

    The optimizer comes from ``optimizer_cfg`` (see ``make_optimizer``).
    Each epoch visits the items in the order ``rng.permutation(n_items)``;
    per item it clears the gradients, calls ``step(i, epoch)`` to
    accumulate them, and applies them. A step returns its loss, or a tuple
    whose first element is the loss; a loss that is not finite raises
    RuntimeError naming ``what`` and the epoch. After each epoch the
    record ``{"epoch": epoch, **summarize(results)}``, ``results`` holding
    the step returns in visiting order, joins the history and is logged
    as one INFO line.

    When the schedule ends, returning or raising, the parameters leave the
    optimizer's flat buffers for storage of their own, values and
    gradients kept, so the buffers go with the optimizer.
    """
    opt = make_optimizer(params, optimizer_cfg)
    history = []
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
            history.append({"epoch": epoch, **summarize(results)})
            logger.info("%s: %s", what, history[-1])
        return history
    finally:
        # the optimizer's moments and scratch go first, so the copies
        # never coexist with them
        params = opt.params
        del opt
        unpack_parameters(params)
