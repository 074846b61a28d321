"""Outside-in span tracer for the benchmark's traced run.

It wraps the public functions and methods of the program's modules from
the outside: nothing under ``src/`` changes. Each wrapped call is a span.
Per span name it records the call count, inclusive time and self time
(inclusive time minus the time of its direct child spans). A few spans
also record work counts taken from their arguments, such as lattice
cells, and the final loss of each training loop.

Spans live in this process only: calls made inside ``--jobs`` pool
workers are lost with the workers.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

# Modules whose public functions and methods are wrapped. ``config`` only
# parses settings.
LAYERS = ("corpus", "features", "nn", "params", "encoder", "bottleneck",
          "inversion", "frame_am", "ctc", "decoder", "rescore", "pipeline", "cli")

# Recursive and called ~220k times per recipe pass; zero_grad, which calls
# it, is wrapped instead.
SKIP = {"nn.Module.parameters"}

# Spans whose self time is orchestration rather than a layer's work: the
# root span, ``pipeline.*``, ``cli.*`` and these training loops. Their summed
# self time is what the trace leaves unattributed. The self time of
# ``pipeline.decode_utterances`` is the wait for the decoding pool, so it is
# the decoder's, not orchestration.
POOL_WAIT = "pipeline.decode_utterances"
TRAINING_LOOPS = {"encoder.pretrain", "encoder.finetune_ctc", "bottleneck.train_adapter",
                  "inversion.train_inversion", "frame_am.train_am"}

# Pipeline stages that train a model; an encoder pass outside them serves
# recognition.
TRAINING_STAGES = {"pipeline.pretrain_encoder", "pipeline.finetune_encoder",
                   "pipeline.train_inversion_model", "pipeline.train_frame_am"}

# Entry points of a decoding pass; nested ones are not counted twice.
DECODE_PASSES = {"pipeline.decode_utterances", "decoder.decode_stream",
                 "decoder.joint_decode", "decoder.isolated_nbest"}


def _frames(stream):
    logp = getattr(stream, "logp", stream)
    return len(logp)


def _lattice_cells(args):
    """T x S cells of a blank-interleaved alignment lattice."""
    return _frames(args[0]) * (2 * len(args[1]) + 1)


def _pass_frames(name, args):
    if name == "pipeline.decode_utterances":
        return sum(_frames(task[1][0]) for task in args[0])
    if name == "decoder.joint_decode":
        return _frames(args[0][0])
    return _frames(args[0])


def _final(key):
    def pick(result):
        history = result[1] if isinstance(result, tuple) else result
        return history[-1][key] if history else math.nan
    return pick


FINALS = {
    "encoder.pretrain": ("encoder.pretrain.final_loss", _final("combined")),
    "encoder.finetune_ctc": ("encoder.finetune_ctc.final_loss", _final("ctc_loss")),
    "bottleneck.train_adapter": ("bottleneck.train_adapter.final_mse", _final("mse")),
    "inversion.train_inversion": ("inversion.train_inversion.final_nll", _final("nll")),
    "frame_am.train_am": ("frame_am.train_am.final_ce", _final("cross_entropy")),
}


class Tracer:
    """Span statistics for one process; ``install`` patches the program,
    ``uninstall`` restores it."""

    def __init__(self, package):
        self.package = package
        self.finals = {}
        self.names = []  # every wrapped span name
        self._patches = []
        self.reset()

    def reset(self):
        """Drop span statistics; final losses are kept."""
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.extra = Counter()
        self._stack = []  # [name, child time] per open span

    # -- recording ------------------------------------------------------

    def _record(self, name, fn, args, kwargs):
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            st = self.stats[name]
            st[0] += 1
            st[1] += dt
            st[2] += dt - frame[1]
            if stack:
                stack[-1][1] += dt
        self._after(name, args, kwargs, result, dt)
        return result

    def _after(self, name, args, kwargs, result, dt):
        extra = self.extra
        if name in ("ctc.ctc_loss", "ctc.ctc_forward_score", "decoder.viterbi_align_cost"):
            extra[name + ".cells"] += _lattice_cells(args)
        elif name == "params.Adam.step":
            extra[name + ".tensors"] += len(args[0].params)
        elif name == "encoder.SslEncoder.encode_raw":
            if not any(f[0] in TRAINING_STAGES for f in self._stack):
                extra[name + ".recognition_calls"] += 1
        elif name == "encoder.finetune_ctc":
            scope = args[5] if len(args) > 5 else kwargs.get("scope", "no-feature-encoder")
            extra[f"{name}.{scope}.s"] += dt
        if name in DECODE_PASSES and not any(f[0] in DECODE_PASSES for f in self._stack):
            extra["decoder.pass_frames"] += _pass_frames(name, args)
            extra["decoder.pass_s"] += dt
        if name in FINALS:
            key, pick = FINALS[name]
            self.finals[key] = float(pick(result))

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` as a span of the given name."""
        return self._record(name, fn, args, kwargs)

    def _wrap(self, name, fn):
        record = self._record

        def traced(*args, **kwargs):
            return record(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        return traced

    # -- patching -------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original, replacement) for every
        public function and method defined in a layer module."""
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        yield name, mod, attr, obj, self._wrap(name, obj)
                elif inspect.isclass(obj):
                    for meth, raw in vars(obj).items():
                        name = f"{layer}.{attr}.{meth}"
                        if meth.startswith("_") or name in SKIP:
                            continue
                        if isinstance(raw, (classmethod, staticmethod)):
                            new = type(raw)(self._wrap(name, raw.__func__))
                        elif inspect.isfunction(raw):
                            new = self._wrap(name, raw)
                        else:
                            continue
                        yield name, obj, meth, raw, new

    def install(self):
        """Patch every wrapped function where it is looked up: in its own
        module, in every module that imported it by name, and in
        module-level dispatch tables such as the CLI's command map."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}
        self.names = []
        for name, owner, attr, raw, new in self._targets():
            self.names.append(name)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            if inspect.isfunction(raw):
                replacements[id(raw)] = (raw, new)
        mods = [self.package] + [getattr(self.package, m) for m in LAYERS + ("config",)]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacements and obj is replacements[id(obj)][0]:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replacements[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = replacements.get(id(value))
                        if hit and value is hit[0]:
                            self._patches.append((obj, key, value))
                            obj[key] = hit[1]

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches = []

    # -- reporting ------------------------------------------------------

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def inclusive(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def unattributed_s(self, root):
        """Summed self time of the orchestration spans under ``root``."""
        return sum(st[2] for name, st in self.stats.items()
                   if name == root or name in TRAINING_LOOPS
                   or (name.startswith(("pipeline.", "cli.")) and name != POOL_WAIT))
