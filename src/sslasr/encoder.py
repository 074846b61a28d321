"""Toy self-supervised speech encoder: a strided CNN front end, a small
transformer context network, a grouped Gumbel-softmax quantizer, masked
contrastive + diversity pretraining, and a CTC projection head for
supervised fine-tuning.

Frame geometry is fixed by the CNN stack (``CONV_LAYERS``): stride 320
samples (20 ms at 16 kHz) and receptive field 400 samples (25 ms).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .ctc import PosteriorStream, ctc_loss
from .features import FBANK_WIN, AudioBuffer
from .nn import (
    Conv1d,
    Gelu,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Ragged,
    TransformerBlock,
    gumbel_noise,
    log_softmax,
    log_softmax_backward,
    sinusoidal_positions,
    softmax,
    softmax_backward,
)
from .params import train_epochs

# the CNN stack, one (channels, kernel, stride) per layer: a wide first
# kernel resolves tone content far better than a deep narrow stack at this
# parameter budget. Its strides multiply to STRIDE and its receptive field
# is RECEPTIVE_FIELD samples.
CONV_LAYERS = (
    (32, 80, 80),
    (32, 5, 4),
)
# the frame contract at features.SAMPLE_RATE: a 20 ms hop, which the
# bottleneck adapter doubles in rate to features.FRAME_SHIFT_US, over a
# 25 ms receptive field, the filterbank's window
STRIDE = 320
RECEPTIVE_FIELD = FBANK_WIN
# the sinusoidal table's amplitude at the transformer input
POSITION_SCALE = 0.3


# utterances per ragged batch when many are encoded (see windows).
# tests/bench_inference.py: over 32 default-config utterances, batches of
# 8 and 16 take 0.63-0.66 of the per-utterance time when the batch holds
# two lengths and ~0.85 when every length differs; 32 is slower. 8 keeps
# a batch's activations, and the process's peak RSS, smaller than 16.
_WINDOW = 8


@dataclass
class EncoderConfig:
    """The checked ``encoder`` section of a loaded config, built by
    ``config.encoder_config``: the transformer, quantizer and loss
    settings. The CNN geometry is fixed (``CONV_LAYERS``).

    ``gumbel_temperature_min`` is the Gumbel temperature at the last
    pretraining epoch, reached linearly from ``gumbel_temperature``; set it
    equal to ``gumbel_temperature`` to keep the temperature fixed.
    """

    d_model: int
    n_blocks: int
    n_heads: int
    groups: int
    codebook_entries: int  # 320 per codebook at paper scale
    code_dim: int
    mask_prob: float
    mask_span: int
    contrastive_temperature: float  # kappa
    gumbel_temperature: float  # tau
    gumbel_temperature_min: float
    distractors: int  # K
    loss_weight_diversity: float

    def __post_init__(self):
        if self.groups < 1 or self.codebook_entries < 2:
            raise ValueError("codebook_entries: need codebook_entries >= 2 and groups >= 1")
        if self.code_dim % self.groups != 0:
            raise ValueError(f"code_dim: must be divisible by groups ({self.groups})")
        for name in ("gumbel_temperature", "contrastive_temperature", "gumbel_temperature_min"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name)}")
        if self.distractors < 0:
            raise ValueError("distractors: count must be >= 0")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ValueError("mask_prob: must lie in [0, 1]")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(f"n_heads: must divide d_model ({self.d_model}), got {self.n_heads}")


def sample_mask_spans(n_frames, mask_prob, mask_span, rng):
    """Sample mask-span starts with probability ``mask_prob`` per frame,
    and one uniform start if that draws none; a frame is masked iff
    covered by at least one span of length ``mask_span`` (spans are
    clipped at the end of the utterance)."""
    starts = np.flatnonzero(rng.random(n_frames) < mask_prob)
    if starts.size == 0 and n_frames > 0:
        starts = np.array([rng.integers(n_frames)])
    covered = np.zeros(n_frames, dtype=bool)
    for s in starts:
        covered[s : s + mask_span] = True
    return np.flatnonzero(covered)


def windows(items):
    """Consume ``items`` a fixed window at a time, yielding each window as
    a list; a lazy iterable (one that reads files, say) has at most one
    window read at once. Forward passes over many utterances run one
    ragged batch per window."""
    items = iter(items)
    while window := list(itertools.islice(items, _WINDOW)):
        yield window


class GumbelQuantizer(Module):
    """Grouped codebook selection: per frame a (G, V) logit block feeds a
    Gumbel-softmax choice per group; chosen codes are concatenated and
    linearly mapped to the contrastive target space."""

    def __init__(self, rng, d_in, cfg: EncoderConfig, name="quantizer"):
        g, v = cfg.groups, cfg.codebook_entries
        dv = cfg.code_dim // g
        self.groups, self.entries, self.dv = g, v, dv
        self.gumbel_temperature = cfg.gumbel_temperature
        self.proj = Linear(rng, d_in, g * v, name + ".proj")
        self.codebooks = Parameter(name + ".codebooks", rng.normal(0.0, 1.0, size=(g, v, dv)))
        self.out = Linear(rng, cfg.code_dim, cfg.d_model, name + ".out")

    def forward(self, zn, rng=None, hard=True, noise=None):
        """Returns (q, probs): q is (T, d_model); probs is the noise-free
        softmax over each group's logits, whose rows the hard selection
        frequencies follow (Gumbel-max property).

        Noise comes from ``rng`` when given, from a fixed ``noise`` array
        otherwise; with neither, selection is over the bare logits.
        """
        if self.gumbel_temperature <= 0:
            raise ValueError("gumbel temperature must be positive")
        t = zn.shape[0]
        logits = self.proj.forward(zn).reshape(t, self.groups, self.entries)
        probs = softmax(logits, axis=-1)
        if rng is not None:
            noise = gumbel_noise(rng, logits.shape)
        scores = logits if noise is None else logits + noise
        soft = softmax(scores / self.gumbel_temperature, axis=-1)
        if hard:
            sel = np.zeros_like(soft)
            top = np.argmax(scores, axis=-1)
            g_idx, t_idx = np.meshgrid(np.arange(self.groups), np.arange(t))
            sel[t_idx, g_idx, top] = 1.0
        else:
            sel = soft
        codes = np.einsum("tgv,gvd->tgd", sel, self.codebooks.value)
        q = self.out.forward(codes.reshape(t, -1))
        self._soft, self._sel, self._probs, self._shape = soft, sel, probs, (t,)
        return q, probs

    def backward(self, dq, dprobs=None):
        """Backward for the latest forward; hard selections use the
        straight-through estimator (gradients flow via the soft path)."""
        t = self._shape[0]
        dcodes = self.out.backward(dq).reshape(t, self.groups, self.dv)
        self.codebooks.grad += np.einsum("tgv,tgd->gvd", self._sel, dcodes)
        dsel = np.einsum("tgd,gvd->tgv", dcodes, self.codebooks.value)
        dlogits = softmax_backward(self._soft, dsel) / self.gumbel_temperature
        if dprobs is not None:
            dlogits = dlogits + softmax_backward(self._probs, dprobs)
        return self.proj.backward(dlogits.reshape(t, -1))


@dataclass
class ContrastiveResult:
    value: float
    grad_c: np.ndarray
    grad_q: np.ndarray
    distractors: dict
    reduced_frames: dict = field(default_factory=dict)
    accuracy: float = 0.0  # fraction of masked frames whose target wins


def contrastive_loss(c, q, masked_indices, k, kappa, rng=None,
                     distractor_indices=None) -> ContrastiveResult:
    """Masked contrastive objective: mean over masked frames t of

        -log softmax_t( cos(c_t, q_j) / kappa )   over j in {t} + distractors

    Distractors are sampled uniformly without replacement from the other
    masked frames of the same utterance, one ``rng.choice`` per frame in
    frame order. Frames with fewer than ``k`` alternatives get a reduced
    distractor count, recorded in ``reduced_frames``. The masked indices
    must be distinct frames of ``c``.

    Every masked frame is scored at once: one gather of the (masked x
    (1 + K) x d) candidates, one scatter of their gradients into
    ``grad_q``. The dots and norms come from ``np.vecdot``, which calls
    the BLAS ``ddot`` that ``a @ b`` calls on two vectors, so each equals
    the per-frame loop's bit for bit; ``einsum`` and batched ``matmul``
    add in other orders. The cosine partials repeat that loop's
    per-element operations in its order, sums over candidates and over
    frames run left to right, and the scatter visits (frame, candidate)
    pairs in row-major order, so every output is the loop's to the bit.
    """
    c = np.asarray(c, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    masked = np.asarray(sorted(int(i) for i in masked_indices), dtype=np.int64)
    if masked.size == 0:
        raise ValueError("contrastive loss needs at least one masked frame")
    repeats = masked[1:][masked[1:] == masked[:-1]]
    if repeats.size:
        raise ValueError(f"masked frame {int(repeats[0])} is listed more than once")
    if masked[0] < 0 or masked[-1] >= len(c):
        bad = int(masked[0] if masked[0] < 0 else masked[-1])
        raise ValueError(f"masked frame {bad} outside [0, {len(c)})")
    if kappa <= 0:
        raise ValueError("contrastive temperature must be positive")
    if distractor_indices is None:
        if rng is None and k > 0 and masked.size > 1:
            raise ValueError("need an rng (or fixed distractor_indices) to sample distractors")
        distractor_indices = {}
        for t in masked:
            pool = masked[masked != t]
            kt = min(k, pool.size)
            chosen = rng.choice(pool, size=kt, replace=False) if kt else np.empty(0, np.int64)
            distractor_indices[int(t)] = tuple(int(x) for x in chosen)
    others = [tuple(distractor_indices[int(t)]) for t in masked]
    reduced = {int(t): len(d) for t, d in zip(masked, others) if len(d) < k}
    # candidate 0 is the frame's own target; rows with fewer distractors
    # are padded with it and their padded similarities set to -inf
    n_cand = np.array([1 + len(d) for d in others])
    real = np.arange(n_cand.max()) < n_cand[:, None]
    cand = np.repeat(masked[:, None], real.shape[1], axis=1)
    cand[:, 1:][real[:, 1:]] = [x for d in others for x in d]

    eps = 1e-12
    a = c[masked][:, None, :]  # (M, 1, d)
    b = q[cand]  # (M, L, d)
    dot = np.vecdot(a, b)
    na0 = np.sqrt(np.vecdot(a, a))
    nb0 = np.sqrt(np.vecdot(b, b))
    na, nb = na0 + eps, nb0 + eps
    nanb = na * nb
    a_hat = a / np.maximum(na0, eps)[..., None]
    b_hat = b / np.maximum(nb0, eps)[..., None]
    dc = b / nanb[..., None] - (dot / (na * na * nb))[..., None] * a_hat
    dq = a / nanb[..., None] - (dot / (nanb * nb))[..., None] * b_hat
    sims = np.where(real, (dot / nanb) / kappa, -np.inf)

    top = sims.max(axis=1, keepdims=True)
    log_norm = np.empty_like(top)
    for n in set(n_cand.tolist()):
        # numpy sums a row pairwise by its length, so sum equal rows alike
        rows = n_cand == n
        shifted = np.exp(sims[rows, :n] - top[rows])
        log_norm[rows] = top[rows] + np.log(shifted.sum(axis=1, keepdims=True))
    logp = sims - log_norm
    inv_n = 1.0 / masked.size
    dsim = np.exp(logp)
    dsim[:, 0] -= 1.0
    weight = (inv_n * dsim)[..., None]
    parts_c = np.where(real[..., None], weight * (dc / kappa), 0.0)
    rows_c = np.zeros((masked.size, c.shape[1]))
    for j in range(real.shape[1]):  # candidates in order, from +0.0
        rows_c += parts_c[:, j]
    grad_c = np.zeros_like(c)
    grad_c[masked] = rows_c
    # one scatter of single elements, so each element of grad_q adds its
    # parts in row-major (frame, candidate) order; C order makes the flat
    # reshape a view
    grad_q = np.zeros(q.shape)
    cols = np.arange(q.shape[1])
    np.add.at(grad_q.reshape(-1), (cand[real][:, None] * q.shape[1] + cols).ravel(),
              (weight * (dq / kappa))[real].ravel())
    # frames in order from +0.0, where np.sum would regroup them pairwise
    total = np.cumsum(np.concatenate(([0.0], -logp[:, 0])))[-1]
    wins = np.count_nonzero(np.argmax(sims, axis=1) == 0)
    return ContrastiveResult(
        value=float(total * inv_n),
        grad_c=grad_c,
        grad_q=grad_q,
        distractors=distractor_indices,
        reduced_frames=reduced,
        accuracy=wins * inv_n,
    )


def _check_prob_rows(probs):
    sums = probs.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-6):
        raise ValueError("codebook probabilities must sum to 1 per group")
    if (probs < -1e-12).any():
        raise ValueError("codebook probabilities must be nonnegative")


def diversity_loss_with_grad(probs):
    """Softmax-perplexity diversity penalty over batch-averaged codebook
    usage:

        L = (G * V - sum_g exp(H(mean_t probs[t, g]))) / (G * V)

    Returns (value, d value / d probs). Zero when every group's average
    usage is uniform; (G*V - G) / (G*V) when every group collapses.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3:
        raise ValueError("probs must be (T, groups, entries)")
    _check_prob_rows(probs)
    t, g, v = probs.shape
    avg = probs.mean(axis=0)  # (G, V)
    safe = np.where(avg > 0, avg, 1.0)
    ent = -(avg * np.log(safe)).sum(axis=-1)  # natural-log entropy per group
    perp = np.exp(ent)
    value = (g * v - perp.sum()) / (g * v)
    # d value / d avg = -perp_g * dH/davg / (G V);  dH/davg = -(log avg + 1)
    davg = (perp[:, None] * (np.log(safe) + 1.0)) / (g * v)
    dprobs = np.broadcast_to(davg / t, probs.shape).copy()
    return float(value), dprobs


class SslEncoder(Module):
    """CNN feature encoder + transformer context network + quantizer, with
    an optional CTC projection head added at fine-tuning time."""

    def __init__(self, cfg: EncoderConfig, seed=0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.convs = []
        self.conv_acts = []
        c_prev = 1
        for i, (c_out, k, s) in enumerate(CONV_LAYERS):
            self.convs.append(Conv1d(rng, c_prev, c_out, k, s, f"conv{i}", init="kaiming"))
            self.conv_acts.append(Gelu())
            c_prev = c_out
        self.z_norm = LayerNorm(c_prev, "z_norm")
        self.proj = Linear(rng, c_prev, cfg.d_model, "proj")
        self.mask_emb = Parameter(
            "mask_emb", rng.uniform(-1, 1, size=cfg.d_model) / math.sqrt(cfg.d_model)
        )
        self.blocks = [
            TransformerBlock(rng, cfg.d_model, cfg.n_heads, f"block{i}")
            for i in range(cfg.n_blocks)
        ]
        self.final_norm = LayerNorm(cfg.d_model, "final_norm")
        self.quantizer = GumbelQuantizer(rng, c_prev, cfg)
        self.head = None

    # ---- feature encoder ----

    def encode_raw(self, audio):
        """The CNN features, at a 20 ms frame shift, of a list of
        utterances (AudioBuffers or 1-D samples): a list of (T, C) arrays,
        run as one ragged batch (:class:`nn.Ragged`). Each equals the
        per-utterance training forward bit for bit; pass one utterance as
        ``[audio]``."""
        z, batch = self._encode_batch(audio)
        return batch.split(z)

    def _encode_batch(self, audio):
        """``(rows, batch)`` of the CNN stack over a list of utterances."""
        return self._encode(*Ragged.of([self._samples(a) for a in audio]))

    def _encode(self, samples, batch=None):
        """``(rows, batch)`` of the CNN stack over the samples of one
        utterance (``batch`` None: the training forward, which keeps what
        its backward pass needs) or of a ragged batch."""
        shortest = len(samples) if batch is None else min(batch.lengths)
        if shortest < RECEPTIVE_FIELD:
            raise ValueError(
                f"audio of {shortest} samples is shorter than the "
                f"{RECEPTIVE_FIELD}-sample receptive field"
            )
        x = samples[:, None]
        for conv, act in zip(self.convs, self.conv_acts):
            x = conv.forward(x, batch)
            batch = None if batch is None else batch.resized(conv.out_length)
            x = act.forward(x, batch)
        return x, batch

    def _samples(self, audio):
        """The float64 samples of one utterance."""
        if isinstance(audio, AudioBuffer):
            audio = audio.samples
        samples = np.asarray(audio, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("an utterance is an AudioBuffer or 1-D samples, "
                             f"not a {samples.ndim}-D array")
        return samples

    def _encode_backward(self, dz):
        for conv, act in zip(reversed(self.convs), reversed(self.conv_acts)):
            dz = conv.backward(act.backward(dz))
        return dz

    # ---- context network ----

    def _project_and_mask(self, zn, mask_indices, batch=None):
        x = self.proj.forward(zn, batch)
        mask_indices = np.asarray(list(mask_indices), dtype=np.int64)
        if mask_indices.size:
            x = x.copy()
            x[mask_indices] = self.mask_emb.value
        self._mask_indices = mask_indices
        return x

    def transformer_input(self, z, mask_indices=(), batch=None):
        """Projected frames with masked rows replaced by the learned mask
        embedding: exactly what the transformer stack consumes (positions
        are added inside the stack)."""
        return self._project_and_mask(self.z_norm.forward(z, batch), mask_indices, batch)

    def _context_from_input(self, x, batch=None):
        d = self.cfg.d_model
        if batch is None:
            positions = sinusoidal_positions(len(x), d)
        else:
            positions = np.concatenate([sinusoidal_positions(t, d) for t in batch.lengths])
        h = x + POSITION_SCALE * positions
        for block in self.blocks:
            h = block.forward(h, batch)
        return self.final_norm.forward(h, batch)

    def contextualize(self, z, mask_indices=(), batch=None):
        """The context network over the CNN features of one utterance, or
        over the rows of a ragged batch."""
        return self._context_from_input(self.transformer_input(z, mask_indices, batch), batch)

    def _context_backward(self, dc):
        """Propagate dL/dC back to dL/d(normalized features); the caller
        owns the shared z-norm backward."""
        dh = self.final_norm.backward(dc)
        for block in reversed(self.blocks):
            dh = block.backward(dh)
        dx = dh
        if self._mask_indices.size:
            self.mask_emb.grad += dx[self._mask_indices].sum(axis=0)
            dx = dx.copy()
            dx[self._mask_indices] = 0.0
        return self.proj.backward(dx)

    # ---- CTC head ----

    def attach_ctc_head(self, n_classes, seed=0):
        """Add (or replace) the linear projection used for CTC training;
        ``n_classes`` includes the blank."""
        rng = np.random.default_rng(seed)
        self.head = Linear(rng, self.cfg.d_model, n_classes, "ctc_head")

    def represent(self, audio, adapter=None):
        """The one inference pass from audio: CNN, transformer and, with an
        adapter, the adapter with dropout off, over a list of utterances
        as for :meth:`encode_raw`. Returns ``(bn, h)``, a list of rows per
        utterance each: ``bn`` holds the adapter's bottleneck rows (``bn``
        is None without an adapter) and ``h`` what the CTC head consumes,
        the context or the adapter's ``restored`` output.

        The list runs as one ragged batch: its rows go through each layer
        together, the matrix products and attention once per run of equal
        length (:class:`nn.Ragged`), and they are split per utterance only
        at the end. Every entry equals the per-utterance training forward
        bit for bit; one utterance is the batch of one, ``[audio]``."""
        return self._represent(*self._encode_batch(audio), adapter)

    def _represent(self, z, batch, adapter=None):
        """:meth:`represent` from the CNN rows ``z`` of a ragged batch."""
        c = self.contextualize(z, batch=batch)
        if adapter is None:
            return None, batch.split(c)
        bn, h = adapter.forward_arrays(c, batch=batch)
        return batch.resized(adapter.deconv.out_length).split(bn), batch.split(h)

    def head_posteriors(self, h):
        """Per-frame CTC log probabilities at a 20 ms shift over the head
        inputs ``h`` of :meth:`represent`: one stream per input, run as one
        ragged batch."""
        if self.head is None:
            raise ValueError("no CTC head attached; fine-tune the model first")
        rows, batch = Ragged.of(h)
        logp = log_softmax(self.head.forward(rows, batch), axis=-1)
        return [PosteriorStream(x) for x in batch.split(logp)]


def pretrain_step(model, samples, rng=None, hard=True, mask=None, noise=None,
                  distractor_indices=None, contrastive_weight=1.0,
                  diversity_weight=None):
    """Forward + backward of the pretraining objective on one utterance;
    gradients accumulate into the model.

    The stochastic choices (mask spans, Gumbel noise, distractors) come
    from ``rng`` unless passed in explicitly, which makes the loss a
    deterministic function of the parameters for gradient checking.
    Returns (contrastive value, diversity value).
    """
    cfg = model.cfg
    if diversity_weight is None:
        diversity_weight = cfg.loss_weight_diversity
    z, _ = model._encode(model._samples(samples))
    t = z.shape[0]
    if mask is None:
        mask = sample_mask_spans(t, cfg.mask_prob, cfg.mask_span, rng)
    mask = np.asarray(mask, dtype=np.int64)
    zn = model.z_norm.forward(z)
    c = model._context_from_input(model._project_and_mask(zn, mask))
    q_rows, probs = model.quantizer.forward(zn[mask], rng=rng, hard=hard, noise=noise)
    if not np.isfinite(probs).all():
        # overflowed weights; the diversity term would reject these rows
        raise RuntimeError("pretraining diverged: codebook probabilities are not finite")
    q_full = np.zeros_like(c)
    q_full[mask] = q_rows
    contrast = contrastive_loss(
        c, q_full, mask, cfg.distractors, cfg.contrastive_temperature,
        rng=rng, distractor_indices=distractor_indices,
    )
    div_value, div_grad = diversity_loss_with_grad(probs)
    # context branch
    dzn = model._context_backward(contrastive_weight * contrast.grad_c)
    # quantizer branch (only masked rows were quantized)
    dzn_q = model.quantizer.backward(
        contrastive_weight * contrast.grad_q[mask], diversity_weight * div_grad
    )
    dzn[mask] += dzn_q
    dz = model.z_norm.backward(dzn)
    model._encode_backward(dz)
    return contrast, div_value


def pretrain(dataset, cfg: EncoderConfig, epochs, seed, optimizer_cfg=None):
    """Masked contrastive + diversity pretraining on raw audio.

    Returns ``(model, history)`` where history holds one record per epoch
    with mean contrastive, diversity, and combined losses. Training is
    deterministic given the seed; non-finite losses abort.
    """
    seq = np.random.SeedSequence(seed)
    init_seed, loop_seed = seq.spawn(2)
    model = SslEncoder(cfg, seed=init_seed)
    rng = np.random.default_rng(loop_seed)
    tau_hi = cfg.gumbel_temperature
    tau_lo = cfg.gumbel_temperature_min

    def step(i, epoch):
        if epochs > 1:
            model.quantizer.gumbel_temperature = (
                tau_hi + (tau_lo - tau_hi) * epoch / (epochs - 1)
            )
        contrast, ld = pretrain_step(model, dataset[i], rng=rng)
        loss = contrast.value + cfg.loss_weight_diversity * ld
        return loss, contrast.value, ld, contrast.accuracy

    def summarize(parts):
        contrastive = float(np.mean([p[1] for p in parts]))
        diversity = float(np.mean([p[2] for p in parts]))
        return {"contrastive": contrastive, "diversity": diversity,
                "combined": contrastive + cfg.loss_weight_diversity * diversity,
                "accuracy": float(np.mean([p[3] for p in parts]))}

    history = train_epochs(model.parameters(), len(dataset), epochs, rng, optimizer_cfg,
                           step, "pretraining", summarize)
    return model, history


_WHOLE_SCOPES = ("no-feature-encoder", "head-only")


def scope_blocks(scope, n_blocks):
    """The number N of transformer blocks the update scope "first-N-blocks"
    trains, None for the other scopes. Raises ValueError naming an unknown
    scope, or an N outside 1..``n_blocks``."""
    if scope in _WHOLE_SCOPES:
        return None
    match = re.fullmatch(r"first-(\d+)-blocks", scope) if isinstance(scope, str) else None
    if match is None:
        raise ValueError(f"unknown update scope {scope!r}, not first-N-blocks or {_WHOLE_SCOPES}")
    n = int(match.group(1))
    if not 1 <= n <= n_blocks:
        raise ValueError(f"update scope {scope!r}: N must be in 1..{n_blocks} (encoder.n_blocks)")
    return n


def trainable_parameters(model: SslEncoder, scope, adapter=None):
    """Resolve an update scope to a parameter list; no scope trains the
    CNN feature encoder.

    Scopes: "no-feature-encoder" (everything above the CNN stack),
    "first-N-blocks" (CTC head plus the first N transformer blocks only),
    and "head-only"; all but "head-only" add the adapter's parameters.
    """
    if model.head is None:
        raise ValueError("attach a CTC head before selecting trainable parameters")
    n = scope_blocks(scope, len(model.blocks))
    extra = list(adapter.parameters()) if adapter is not None else []
    if scope == "no-feature-encoder":
        conv_params = {id(p) for conv in model.convs for p in conv.parameters()}
        return [p for p in model.parameters() if id(p) not in conv_params] + extra
    if scope == "head-only":
        # strictly the projection head: nothing else may change
        return model.head.parameters()
    chosen = list(model.head.parameters())
    for block in model.blocks[:n]:
        chosen.extend(block.parameters())
    return chosen + extra


def finetune_ctc(dataset, model: SslEncoder, n_classes, epochs, seed,
                 scope="no-feature-encoder", adapter=None, optimizer_cfg=None):
    """Supervised CTC fine-tuning over (CNN features, token-id sequence)
    pairs: the features are the frozen CNN stack's output, one
    :meth:`SslEncoder.encode_raw` array per utterance.

    A fresh linear head is attached if the model has none. Only the
    parameters selected by ``scope`` are updated. Returns the per-epoch
    mean loss history.

    "head-only" freezes everything below the head, so when the stage
    starts it runs the transformer and the adapter once over the
    features, one ragged batch per window of utterances (``windows``),
    and caches the head input (the ``h`` of ``SslEncoder.represent``); a
    head-only stage after an encoder stage sees the trained transformer.
    Each of its steps runs only the head, the CTC loss and the head's
    backward pass. The other scopes step from the features through the
    transformer and the adapter.

    Each step clears only the optimizer's gradients. Frozen layers that
    gradients pass through (block1 under "first-1-blocks") accumulate
    gradients no one reads; a later stage that trains them clears them
    with its own optimizer before its first step.
    """
    seq = np.random.SeedSequence(seed)
    head_seed, loop_seed = seq.spawn(2)
    if model.head is None:
        model.attach_ctc_head(n_classes, seed=head_seed)
    for _, tokens in dataset:
        for tok in tokens:
            if not 1 <= tok <= n_classes - 1:
                raise ValueError(f"token id {tok} outside vocabulary range 1..{n_classes - 1}")
    rng = np.random.default_rng(loop_seed)
    params = trainable_parameters(model, scope, adapter=adapter)
    inputs = [z for z, _ in dataset]
    if scope == "head-only":
        inputs = [h for window in windows(inputs)
                  for h in model._represent(*Ragged.of(window), adapter)[1]]

    def step(i, _epoch):
        return _ctc_step(model, inputs[i], dataset[i][1], adapter, scope)

    return train_epochs(params, len(dataset), epochs, rng, optimizer_cfg, step, "fine-tuning",
                        lambda losses: {"ctc_loss": float(np.mean(losses))})


def _ctc_step(model, x, tokens, adapter, scope):
    """CTC forward + backward from a stage input ``x`` as cached by
    ``finetune_ctc``: the head input under "head-only", CNN features
    otherwise."""
    h = x
    if scope != "head-only":
        h = model.contextualize(x)
        if adapter is not None:
            _, h = adapter.forward_arrays(h)
    logp = log_softmax(model.head.forward(h), axis=-1)
    res = ctc_loss(logp, tokens)
    dh = model.head.backward(log_softmax_backward(logp, res.grad_logp, axis=-1))
    if scope != "head-only":
        if adapter is not None:
            dh = adapter.backward_from_restored(dh)
        model.z_norm.backward(model._context_backward(dh))
    return res.value
