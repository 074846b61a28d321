"""Independent brute-force oracles: exhaustive enumerations kept free of
the code paths they verify."""

import itertools
import math

import numpy as np


def collapse_path(path):
    """CTC collapse: merge repeats, drop blanks (blank id 0)."""
    out = []
    prev = -1
    for k in path:
        if k != prev and k != 0:
            out.append(int(k))
        prev = k
    return tuple(out)


def ctc_score_by_enumeration(logp, target):
    """-log sum of probabilities of every frame labeling that collapses to
    the target; +inf when none does."""
    t_len, width = logp.shape
    target = tuple(int(x) for x in target)
    total = -np.inf
    for path in itertools.product(range(width), repeat=t_len):
        if collapse_path(path) == target:
            total = np.logaddexp(total, sum(logp[t, k] for t, k in enumerate(path)))
    return float(-total)


def greedy_decode(stream):
    """Per-frame argmax, repeats collapsed and blanks dropped; ties break
    toward the lower class index. Returns token ids."""
    return list(collapse_path(np.argmax(getattr(stream, "logp", stream), axis=1)))


def best_alignment_cost_by_enumeration(logp, token_ids):
    """Max-probability monotone alignment of the blank-interleaved token
    sequence: every frame labeling that collapses to the sequence counts."""
    t_len, width = logp.shape
    target = tuple(int(x) for x in token_ids)
    best = -np.inf
    for path in itertools.product(range(width), repeat=t_len):
        if collapse_path(path) == target:
            best = max(best, sum(logp[t, k] for t, k in enumerate(path)))
    return float(-best)


class ReferenceAdam:
    """Per-tensor Adam: the loop the flat-buffer optimizer must match bit
    for bit."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            m += (1.0 - self.beta1) * (p.grad - m)
            v += (1.0 - self.beta2) * (p.grad * p.grad - v)
            p.value[...] -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def reference_train_epochs(params, n_items, epochs, rng, optimizer_cfg, step, what):
    """The epoch loop every trainer used to carry by hand, over the
    per-tensor ``ReferenceAdam``: per epoch one ``rng.permutation`` order,
    per item cleared gradients, ``step(i, epoch)``, the non-finite abort
    and an optimizer step. Returns the ``(epoch, results)`` pairs."""
    opt = ReferenceAdam(params, lr=(optimizer_cfg or {}).get("lr", 1e-3))
    out = []
    for epoch in range(epochs):
        order = rng.permutation(n_items)
        results = []
        for i in order:
            for p in opt.params:
                p.grad = np.zeros_like(p.value)
            result = step(i, epoch)
            loss = result[0] if isinstance(result, tuple) else result
            if not np.isfinite(loss):
                raise RuntimeError(f"{what} diverged at epoch {epoch}: loss={loss}")
            results.append(result)
            opt.step()
        out.append((epoch, results))
    return out


def mdn_nll(weights, means, stds, targets):
    """Mixture negative log likelihood of weights (T, M), means (T, M, D)
    and standard deviations (T, M, D), one frame and one component at a
    time: mean over frames of -log sum_m w_m N(x | mu_m, diag sigma_m^2)."""
    weights, means, stds, targets = (np.asarray(a, dtype=np.float64)
                                     for a in (weights, means, stds, targets))
    n_frames, n_mixtures, d_artic = means.shape
    total = 0.0
    for t in range(n_frames):
        logs = []
        for m in range(n_mixtures):
            z = (targets[t] - means[t, m]) / stds[t, m]
            logs.append(math.log(weights[t, m]) - 0.5 * float(z @ z)
                        - float(np.log(stds[t, m]).sum())
                        - 0.5 * d_artic * math.log(2.0 * math.pi))
        top = max(logs)
        total -= top + math.log(sum(math.exp(v - top) for v in logs))
    return total / n_frames


def _cosine_with_grads(a, b, eps=1e-12):
    """cos(a, b) with the norm guard, plus exact partials."""
    dot = float(a @ b)
    na0, nb0 = math.sqrt(float(a @ a)), math.sqrt(float(b @ b))
    na, nb = na0 + eps, nb0 + eps
    cos = dot / (na * nb)
    da = b / (na * nb) - (dot / (na * na * nb)) * (a / max(na0, eps))
    db = a / (na * nb) - (dot / (na * nb * nb)) * (b / max(nb0, eps))
    return cos, da, db


def reference_contrastive_loss(c, q, masked_indices, k, kappa, rng=None,
                               distractor_indices=None):
    """The masked contrastive loss one masked frame and one candidate at a
    time, drawing distractors with one ``rng.choice`` per frame. Returns
    a dict of the fields of ``encoder.ContrastiveResult``."""
    c = np.asarray(c, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    masked = np.asarray(sorted(int(i) for i in masked_indices), dtype=np.int64)
    if distractor_indices is None:
        distractor_indices = {}
        for t in masked:
            pool = masked[masked != t]
            kt = min(k, pool.size)
            chosen = rng.choice(pool, size=kt, replace=False) if kt else np.empty(0, np.int64)
            distractor_indices[int(t)] = tuple(int(x) for x in chosen)
    reduced = {
        int(t): len(distractor_indices[int(t)])
        for t in masked
        if len(distractor_indices[int(t)]) < k
    }
    grad_c = np.zeros_like(c)
    grad_q = np.zeros_like(q)
    total = 0.0
    wins = 0
    inv_n = 1.0 / masked.size
    for t in masked:
        cand = (int(t),) + tuple(distractor_indices[int(t)])
        sims = np.empty(len(cand))
        dcs = []
        dqs = []
        for j, idx in enumerate(cand):
            cos, dc, dq = _cosine_with_grads(c[t], q[idx])
            sims[j] = cos / kappa
            dcs.append(dc / kappa)
            dqs.append(dq / kappa)
        logp = sims - (sims.max() + np.log(np.exp(sims - sims.max()).sum()))
        total += -logp[0]
        wins += int(np.argmax(sims) == 0)
        dsim = np.exp(logp)
        dsim[0] -= 1.0
        for j, idx in enumerate(cand):
            grad_c[t] += inv_n * dsim[j] * dcs[j]
            grad_q[idx] += inv_n * dsim[j] * dqs[j]
    return {
        "value": float(total * inv_n),
        "grad_c": grad_c,
        "grad_q": grad_q,
        "distractors": distractor_indices,
        "reduced_frames": reduced,
        "accuracy": wins * inv_n,
    }


def _reference_alphas(emit, ext):
    """Log-semiring alpha lattice of one blank-interleaved target ``ext``
    over its (T, S) emissions, one frame and one state at a time."""
    t_len, s_len = emit.shape
    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, :2] = emit[0, :2]
    for t in range(1, t_len):
        for s in range(s_len):
            acc = np.logaddexp(alpha[t - 1, s], alpha[t - 1, s - 1] if s else -np.inf)
            if s >= 2 and ext[s] != 0 and ext[s] != ext[s - 2]:
                acc = np.logaddexp(acc, alpha[t - 1, s - 2])
            alpha[t, s] = acc + emit[t, s]
    return alpha


def ctc_lattice(logp, targets, plus):
    """Forward (alpha) lattice of every target over one (T, V) stream,
    through the program's own alpha recursion and final-state read: the
    one-stream reference that ``ctc._ctc_costs``, its batch over streams
    of different lengths, must equal bit for bit.

    Returns the (T, N, S) lattice, emissions included at every frame, and
    each target's cost (+inf for no path).
    """
    from sslasr.ctc import _alpha_frames, _final_costs, _lattice_states

    ext, n_states, skip_ok = _lattice_states(targets)
    emit = logp[:, ext]
    alphas = np.empty(emit.shape)
    for _ in _alpha_frames(emit, skip_ok, plus, out=alphas):
        pass
    return alphas, _final_costs(alphas[-1], n_states, plus)


def reference_ctc_loss(logp, target):
    """CTC loss and gradient from two separate lattice passes: alphas over
    the stream, betas as the alphas of the reversed target over the
    time-reversed stream. Returns ``(value, grad_logp)``, or ``None`` when
    the target has no alignment."""
    ext = np.zeros(2 * len(target) + 1, dtype=np.int64)
    ext[1::2] = target
    alphas = _reference_alphas(logp[:, ext], ext)
    last = alphas[-1, -1]
    if len(ext) > 1:
        last = np.logaddexp(last, alphas[-1, -2])
    if last == -np.inf:
        return None
    log_z = last
    betas = _reference_alphas(logp[::-1][:, ext[::-1]], ext[::-1])[::-1, ::-1]
    dead = np.isneginf(alphas) | np.isneginf(betas)
    with np.errstate(invalid="ignore"):
        log_occ = alphas + betas - logp[:, ext] - log_z
    occ = np.where(dead, 0.0, np.exp(np.where(dead, -np.inf, log_occ)))
    grad = np.zeros_like(logp)
    for s, k in enumerate(ext):
        grad[:, k] -= occ[:, s]
    return float(-log_z), grad


def reference_overlap_add(parts, stride, length):
    """Row ``t * stride + k`` of a (length, C) array gets ``parts[t, k]``,
    added in order by ``np.add.at``."""
    t, k, c = parts.shape
    out = np.zeros((length, c))
    idx = np.arange(t)[:, None] * stride + np.arange(k)[None, :]
    np.add.at(out, idx.ravel(), parts.reshape(-1, c))
    return out


def reference_conv_transpose(x, w, b, stride, dy):
    """``(y, dx, dw, db)`` of a transposed conv whose kernel equals its
    stride, over the (T, C_in) rows of one utterance, in the general form
    of any kernel: the per-tap products overlap-added by ``np.add.at``
    (``reference_overlap_add``) and the output gradient ``dy`` gathered
    back by an index array."""
    t, c_out = len(x), len(b)
    contrib = (x @ w).reshape(t, stride, c_out)
    y = reference_overlap_add(contrib, stride, t * stride) + b
    idx = np.arange(t)[:, None] * stride + np.arange(stride)[None, :]
    dcontrib = dy[idx].reshape(t, stride * c_out)
    return y, dcontrib @ w.T, x.T @ dcontrib, dy.sum(axis=0)


def reference_conv_frames(x, kernel, stride):
    """The input frames of a valid strided convolution over the (T, C) rows
    of one utterance, gathered by an (n_out, kernel) index array: row t
    is rows t * stride .. t * stride + kernel - 1, flattened."""
    n_out = (len(x) - kernel) // stride + 1
    idx = np.arange(n_out)[:, None] * stride + np.arange(kernel)[None, :]
    return x[idx].reshape(n_out, -1)


def reference_fbank(samples):
    """Log-mel filterbank of a waveform with its frames gathered by an
    index array and the Hamming window built on each call."""
    from sslasr.features import (FBANK_FFT, FBANK_FLOOR, FBANK_HOP, FBANK_WIN,
                                 PREEMPHASIS, mel_filterbank)

    x = np.array(samples, dtype=np.float64)
    x[1:] -= PREEMPHASIS * x[:-1]
    t_out = (len(x) - FBANK_WIN) // FBANK_HOP + 1
    idx = np.arange(t_out)[:, None] * FBANK_HOP + np.arange(FBANK_WIN)[None, :]
    frames = x[idx] * np.hamming(FBANK_WIN)
    power = np.abs(np.fft.rfft(frames, n=FBANK_FFT, axis=1)) ** 2 / FBANK_FFT
    energies = power @ mel_filterbank()[0].T
    return np.log(np.maximum(energies, FBANK_FLOOR))


def reference_splice(data, offsets):
    """Row t becomes rows t + o for each offset, clipped to the first and
    last rows: one clip, gather and concatenation per offset."""
    t = len(data)
    return np.concatenate([data[np.clip(np.arange(t) + o, 0, t - 1)] for o in offsets],
                          axis=1)


def reference_row_logsumexp(logp):
    """log sum exp of each row, -inf for a row of -inf, computed on the
    copied rows whose maximum is finite."""
    m = np.max(logp, axis=1)
    out = np.full(logp.shape[0], -np.inf)
    ok = np.isfinite(m)
    if ok.any():
        out[ok] = m[ok] + np.log(np.exp(logp[ok] - m[ok, None]).sum(axis=1))
    return out


def reference_layer_norm(x, gain, bias, dy, eps=1e-6):
    """Layer normalisation over the last axis written with ``x.mean`` and
    ``x.var``: returns the output and, for the upstream gradient ``dy``,
    the gradients of ``x``, ``gain`` and ``bias``."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return xhat * gain + bias, dx, (dy * xhat).sum(axis=0), dy.sum(axis=0)


def reference_train_am(dataset, cfg, d_feat, n_classes, epochs, seed, optimizer_cfg=None):
    """Frame AM training that splices, casts and checks each utterance on
    every step, through ``reference_train_epochs``; returns (model,
    history) like ``frame_am.train_am``."""
    from sslasr.frame_am import FrameAm, splice_context
    from sslasr.nn import log_softmax, log_softmax_backward

    init_seed, loop_seed = np.random.SeedSequence(seed).spawn(2)
    model = FrameAm(cfg, d_feat, n_classes, seed=init_seed)
    rng = np.random.default_rng(loop_seed)

    def step(i, _epoch):
        feats, labels = dataset[i]
        labels = np.asarray(labels, dtype=np.int64)
        assert labels.shape == (feats.n_frames,)
        assert 0 <= labels.min() and labels.max() < n_classes
        x = splice_context(feats, cfg.offsets).data.astype(np.float64)
        logp = log_softmax(model._forward_logits(x), axis=-1)
        t = logp.shape[0]
        loss = float(-logp[np.arange(t), labels].mean())
        dlogp = np.zeros_like(logp)
        dlogp[np.arange(t), labels] = -1.0 / t
        model._backward_logits(log_softmax_backward(logp, dlogp, axis=-1))
        return loss, int((np.argmax(logp, axis=1) == labels).sum()), t

    history = []
    for epoch, results in reference_train_epochs(model.parameters(), len(dataset), epochs,
                                                 rng, optimizer_cfg, step, "AM training"):
        history.append(
            {"epoch": epoch, "cross_entropy": float(np.mean([r[0] for r in results])),
             "frame_accuracy": sum(r[1] for r in results) / max(sum(r[2] for r in results), 1)}
        )
    return model, history


def reference_ctc_step(model, samples, tokens, adapter=None):
    """CTC forward and backward of one utterance through every layer, from
    its samples: the CNN stack, the context network, the adapter and the
    head, each run per utterance with no cached input. What a fine-tuning
    stage's cached steps must train to the same parameters; returns the
    CTC loss."""
    from sslasr.ctc import ctc_loss
    from sslasr.nn import log_softmax, log_softmax_backward

    h = model.contextualize(model._encode(model._samples(samples))[0])
    if adapter is not None:
        _, h = adapter.forward_arrays(h)
    logp = log_softmax(model.head.forward(h), axis=-1)
    res = ctc_loss(logp, tokens)
    dh = model.head.backward(log_softmax_backward(logp, res.grad_logp, axis=-1))
    if adapter is not None:
        dh = adapter.backward_from_restored(dh)
    model._encode_backward(model.z_norm.backward(model._context_backward(dh)))
    return res.value
