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


def labelings_by_enumeration(logp):
    """All labelings ranked by total probability (ties by labeling)."""
    t_len, width = logp.shape
    scores = {}
    for path in itertools.product(range(width), repeat=t_len):
        lab = collapse_path(path)
        lp = sum(logp[t, k] for t, k in enumerate(path))
        scores[lab] = np.logaddexp(scores.get(lab, -np.inf), lp)
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


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


def word_loop_by_enumeration(logp, entries, penalty):
    """Best word sequence under the loop model: per word sequence, frames
    split into optional blank runs and token occupancies (>= 1 frame);
    a blank run is mandatory between adjacent equal tokens of the same
    word and optional everywhere else. Returns (cost, word list).

    ``entries`` is a list of (word, token-id tuple).
    """
    t_len = logp.shape[0]
    best_score, best_words = -np.inf, None

    def all_sequences(max_words):
        yield ()
        prev = [()]
        for _ in range(max_words):
            new = [p + (i,) for p in prev for i in range(len(entries))]
            prev = new
            yield from new

    for wseq in all_sequences(t_len):
        toks = []
        blank_required = []
        for wi in wseq:
            ids = entries[wi][1]
            for j, tok in enumerate(ids):
                blank_required.append(j > 0 and ids[j] == ids[j - 1])
                toks.append(tok)
        n_tok = len(toks)
        if n_tok > t_len:
            continue
        best_seq = -np.inf

        def walk(pos, t, acc):
            nonlocal best_seq
            if pos == n_tok:
                tail = sum(logp[u, 0] for u in range(t, t_len))
                best_seq = max(best_seq, acc + tail)
                return
            g_min = 1 if (pos > 0 and blank_required[pos]) else 0
            g = g_min
            while t + g < t_len:
                blanks = sum(logp[u, 0] for u in range(t, t + g))
                occ = 1
                while t + g + occ <= t_len:
                    span = sum(logp[u, toks[pos]] for u in range(t + g, t + g + occ))
                    walk(pos + 1, t + g + occ, acc + blanks + span)
                    occ += 1
                g += 1

        if n_tok == 0:
            best_seq = sum(logp[u, 0] for u in range(t_len))
        else:
            walk(0, 0, 0.0)
        score = best_seq - penalty * len(wseq)
        if score > best_score + 1e-12:
            best_score, best_words = score, [entries[wi][0] for wi in wseq]
    return float(-best_score), best_words


class ReferenceSgdMomentum:
    """Per-tensor SGD with Nesterov momentum and optional linear decay:
    the loop the flat-buffer optimizer must match bit for bit."""

    def __init__(self, params, lr, momentum=0.9, decay_steps=None):
        self.params = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.decay_steps = decay_steps
        self.velocity = [np.zeros_like(p.value) for p in self.params]
        self.t = 0

    def step(self):
        lr = self.lr
        if self.decay_steps:
            lr = self.lr * max(0.0, 1.0 - self.t / self.decay_steps)
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            p.value -= lr * (p.grad + self.momentum * v)
        self.t += 1


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
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def reference_train_epochs(params, n_items, epochs, rng, optimizer_cfg, step, what):
    """The epoch loop every trainer used to carry by hand, over the
    per-tensor reference optimizers: per epoch one ``rng.permutation``
    order, per item cleared gradients, ``step(i, epoch)``, the non-finite
    abort and an optimizer step. Returns the ``(epoch, results)`` pairs."""
    cfg = dict(optimizer_cfg or {})
    if cfg.get("optimizer", "sgd") == "adam":
        opt = ReferenceAdam(params, lr=cfg.get("lr", 1e-3))
    else:
        opt = ReferenceSgdMomentum(params, cfg.get("lr", 1e-5), cfg.get("momentum", 0.9),
                                   cfg.get("decay_steps", max(1, epochs * n_items)))
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


def mdn_nll(mix, targets):
    """Mixture negative log likelihood, one frame and one component at a
    time: mean over frames of -log sum_m w_m N(x | mu_m, diag sigma_m^2)."""
    targets = np.asarray(targets, dtype=np.float64)
    n_frames, n_mixtures, d_artic = mix.means.shape
    total = 0.0
    for t in range(n_frames):
        logs = []
        for m in range(n_mixtures):
            z = (targets[t] - mix.means[t, m]) / mix.stds[t, m]
            logs.append(math.log(mix.weights[t, m]) - 0.5 * float(z @ z)
                        - float(np.log(mix.stds[t, m]).sum())
                        - 0.5 * d_artic * math.log(2.0 * math.pi))
        top = max(logs)
        total -= top + math.log(sum(math.exp(v - top) for v in logs))
    return total / n_frames
