"""CTC loss with analytic gradients and hypothesis scoring over per-frame
log posteriors.

One alpha recursion (``_alpha_frames``) over blank-interleaved alignment
lattices serves the loss, the forward score, isolated-word Viterbi
decoding and N-best rescoring. It scores a padded batch of targets under
one of two semirings, log-sum-exp (summed paths) or max (best path), and
yields one frame at a time, so each caller keeps only what it reads.
The loss reads every frame of its forward and backward lattices, run as
one two-row batch: the target on the stream, and the reversed target on
the time-reversed stream. ``_ctc_costs`` scores a test set's streams, of
different lengths and each with its own targets, one window of
``LATTICE_WINDOW`` streams at a time: each window is a padded batch run
in one frame loop, each stream's costs read at its own last frame. So a
decode, or the rescoring of a set of N-best lists, holds one window's
lattice whatever the size of the test set; the forward score is its
single-target call.

Alignment-lattice conventions: blank id is 0, lexical tokens are 1..V,
and all lattice arithmetic runs in log space with -inf for impossible
states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

NEG_INF = -np.inf


class UnsatisfiableTargetError(ValueError):
    """Target cannot be aligned within the available frames; the implied
    loss is +inf."""


@dataclass
class TokenVocab:
    """Ordered lexical symbols; ids start at 1, blank is fixed at 0."""

    tokens: tuple

    blank_id = 0

    def __post_init__(self):
        self.tokens = tuple(self.tokens)
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary symbols must be unique")
        self._ids = {tok: i + 1 for i, tok in enumerate(self.tokens)}

    @property
    def width(self):
        """Posterior row width: V lexical classes plus blank."""
        return len(self.tokens) + 1

    def id_of(self, token):
        try:
            return self._ids[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None

    def ids_of(self, tokens):
        return [self.id_of(t) for t in tokens]


def _row_logsumexp(logp):
    m = np.max(logp, axis=1)
    ok = np.isfinite(m)
    # a row of -inf is shifted by 0 and sums to 0; subtracting in C order
    # sums each row in the same order whatever the input's layout
    shift = np.where(ok, m, 0.0)
    with np.errstate(divide="ignore"):
        s = np.log(np.exp(np.subtract(logp, shift[:, None], order="C")).sum(axis=1))
    return np.where(ok, m + s, NEG_INF)


@dataclass
class PosteriorStream:
    """T x (V+1) per-frame log probabilities from one acoustic model."""

    logp: np.ndarray

    def __post_init__(self):
        self.logp = np.asarray(self.logp, dtype=np.float64)
        if self.logp.ndim != 2 or self.logp.shape[0] < 1 or self.logp.shape[1] < 2:
            raise ValueError("posterior stream must be a T x (V+1) matrix with T, V >= 1, "
                             f"got shape {self.logp.shape}")
        if np.isnan(self.logp).any() or (self.logp == np.inf).any():
            raise ValueError("posterior entries must be finite or -inf")
        norm = _row_logsumexp(self.logp)
        if not np.all(np.abs(norm) <= 1e-6):
            worst = float(np.max(np.abs(norm)))
            raise ValueError(f"rows must log-sum-exp to 0 within 1e-6 (worst {worst:.3g})")

    @property
    def width(self):
        return self.logp.shape[1]


def _interleave_blanks(target):
    """[y1..yL] -> [0, y1, 0, y2, ..., yL, 0]."""
    ext = np.zeros(2 * len(target) + 1, dtype=np.int64)
    ext[1::2] = target
    return ext


def _check_target(target, width):
    target = list(target)
    for t in target:
        if not 1 <= t <= width - 1:
            raise ValueError(f"target id {t} outside lexical range 1..{width - 1}")
    return target


def _lattice_states(targets):
    """Blank-interleave the targets into an (N, S) batch of state labels,
    padded at the end to S = 2 * longest + 1. Returns the labels, each
    row's real state count, and where a path may enter a state by
    skipping the blank before it."""
    n_states = np.array([2 * len(y) + 1 for y in targets], dtype=np.int64)
    ext = np.zeros((len(targets), n_states.max(initial=1)), dtype=np.int64)
    for row, y, s_len in zip(ext, targets, n_states):
        row[:s_len] = _interleave_blanks(y)
    skip_ok = np.zeros(ext.shape, dtype=bool)
    skip_ok[:, 2:] = (ext[:, 2:] != 0) & (ext[:, 2:] != ext[:, :-2])
    return ext, n_states, skip_ok


def _alpha_frames(emissions, skip_ok, plus, out=None):
    """The alpha recursion, one frame at a time.

    ``emissions`` gives each frame's (..., N, S) log emissions of the
    lattice states; any leading axes (a batch of streams) ride along
    elementwise. ``skip_ok`` is each row's (N, S) blank-skip mask, as
    ``_lattice_states`` builds it; it broadcasts over the stream axes.
    Rows are independent, so a row's emissions need not come from the
    stream of its neighbours: ``ctc_loss`` pairs its target on the stream
    with the reversed target on the time-reversed stream.

    ``plus`` picks the semiring: ``np.logaddexp`` sums the paths (CTC
    forward score), ``np.maximum`` keeps the best one (Viterbi
    alignment). Yields each frame's alphas, emissions included: written
    into ``out[t]`` when ``out`` is given, else into a new array. A padded
    state never feeds a real one, so every row equals its single-target
    lattice bit for bit.
    """
    prev = step = skip = None
    for t, emit in enumerate(emissions):
        acc = np.empty(emit.shape) if out is None else out[t]
        if prev is None:
            acc.fill(NEG_INF)
            acc[..., :2] = emit[..., :2]
            step = np.full(emit.shape, NEG_INF)
            skip = np.full(emit.shape, NEG_INF)
        else:
            step[..., 1:] = prev[..., :-1]
            skip[..., 2:] = prev[..., :-2]
            plus(prev, step, out=acc)
            plus(acc, skip, out=acc, where=skip_ok)
            acc += emit
        yield acc
        prev = acc


def _final_costs(alpha, n_states, plus):
    """Each target's cost at a final frame's (..., N, S) alphas: -log of
    its summed or best path through the last label or the trailing blank,
    +inf if it has no path."""
    rows = np.arange(len(n_states))
    score = alpha[..., rows, n_states - 1]
    plus(score, alpha[..., rows, n_states - 2], out=score, where=n_states > 1)
    return -score


# Streams per lattice pass of ``_ctc_costs``. tests/bench_lattice.py sweeps
# the window at decode-lex40 shape in both semirings: 64 streams time
# within noise of 320 (its whole test set) at about a fifth of the traced
# peak, and 8 run slower.
LATTICE_WINDOW = 64


def _ctc_costs(logps, targets, plus):
    """(B, N) costs of each stream's own targets, ``LATTICE_WINDOW`` streams
    per frame loop.

    ``targets[b]`` lists the targets of stream ``b``. The lists may differ
    in length: N is the longest, and a shorter list's missing costs are
    +inf. The streams may differ in length too. They run in consecutive
    windows (``_window_costs``), each padded into one lattice batch, and
    each window's costs go into the one result, so the lattice held at
    once does not grow with the number of streams. Every cost
    equals the lattice of that stream and target alone bit for bit.
    """
    if len(targets) != len(logps):
        raise ValueError(f"{len(logps)} streams but {len(targets)} target lists")
    costs = np.full((len(logps), max(map(len, targets), default=0)), np.inf)
    for start in range(0, len(logps), LATTICE_WINDOW):
        window = slice(start, start + LATTICE_WINDOW)
        part = _window_costs(logps[window], targets[window], plus)
        costs[window, : part.shape[1]] = part
    return costs


def _window_costs(logps, targets, plus):
    """``_ctc_costs`` of one window of streams, in one frame loop. They are
    padded into one (T, B, V) array, the recursion runs over (B, N, S)
    alphas, each row with its own states, blank-skip mask and final
    states, and each stream's costs are read at its own last frame. A
    stream of no frames has no path."""
    lengths = np.array([len(x) for x in logps], dtype=np.int64)
    width = logps[0].shape[1]
    padded = np.zeros((lengths.max(), len(logps), width))
    for b, x in enumerate(logps):
        padded[: len(x), b] = x
    ext, n_states, skip_ok = _stream_states(targets)
    # each row's state labels as indices into the flat (B * V) frame
    flat = ext + (np.arange(len(logps)) * width)[:, None, None]
    alphas = _alpha_frames((frame.reshape(-1)[flat] for frame in padded), skip_ok, plus)
    costs = np.full(n_states.shape, np.inf)
    for t, alpha in enumerate(alphas):
        done = np.flatnonzero(lengths == t + 1)
        if done.size:
            # each (stream, target) row with its own state count
            finals = _final_costs(alpha[done].reshape(-1, ext.shape[-1]),
                                  n_states[done].reshape(-1), plus)
            costs[done] = finals.reshape(done.size, -1)
    for row, ts in enumerate(targets):
        costs[row, len(ts) :] = np.inf
    return costs


def _stream_states(targets):
    """``_lattice_states`` of each stream's target list, padded into (B, N,
    S) labels and skip masks and (B, N) state counts; padding rows are a
    lone blank state. Streams that share one list object, as in an
    isolated-word decode of one lexicon, share its states' build."""
    n = max(len(ts) for ts in targets)
    s = 2 * max((len(y) for ts in targets for y in ts), default=0) + 1
    ext = np.zeros((len(targets), n, s), dtype=np.int64)
    n_states = np.ones((len(targets), n), dtype=np.int64)
    skip_ok = np.zeros(ext.shape, dtype=bool)
    built = {}
    for row, ts in enumerate(targets):
        if id(ts) not in built:
            built[id(ts)] = _lattice_states(ts)
        e, ns, ok = built[id(ts)]
        ext[row, : len(ts), : e.shape[1]] = e
        n_states[row, : len(ts)] = ns
        skip_ok[row, : len(ts), : e.shape[1]] = ok
    return ext, n_states, skip_ok


def _stream_logp(stream):
    return stream.logp if isinstance(stream, PosteriorStream) else np.asarray(stream, np.float64)


def _satisfiable(cost, target, logp):
    """A target's lattice cost as a float; raises
    :class:`UnsatisfiableTargetError` when it is +inf (no path)."""
    if cost == np.inf:
        raise UnsatisfiableTargetError(
            f"target of {len(target)} tokens has no valid alignment in {len(logp)} frames"
        )
    return float(cost)


@dataclass
class CtcLossResult:
    value: float
    grad_logp: np.ndarray


def ctc_loss(stream, target) -> CtcLossResult:
    """Negative log probability of the target under all valid alignments,
    plus its gradient with respect to the log posteriors.

    Raises :class:`UnsatisfiableTargetError` when the blank-interleaved
    target cannot fit in the available frames (the loss would be +inf).
    """
    logp = _stream_logp(stream)
    target = _check_target(target, logp.shape[1])
    # the backward lattice is the forward one of the time-reversed stream
    # and reversed target, flipped back; both run as one two-row batch
    ext, n_states, skip_ok = _lattice_states([target, target[::-1]])
    emit = logp[:, ext[0]]
    both = np.stack([emit, logp[::-1, ext[1]]], axis=1)
    lattice = np.empty(both.shape)
    for _ in _alpha_frames(both, skip_ok, np.logaddexp, out=lattice):
        pass
    cost = _satisfiable(_final_costs(lattice[-1, :1], n_states[:1], np.logaddexp)[0],
                        target, logp)
    log_z = -cost
    alphas, betas = lattice[:, 0], lattice[::-1, 1, ::-1]
    # occ[t, s] = P(path passes state s at frame t) / p_t(label(s)), so
    # summing occ over states sharing a label gives -d(-log Z)/d logp.
    # Unreachable states (alpha or beta = -inf) contribute nothing; mask
    # them before the division to avoid -inf - -inf.
    dead = np.isneginf(alphas) | np.isneginf(betas)
    with np.errstate(invalid="ignore"):
        log_occ = alphas + betas - emit - log_z
    occ = np.where(dead, 0.0, np.exp(np.where(dead, NEG_INF, log_occ)))
    grad = np.zeros_like(logp)
    for s, k in enumerate(ext[0]):
        grad[:, k] -= occ[:, s]
    return CtcLossResult(cost, grad)


def ctc_forward_score(stream, label_seq) -> float:
    """Negative log probability of a labeling: the forward half of
    ``ctc_loss``, so it equals that loss's value exactly."""
    logp = _stream_logp(stream)
    target = _check_target(label_seq, logp.shape[1])
    return _satisfiable(_ctc_costs([logp], [[target]], np.logaddexp)[0, 0], target, logp)


class NBestFormatError(ValueError):
    """Malformed N-best JSON line."""


def _is_str_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


@dataclass
class NBestEntry:
    tokens: list
    words: list
    cost: float


@dataclass
class NBestList:
    """Ranked hypotheses; every producer in the toolkit emits entries
    sorted ascending by the cost that ranked them. A list's JSON line is
    ``{"utt_id": ..., "entries": [{"tokens": [...], "words": [...],
    "cost": ...}, ...]}``; its costs are decode costs in a first-pass list
    and combined costs in a rescored one."""

    utt_id: str
    entries: list = field(default_factory=list)

    def to_json(self):
        return json.dumps({"utt_id": self.utt_id, "entries": [vars(e) for e in self.entries]})

    @classmethod
    def from_json_dict(cls, d):
        """The list of one JSON line's object; raises NBestFormatError
        unless it has the shape above, with numeric costs that are not NaN."""
        if not (isinstance(d, dict) and d.keys() == {"utt_id", "entries"}
                and isinstance(d["utt_id"], str) and isinstance(d["entries"], list)):
            raise NBestFormatError('an n-best list is an object of exactly a string "utt_id" '
                                   'and a list "entries"')
        for e in d["entries"]:
            if not isinstance(e, dict) or e.keys() != {"tokens", "words", "cost"}:
                raise NBestFormatError('an n-best entry holds exactly "cost", "tokens" and '
                                       f'"words", got {sorted(e) if isinstance(e, dict) else e!r}')
            if not (_is_str_list(e["tokens"]) and _is_str_list(e["words"])):
                raise NBestFormatError('an n-best entry\'s "tokens" and "words" are lists of '
                                       'strings')
            cost = e["cost"]
            if isinstance(cost, bool) or not isinstance(cost, (int, float)) or cost != cost:
                raise NBestFormatError(f'an n-best entry\'s "cost" is a number, got {cost!r}')
        return cls(d["utt_id"], [NBestEntry(e["tokens"], e["words"], float(e["cost"]))
                                 for e in d["entries"]])
