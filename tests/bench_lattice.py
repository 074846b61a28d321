"""Micro-benchmark of the CTC lattice at decode-lex40 shape: 320 streams
of 42-48 frames over 12 tokens plus blank, with words of 3 tokens (7
lattice states).

- ``per_stream`` against ``batched``: isolated-word decoding of a
  40-word lexicon (max semiring), one lattice pass per stream against
  ``ctc._ctc_costs`` over all of them;
- ``window``: ``_ctc_costs`` with ``ctc.LATTICE_WINDOW`` set to 8, 32, 64
  and 320 (the whole set) streams, in both semirings: the max semiring
  over the 40 words, and the log semiring over 20 words per stream, each
  stream with its own list, as in rescoring 20-best lists. Each case's
  ``extra_info`` holds the traced peak of one call (``traced_peak_mb``),
  so the window can be chosen again from time and memory together.

    python -m pytest tests/bench_lattice.py

Tier-1 does not collect this file: its name does not start with test_.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sslasr import ctc
from sslasr.ctc import _ctc_costs

from oracles import ctc_lattice

N_STREAMS, N_WORDS, N_TOKENS, TOKENS_PER_WORD, NBEST = 320, 40, 12, 3, 20
WINDOWS = (8, 32, 64, N_STREAMS)


def lex40_case(n_streams, nbest=None, seed=4242):
    """``n_streams`` log-posterior streams of decode-lex40 shape and their
    target lists: the whole 40-word lexicon for every stream (one shared
    list), or ``nbest`` words of it drawn per stream."""
    rng = np.random.default_rng(seed)
    logps = []
    for t in rng.integers(42, 49, size=n_streams):
        logits = rng.normal(size=(t, N_TOKENS + 1))
        logps.append(logits - np.log(np.exp(logits).sum(axis=1, keepdims=True)))
    words = [list(rng.integers(1, N_TOKENS + 1, size=TOKENS_PER_WORD))
             for _ in range(N_WORDS)]
    if nbest is None:
        return logps, [words] * n_streams
    return logps, [[words[i] for i in rng.choice(N_WORDS, size=nbest, replace=False)]
                   for _ in logps]


def traced_peak(fn, *args):
    """Bytes that ``fn(*args)`` held at its peak above what was allocated
    when it started, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


SEMIRINGS = {"max": (np.maximum, None), "log": (np.logaddexp, NBEST)}


@pytest.fixture(scope="module")
def cases():
    return {name: lex40_case(N_STREAMS, nbest) for name, (_, nbest) in SEMIRINGS.items()}


def per_stream(logps, targets):
    return np.stack([ctc_lattice(logp, words, np.maximum)[1]
                     for logp, words in zip(logps, targets)])


@pytest.mark.benchmark(group="lattice-lex40")
def test_per_stream(benchmark, cases):
    logps, targets = cases["max"]
    costs = benchmark(per_stream, logps, targets)
    assert costs.shape == (N_STREAMS, N_WORDS)


@pytest.mark.benchmark(group="lattice-lex40")
def test_batched(benchmark, cases):
    logps, targets = cases["max"]
    costs = benchmark(_ctc_costs, logps, targets, np.maximum)
    assert costs.tobytes() == per_stream(logps, targets).tobytes()


@pytest.mark.parametrize("semiring", sorted(SEMIRINGS))
@pytest.mark.parametrize("window", WINDOWS)
def test_window(benchmark, cases, semiring, window):
    benchmark.group = f"lattice-window-{semiring}"
    logps, targets = cases[semiring]
    plus, _ = SEMIRINGS[semiring]
    with mock.patch.object(ctc, "LATTICE_WINDOW", window):
        benchmark.extra_info["traced_peak_mb"] = traced_peak(
            _ctc_costs, logps, targets, plus) / 1e6
        costs = benchmark(_ctc_costs, logps, targets, plus)
    assert costs.tobytes() == _ctc_costs(logps, targets, plus).tobytes()
