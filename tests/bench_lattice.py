"""Micro-benchmark of isolated-word decoding's lattice at decode-lex40
shape: 320 streams of 42-48 frames, 40 words of 3 tokens (7 lattice
states) over 12 tokens plus blank, max semiring. It times one lattice
pass per stream against one pass over the padded batch of streams.

    python -m pytest tests/bench_lattice.py

Tier-1 does not collect this file: its name does not start with test_.
"""

import numpy as np
import pytest

from sslasr.ctc import _ctc_costs

from oracles import ctc_lattice

N_STREAMS, N_WORDS, N_TOKENS, TOKENS_PER_WORD = 320, 40, 12, 3


@pytest.fixture(scope="module")
def streams_and_words():
    rng = np.random.default_rng(4242)
    logps = []
    for t in rng.integers(42, 49, size=N_STREAMS):
        logits = rng.normal(size=(t, N_TOKENS + 1))
        logps.append(logits - np.log(np.exp(logits).sum(axis=1, keepdims=True)))
    words = [list(rng.integers(1, N_TOKENS + 1, size=TOKENS_PER_WORD))
             for _ in range(N_WORDS)]
    return logps, words


def per_stream(logps, words):
    return np.stack([ctc_lattice(logp, words, np.maximum)[1] for logp in logps])


@pytest.mark.benchmark(group="lattice-lex40")
def test_per_stream(benchmark, streams_and_words):
    logps, words = streams_and_words
    costs = benchmark(per_stream, logps, words)
    assert costs.shape == (N_STREAMS, N_WORDS)


@pytest.mark.benchmark(group="lattice-lex40")
def test_batched(benchmark, streams_and_words):
    logps, words = streams_and_words
    costs = benchmark(_ctc_costs, logps, [words] * len(logps), np.maximum)
    assert costs.tobytes() == per_stream(logps, words).tobytes()
