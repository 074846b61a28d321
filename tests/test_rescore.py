from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sslasr import ctc
from sslasr.ctc import (
    NBestEntry,
    NBestList,
    PosteriorStream,
    TokenVocab,
    ctc_forward_score,
)
from sslasr.rescore import (RescoreError, rescore, rescore_hypotheses,
                            score_nbest_with_ssl)

from oracles import ctc_lattice, ctc_score_by_enumeration

VOCAB = TokenVocab(("a", "b"))


def rand_stream(t, v, rng):
    logits = rng.normal(size=(t, v + 1))
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return PosteriorStream(logp)


def nbest(costs, tokens=None, utt_id="utt"):
    return NBestList(utt_id, [NBestEntry(list(tokens[i]) if tokens else [], [f"w{i}"], float(c))
                              for i, c in enumerate(costs)])


def score_one(nb, stream):
    """``score_nbest_with_ssl`` of a single (N-best list, stream) pair: its
    row of SSL costs."""
    (costs,) = score_nbest_with_ssl([nb], [stream], VOCAB)
    return costs


class TestScoreWithSsl:
    def test_empty_tokens_cost_is_blank_path(self):
        rng = np.random.default_rng(0)
        stream = rand_stream(4, 2, rng)
        costs = score_one(nbest([1.0], tokens=[[]]), stream)
        assert costs[0] == pytest.approx(-stream.logp[:, 0].sum(), abs=1e-12)

    def test_matches_standalone_forward_score(self):
        rng = np.random.default_rng(1)
        stream = rand_stream(5, 2, rng)
        nb = nbest([1.0, 2.0], tokens=[["a"], ["a", "b"]])
        for entry, cost in zip(nb.entries, score_one(nb, stream)):
            assert cost == ctc_forward_score(stream, VOCAB.ids_of(entry.tokens))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            stream = rand_stream(int(rng.integers(1, 5)), 2, rng)
            nb = nbest([1, 2, 3], tokens=[["a"], ["b", "a"], []])
            for entry, got in zip(nb.entries, score_one(nb, stream)):
                expected = ctc_score_by_enumeration(stream.logp, VOCAB.ids_of(entry.tokens))
                if np.isinf(expected):
                    assert got == np.inf
                else:
                    assert got == pytest.approx(expected, abs=1e-9)

    def test_unsatisfiable_entry_kept_with_inf(self):
        rng = np.random.default_rng(3)
        costs = score_one(nbest([1.0, 2.0], tokens=[["a", "b", "a"], ["a"]]),
                          rand_stream(1, 2, rng))
        assert costs.shape == (2,) and costs[0] == np.inf and np.isfinite(costs[1])

    def test_list_and_stream_counts_must_match(self):
        rng = np.random.default_rng(7)
        with pytest.raises(RescoreError, match="2 n-best lists but 1 SSL streams"):
            score_nbest_with_ssl([nbest([1.0]), nbest([2.0])], [rand_stream(3, 2, rng)], VOCAB)

    @settings(max_examples=40, deadline=None)
    @given(frames=st.lists(st.integers(1, 8), min_size=1, max_size=6),
           depths=st.lists(st.integers(0, 5), min_size=6, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(frames=[1, 5, 3, 8, 2], depths=[0, 1, 5, 2, 3, 0], seed=0)
    def test_pairs_equal_per_stream_lattice(self, frames, depths, seed):
        # lists of different depths on streams of different lengths, some
        # entries too long to align in their stream; two lists per lattice
        # window, so windows of different depths pad the result with +inf
        rng = np.random.default_rng(seed)
        lists, streams = [], []
        for t, depth in zip(frames, depths):
            toks = [list(rng.choice(["a", "b"], size=rng.integers(0, 7))) for _ in range(depth)]
            lists.append(nbest(range(depth), tokens=toks))
            streams.append(rand_stream(t, 2, rng))
        with mock.patch.object(ctc, "LATTICE_WINDOW", 2):
            costs = score_nbest_with_ssl(lists, streams, VOCAB)
        assert costs.shape == (len(lists), max(depths[: len(lists)]))
        for nb, stream, row in zip(lists, streams, costs):
            targets = [VOCAB.ids_of(e.tokens) for e in nb.entries]
            expected = ctc_lattice(stream.logp, targets, np.logaddexp)[1]
            assert row[: len(targets)].tobytes() == expected.tobytes()
            assert (row[len(targets):] == np.inf).all()


def rescored(first, second, alpha, beta):
    """``rescore`` of a list whose entries w0, w1, ... have the given
    first-pass and SSL costs."""
    return rescore(nbest(first), np.array(second, dtype=np.float64), alpha, beta)


class TestRescore:
    def test_spec_ratio_example(self):
        out = rescored((5.0, 7.0, 6.0), (10.0, 8.0, 9.0), 2, 9)
        assert [e.cost for e in out.entries] == [65.0, 72.0, 79.0]
        assert out.entries[0].words == ["w0"]

    def test_alpha_zero_returns_first_pass_best(self):
        out = rescored((5.0, 4.0, 6.0), (1.0, 9.0, 0.5), 0.0, 3.0)
        assert out.entries[0].words == ["w1"]

    def test_alpha_zero_ignores_infinite_second_pass(self):
        out = rescored((5.0, 4.0), (float("inf"), float("inf")), 0.0, 1.0)
        assert out.entries[0].words == ["w1"]

    def test_beta_zero_returns_min_second_cost(self):
        out = rescored((5.0, 4.0, 6.0), (1.0, 9.0, 0.5), 1.0, 0.0)
        assert out.entries[0].words == ["w2"]

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            first, second = rng.uniform(1, 9, size=5), rng.uniform(1, 9, size=5)
            base = rescored(first, second, 2.0, 9.0).entries[0]
            for c in (0.5, 3.0, 100.0):
                assert rescored(first, second, 2.0 * c, 9.0 * c).entries[0].words == base.words

    def test_tie_prefers_original_rank(self):
        out = rescored((3.0, 3.0), (2.0, 2.0), 1.0, 1.0)
        assert out.entries[0].words == ["w0"]

    def test_identical_costs_return_first_pass_best(self):
        for alpha, beta in ((1, 1), (0.2, 5), (9, 2)):
            out = rescored((3.0, 4.0, 5.0), (3.0, 4.0, 5.0), alpha, beta)
            assert out.entries[0].words == ["w0"]

    def test_output_is_permutation_of_input(self):
        rng = np.random.default_rng(5)
        nb = nbest(rng.uniform(1, 9, size=6))
        out = rescore(nb, rng.uniform(1, 9, size=6), 2.0, 9.0)
        assert sorted(e.words[0] for e in out.entries) == sorted(
            e.words[0] for e in nb.entries
        )
        costs = [e.cost for e in out.entries]
        assert costs == sorted(costs)

    def test_empty_list_rejected(self):
        with pytest.raises(RescoreError, match="empty"):
            rescore(NBestList("utt", []), np.zeros(0), 1.0, 1.0)

    def test_one_ssl_cost_per_entry(self):
        with pytest.raises(RescoreError, match="'utt': 3 entries but 2 SSL costs"):
            rescored((1.0, 2.0, 3.0), (1.0, 2.0), 1.0, 1.0)

    @pytest.mark.parametrize("alpha, beta, error", [
        (float("nan"), 9.0, "must be finite"),
        (2.0, float("inf"), "must be finite"),
        (-1.0, 9.0, "must be nonnegative"),
        (2.0, -9.0, "must be nonnegative"),
        (0.0, 0.0, "at least one weight must be positive"),
    ])
    def test_unusable_weights_rejected(self, alpha, beta, error):
        with pytest.raises(ValueError, match=f"rescoring weights alpha:beta.*{error}"):
            rescored((5.0, 7.0), (10.0, 8.0), alpha, beta)


def oracle_combined(nb, logp, alpha, beta):
    """Each entry's combined cost, its SSL cost enumerated path by path;
    a zero weight drops its cost, infinite or not."""
    def weighted(weight, cost):
        return 0.0 if weight == 0 else weight * cost
    return [weighted(alpha, ctc_score_by_enumeration(logp, VOCAB.ids_of(e.tokens)))
            + weighted(beta, e.cost) for e in nb.entries]


@st.composite
def rescoring_sets(draw):
    """First-pass lists of random depth over random token strings, each
    with its SSL stream of random length (some entries too long for it,
    so their SSL cost is +inf), and weights that may be 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lists, streams = [], []
    for k in range(draw(st.integers(1, 4))):
        depth = draw(st.integers(1, 5))
        tokens = [list(rng.choice(["a", "b"], size=rng.integers(0, 4))) for _ in range(depth)]
        first = sorted(draw(st.lists(st.sampled_from([0.5, 1.0, 2.5, 4.0, np.inf]),
                                     min_size=depth, max_size=depth)))
        lists.append(nbest(first, tokens=tokens, utt_id=f"u{k}"))
        streams.append(rand_stream(draw(st.integers(1, 5)), 2, rng))
    weight = st.sampled_from([0.0, 0.5, 1.0, 2.0, 9.0])
    alpha, beta = draw(weight), draw(weight)
    assume(alpha + beta > 0)
    return lists, streams, alpha, beta


class TestRescoreHypotheses:
    def test_each_list_rescored_on_its_own_stream(self):
        rng = np.random.default_rng(6)
        tokens = [["a"], ["a", "b"], ["b"], ["b", "a", "b"]]
        lists = [nbest(rng.uniform(1, 9, size=depth), tokens=tokens[:depth], utt_id=f"u{k}")
                 for k, depth in enumerate((4, 2, 3))]
        streams = [rand_stream(t, 2, rng) for t in (6, 1, 5)]  # u1 cannot align "ab"
        hyps = rescore_hypotheses(lists, streams, VOCAB, 2.0, 9.0)
        assert [h.utt_id for h in hyps] == ["u0", "u1", "u2"]
        for hyp, nb, stream in zip(hyps, lists, streams):
            best = rescore(nb, score_one(nb, stream), 2.0, 9.0).entries[0]
            assert (hyp.words, hyp.tokens, hyp.cost) == (best.words, best.tokens, best.cost)

    @settings(max_examples=60, deadline=None)
    @given(rescoring_sets())
    @example(([nbest([1.0, 2.0], tokens=[["a", "b", "a"], ["b", "a", "b"]])],
              [rand_stream(2, 2, np.random.default_rng(0))], 2.0, 9.0))
    def test_matches_combine_then_min_oracle(self, drawn):
        """Each hypothesis is the entry of least combined cost, ties going
        to the lower first-pass rank; the example's SSL costs are all +inf,
        so its entries tie and the first one wins."""
        lists, streams, alpha, beta = drawn
        hyps = rescore_hypotheses(lists, streams, VOCAB, alpha, beta)
        assert [h.utt_id for h in hyps] == [nb.utt_id for nb in lists]
        for hyp, nb, stream in zip(hyps, lists, streams):
            combined = oracle_combined(nb, stream.logp, alpha, beta)
            least = min(combined)
            near = [r for r, c in enumerate(combined)
                    if c == least or abs(c - least) <= 1e-9 * max(1.0, abs(least))]
            rank = [e.words for e in nb.entries].index(hyp.words)
            # an entry within rounding of the least but not equal to it may
            # win in the lattice's arithmetic; an exact tie goes to rank
            if all(combined[r] == least for r in near):
                assert rank == near[0]
            else:
                assert rank in near
            assert hyp.cost == pytest.approx(least, rel=1e-9, abs=1e-9)
