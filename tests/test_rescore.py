from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    return PosteriorStream(logp, 20_000, "w2v")


def nbest(costs, tokens=None):
    entries = []
    for i, c in enumerate(costs):
        entries.append(NBestEntry(
            tokens=list(tokens[i]) if tokens else [],
            words=[f"w{i}"],
            cost_per_system={"tdnn": float(c)},
            combined_cost=float(c),
        ))
    return NBestList("utt", entries)


def score_one(nb, stream):
    """``score_nbest_with_ssl`` of a single (N-best list, stream) pair."""
    (scored_list,) = score_nbest_with_ssl([(nb, stream)], VOCAB)
    return scored_list


class TestScoreWithSsl:
    def test_empty_tokens_cost_is_blank_path(self):
        rng = np.random.default_rng(0)
        stream = rand_stream(4, 2, rng)
        nb = score_one(nbest([1.0], tokens=[[]]), stream)
        assert nb.entries[0].cost_per_system["w2v"] == pytest.approx(
            -stream.logp[:, 0].sum(), abs=1e-12
        )

    def test_matches_standalone_forward_score(self):
        rng = np.random.default_rng(1)
        stream = rand_stream(5, 2, rng)
        nb = score_one(nbest([1.0, 2.0], tokens=[["a"], ["a", "b"]]), stream)
        for entry in nb.entries:
            direct = ctc_forward_score(stream, VOCAB.ids_of(entry.tokens))
            assert entry.cost_per_system["w2v"] == direct

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            stream = rand_stream(int(rng.integers(1, 5)), 2, rng)
            toks = [["a"], ["b", "a"], []]
            nb = score_one(nbest([1, 2, 3], tokens=toks), stream)
            for entry in nb.entries:
                expected = ctc_score_by_enumeration(stream.logp, VOCAB.ids_of(entry.tokens))
                got = entry.cost_per_system["w2v"]
                if np.isinf(expected):
                    assert got == np.inf
                else:
                    assert got == pytest.approx(expected, abs=1e-9)

    def test_unsatisfiable_entry_kept_with_inf(self):
        rng = np.random.default_rng(3)
        stream = rand_stream(1, 2, rng)
        nb = score_one(nbest([1.0, 2.0], tokens=[["a", "b", "a"], ["a"]]), stream)
        assert len(nb.entries) == 2
        assert nb.entries[0].cost_per_system["w2v"] == np.inf


    @settings(max_examples=40, deadline=None)
    @given(frames=st.lists(st.integers(1, 8), min_size=1, max_size=6),
           depths=st.lists(st.integers(0, 5), min_size=6, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    @example(frames=[1, 5, 3, 8, 2], depths=[0, 1, 5, 2, 3, 0], seed=0)
    def test_pairs_equal_per_stream_lattice(self, frames, depths, seed):
        # lists of different depths on streams of different lengths, some
        # entries too long to align in their stream; two pairs per lattice
        # window, so windows of different depths pad the result with +inf
        rng = np.random.default_rng(seed)
        pairs = []
        for t, depth in zip(frames, depths):
            toks = [list(rng.choice(["a", "b"], size=rng.integers(0, 7))) for _ in range(depth)]
            pairs.append((nbest(range(depth), tokens=toks), rand_stream(t, 2, rng)))
        with mock.patch.object(ctc, "LATTICE_WINDOW", 2):
            scored_lists = list(score_nbest_with_ssl(pairs, VOCAB))
        for (nb, stream), got in zip(pairs, scored_lists):
            assert [e.words for e in got.entries] == [e.words for e in nb.entries]
            targets = [VOCAB.ids_of(e.tokens) for e in nb.entries]
            expected = ctc_lattice(stream.logp, targets, np.logaddexp)[1]
            costs = np.array([e.cost_per_system["w2v"] for e in got.entries])
            assert costs.tobytes() == expected.tobytes()


def scored(first, second):
    entries = []
    for i, (f, s) in enumerate(zip(first, second)):
        entries.append(NBestEntry([], [f"w{i}"], {"tdnn": f, "w2v": s}, f))
    return NBestList("utt", entries)


class TestRescore:
    def test_spec_ratio_example(self):
        nb = scored(first=(5.0, 7.0, 6.0), second=(10.0, 8.0, 9.0))
        best, out = rescore(nb, 2, 9)
        assert [e.combined_cost for e in out.entries] == [65.0, 72.0, 79.0]
        assert best.words == ["w0"]

    def test_alpha_zero_returns_first_pass_best(self):
        nb = scored(first=(5.0, 4.0, 6.0), second=(1.0, 9.0, 0.5))
        best, _ = rescore(nb, 0.0, 3.0)
        assert best.words == ["w1"]

    def test_alpha_zero_ignores_infinite_second_pass(self):
        nb = scored(first=(5.0, 4.0), second=(float("inf"), float("inf")))
        best, _ = rescore(nb, 0.0, 1.0)
        assert best.words == ["w1"]

    def test_beta_zero_returns_min_second_cost(self):
        nb = scored(first=(5.0, 4.0, 6.0), second=(1.0, 9.0, 0.5))
        best, _ = rescore(nb, 1.0, 0.0)
        assert best.words == ["w2"]

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            nb = scored(first=rng.uniform(1, 9, size=5), second=rng.uniform(1, 9, size=5))
            base, _ = rescore(nb, 2.0, 9.0)
            for c in (0.5, 3.0, 100.0):
                same, _ = rescore(nb, 2.0 * c, 9.0 * c)
                assert same.words == base.words

    def test_tie_prefers_original_rank(self):
        nb = scored(first=(3.0, 3.0), second=(2.0, 2.0))
        best, _ = rescore(nb, 1.0, 1.0)
        assert best.words == ["w0"]

    def test_identical_costs_return_first_pass_best(self):
        nb = scored(first=(3.0, 4.0, 5.0), second=(3.0, 4.0, 5.0))
        for alpha, beta in ((1, 1), (0.2, 5), (9, 2)):
            best, _ = rescore(nb, alpha, beta)
            assert best.words == ["w0"]

    def test_output_is_permutation_of_input(self):
        rng = np.random.default_rng(5)
        nb = scored(first=rng.uniform(1, 9, size=6), second=rng.uniform(1, 9, size=6))
        _, out = rescore(nb, 2.0, 9.0)
        assert sorted(e.words[0] for e in out.entries) == sorted(
            e.words[0] for e in nb.entries
        )
        costs = [e.combined_cost for e in out.entries]
        assert costs == sorted(costs)

    def test_missing_cost_field_rejected(self):
        nb = NBestList("utt", [NBestEntry([], ["w"], {"tdnn": 1.0}, 1.0)])
        with pytest.raises(RescoreError, match="lacks"):
            rescore(nb, 1.0, 1.0, second_system="w2v", first_system="tdnn")

    def test_ambiguous_first_system_rejected(self):
        nb = NBestList("utt", [NBestEntry([], ["w"], {"a": 1.0, "b": 2.0, "w2v": 3.0}, 1.0)])
        with pytest.raises(RescoreError, match="ambiguous"):
            rescore(nb, 1.0, 1.0)

    def test_empty_list_rejected(self):
        with pytest.raises(RescoreError, match="empty"):
            rescore(NBestList("utt", []), 1.0, 1.0)

    @pytest.mark.parametrize("alpha, beta, error", [
        (float("nan"), 9.0, "must be finite"),
        (2.0, float("inf"), "must be finite"),
        (-1.0, 9.0, "must be nonnegative"),
        (2.0, -9.0, "must be nonnegative"),
        (0.0, 0.0, "at least one weight must be positive"),
    ])
    def test_unusable_weights_rejected(self, alpha, beta, error):
        nb = scored(first=(5.0, 7.0), second=(10.0, 8.0))
        with pytest.raises(ValueError, match=f"rescoring weights alpha:beta.*{error}"):
            rescore(nb, alpha, beta)


class TestRescoreHypotheses:
    def test_each_list_rescored_on_its_own_stream(self):
        rng = np.random.default_rng(6)
        tokens = [["a"], ["a", "b"], ["b"], ["b", "a", "b"]]
        lists = []
        for k, depth in enumerate((4, 2, 3)):
            nb = nbest(rng.uniform(1, 9, size=depth), tokens=tokens[:depth])
            lists.append(NBestList(f"u{k}", nb.entries))
        streams = [rand_stream(t, 2, rng) for t in (6, 1, 5)]  # u1 cannot align "ab"
        hyps = rescore_hypotheses(lists, streams, VOCAB, 2.0, 9.0)
        assert [h.utt_id for h in hyps] == ["u0", "u1", "u2"]
        for hyp, nb, stream in zip(hyps, lists, streams):
            best, _ = rescore(score_one(nb, stream), 2.0, 9.0)
            assert (hyp.words, hyp.tokens, hyp.cost) == (best.words, best.tokens,
                                                         best.combined_cost)
