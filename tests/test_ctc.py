import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslasr import ctc
from sslasr.ctc import (
    NBestEntry,
    NBestFormatError,
    NBestList,
    PosteriorStream,
    TokenVocab,
    UnsatisfiableTargetError,
    _ctc_costs,
    ctc_forward_score,
    ctc_loss,
)
from sslasr.nn import log_softmax, log_softmax_backward

from bench_lattice import lex40_case, traced_peak
from gradcheck import array_grad_check
from oracles import (
    best_alignment_cost_by_enumeration,
    ctc_lattice,
    ctc_score_by_enumeration,
    greedy_decode,
    reference_ctc_loss,
    reference_row_logsumexp,
)


def random_logp(t, v, rng):
    logits = rng.normal(size=(t, v + 1))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


class TestTokenVocab:
    def test_ids_start_at_one(self):
        vocab = TokenVocab(("a", "b"))
        assert vocab.blank_id == 0
        assert vocab.id_of("a") == 1
        assert vocab.width == 3

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            TokenVocab(("a", "a"))

    def test_unknown_token(self):
        with pytest.raises(KeyError):
            TokenVocab(("a",)).id_of("z")


class TestRowLogSumExp:
    """The one-pass logsumexp of rows with finite maxima equals the masked
    computation bit for bit, and rows of -inf give -inf, in C or Fortran
    order."""

    @settings(max_examples=100, deadline=None)
    @given(t=st.integers(1, 8), width=st.integers(1, 45),
           rows=st.sampled_from(["finite", "partly -inf", "some all -inf"]),
           fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_masked_reference(self, t, width, rows, fortran, seed):
        rng = np.random.default_rng(seed)
        logp = rng.normal(scale=5.0, size=(t, width))
        if rows != "finite":
            logp[rng.random((t, width)) < 0.4] = -np.inf
        if rows == "some all -inf":
            logp[rng.random(t) < 0.5] = -np.inf
            logp[0] = -np.inf
        if fortran:
            logp = np.asfortranarray(logp)
        assert ctc._row_logsumexp(logp).tobytes() == reference_row_logsumexp(logp).tobytes()


class TestPosteriorStream:
    def test_rows_must_normalize(self):
        bad = np.log(np.full((2, 3), 0.5))
        with pytest.raises(ValueError, match="log-sum-exp"):
            PosteriorStream(bad)

    def test_neg_inf_allowed(self):
        row = np.array([[0.0, -np.inf, -np.inf]])
        s = PosteriorStream(row)
        assert s.n_frames == 1


class TestCtcLoss:
    def test_single_frame_single_token(self):
        rng = np.random.default_rng(0)
        logp = random_logp(1, 3, rng)
        res = ctc_loss(logp, [2])
        assert res.value == pytest.approx(-logp[0, 2], abs=1e-12)

    def test_two_frames_one_token_three_paths(self):
        rng = np.random.default_rng(1)
        logp = random_logp(2, 2, rng)
        p = np.exp(logp)
        expected = -np.log(
            p[0, 1] * p[1, 1] + p[0, 1] * p[1, 0] + p[0, 0] * p[1, 1]
        )
        assert ctc_loss(logp, [1]).value == pytest.approx(expected, abs=1e-12)

    def test_repeat_needs_three_frames(self):
        rng = np.random.default_rng(2)
        with pytest.raises(UnsatisfiableTargetError):
            ctc_loss(random_logp(2, 2, rng), [1, 1])

    def test_target_longer_than_frames(self):
        rng = np.random.default_rng(3)
        with pytest.raises(UnsatisfiableTargetError):
            ctc_loss(random_logp(2, 2, rng), [1, 2, 1])

    def test_out_of_vocab_target(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="lexical range"):
            ctc_loss(random_logp(3, 2, rng), [3])

    def test_gradient_matches_finite_differences_on_logits(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 4))
        target = [1, 2, 1]

        def loss():
            return ctc_loss(log_softmax(logits, axis=-1), target).value

        logp = log_softmax(logits, axis=-1)
        res = ctc_loss(logp, target)
        grad_logits = log_softmax_backward(logp, res.grad_logp, axis=-1)
        worst = array_grad_check(loss, logits, grad_logits, n_coords=24 * 4, h=1e-5)
        assert worst <= 1e-4


@st.composite
def loss_cases(draw):
    """(logp, target): a random stream, some entries -inf, and a target
    that may repeat tokens or be too long for the stream."""
    t = draw(st.integers(1, 12))
    v = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logp = random_logp(t, v, rng)
    if draw(st.booleans()):
        dead = rng.random(logp.shape) < 0.2
        dead[:, 0] = False
        logp[dead] = -np.inf
    return logp, draw(st.lists(st.integers(1, v), max_size=t + 2))


class TestLossOracle:
    """The loss runs its alphas and betas as one two-row lattice batch;
    value and gradient equal two separate per-state passes bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=loss_cases())
    @example(case=(random_logp(3, 2, np.random.default_rng(9)), []))
    @example(case=(random_logp(3, 2, np.random.default_rng(9)), [1, 1]))
    @example(case=(random_logp(2, 2, np.random.default_rng(9)), [1, 1]))
    def test_equals_two_pass_reference(self, case):
        logp, target = case
        ref = reference_ctc_loss(logp, target)
        if ref is None:
            with pytest.raises(UnsatisfiableTargetError, match="no valid alignment"):
                ctc_loss(logp, target)
            return
        res = ctc_loss(logp, target)
        assert np.float64(res.value).tobytes() == np.float64(ref[0]).tobytes()
        assert res.grad_logp.tobytes() == ref[1].tobytes()


class TestForwardScore:
    def test_empty_labeling_is_blank_path(self):
        rng = np.random.default_rng(6)
        logp = random_logp(4, 2, rng)
        assert ctc_forward_score(logp, []) == pytest.approx(-logp[:, 0].sum(), abs=1e-12)

    def test_equals_loss_value(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t, v = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            logp = random_logp(t, v, rng)
            target = list(rng.integers(1, v + 1, size=rng.integers(0, t + 1)))
            try:
                loss = ctc_loss(logp, target).value
            except UnsatisfiableTargetError:
                with pytest.raises(UnsatisfiableTargetError):
                    ctc_forward_score(logp, target)
                continue
            assert ctc_forward_score(logp, target) == loss

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t, v = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            logp = random_logp(t, v, rng)
            target = list(rng.integers(1, v + 1, size=rng.integers(0, min(t, 3) + 1)))
            expected = ctc_score_by_enumeration(logp, target)
            if np.isinf(expected):
                with pytest.raises(UnsatisfiableTargetError):
                    ctc_forward_score(logp, target)
            else:
                assert ctc_forward_score(logp, target) == pytest.approx(expected, abs=1e-9)


SEMIRINGS = {
    "log": (np.logaddexp, ctc_score_by_enumeration),
    "max": (np.maximum, best_alignment_cost_by_enumeration),
}


@st.composite
def lattice_batches(draw, max_frames, max_targets):
    """(logp, targets): a random stream, some entries -inf, and a batch of
    mixed-length targets; a target may be longer than the stream."""
    t = draw(st.integers(1, max_frames))
    v = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logp = random_logp(t, v, rng)
    if draw(st.booleans()):
        dead = rng.random(logp.shape) < 0.2
        dead[:, 0] = False
        logp[dead] = -np.inf
    target = st.lists(st.integers(1, v), max_size=t + 2)
    return logp, draw(st.lists(target, min_size=1, max_size=max_targets))


# an empty target, adjacent repeats that fit, and ones that cannot align
EDGE_BATCH = (random_logp(3, 2, np.random.default_rng(9)),
              [[], [1, 1], [2, 2, 2], [1, 2, 1, 2], [1]])


class TestBatchedLattice:
    @settings(max_examples=60, deadline=None)
    @given(case=lattice_batches(5, 5), semiring=st.sampled_from(sorted(SEMIRINGS)))
    @example(case=EDGE_BATCH, semiring="log")
    @example(case=EDGE_BATCH, semiring="max")
    def test_rows_match_enumeration(self, case, semiring):
        logp, targets = case
        plus, oracle = SEMIRINGS[semiring]
        costs = ctc_lattice(logp, targets, plus)[1]
        for target, cost in zip(targets, costs):
            expected = oracle(logp, target)
            if np.isinf(expected):
                assert cost == np.inf
            else:
                assert cost == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(case=lattice_batches(30, 40), semiring=st.sampled_from(sorted(SEMIRINGS)))
    @example(case=EDGE_BATCH, semiring="log")
    @example(case=EDGE_BATCH, semiring="max")
    def test_rows_equal_single_target_calls(self, case, semiring):
        logp, targets = case
        plus, _ = SEMIRINGS[semiring]
        costs = ctc_lattice(logp, targets, plus)[1]
        for target, cost in zip(targets, costs):
            assert cost.tobytes() == ctc_lattice(logp, [target], plus)[1].tobytes()


@st.composite
def stream_batches(draw, max_streams, max_frames, max_targets):
    """(logps, targets): streams of mixed lengths over one vocabulary, some
    entries -inf, and a batch of targets; a target may be too long for
    some streams."""
    v = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logps = []
    for t in draw(st.lists(st.integers(1, max_frames), min_size=1, max_size=max_streams)):
        logp = random_logp(t, v, rng)
        if draw(st.booleans()):
            dead = rng.random(logp.shape) < 0.2
            dead[:, 0] = False
            logp[dead] = -np.inf
        logps.append(logp)
    target = st.lists(st.integers(1, v), max_size=max_frames + 2)
    return logps, draw(st.lists(target, min_size=1, max_size=max_targets))


# a one-frame stream next to longer ones: only the empty and one-token
# targets fit it, and [1, 1] needs three frames
EDGE_STREAMS = ([random_logp(t, 2, np.random.default_rng(t)) for t in (1, 4, 2, 3)],
                [[], [1], [1, 1], [2, 1, 2], [1, 2, 1, 2, 1]])


@st.composite
def per_stream_batches(draw, max_streams, max_frames, max_targets):
    """(logps, lists): streams as in ``stream_batches``, each with its own
    list of targets, of any depth down to none; a target may be too long
    for its stream, and two streams may share one list object."""
    logps, _ = draw(stream_batches(max_streams, max_frames, 1))
    target = st.lists(st.integers(1, logps[0].shape[1] - 1), max_size=max_frames + 2)
    lists = [draw(st.lists(target, max_size=max_targets)) for _ in logps]
    if len(lists) > 1 and draw(st.booleans()):
        lists[-1] = lists[0]
    return logps, lists


# lists of depth 3, 0, 1 and 2 (the last shared), with entries that cannot
# align in a one-frame stream
_EDGE_SHARED = [[1], [1, 1, 2]]
EDGE_LISTS = ([random_logp(t, 2, np.random.default_rng(t)) for t in (1, 4, 2, 3, 5)],
              [[[1, 1], [], [2, 1, 2]], [], [[1, 2, 1, 2, 1]], _EDGE_SHARED, _EDGE_SHARED])


class TestStreamBatch:
    """One frame loop over a padded batch of streams equals the per-stream
    lattice bit for bit, whatever the stream lengths."""

    @settings(max_examples=40, deadline=None)
    @given(case=stream_batches(3, 4, 4), semiring=st.sampled_from(sorted(SEMIRINGS)))
    @example(case=EDGE_STREAMS, semiring="log")
    @example(case=EDGE_STREAMS, semiring="max")
    def test_costs_match_per_stream_lattice_and_enumeration(self, case, semiring):
        logps, targets = case
        plus, oracle = SEMIRINGS[semiring]
        costs = _ctc_costs(logps, [targets] * len(logps), plus)
        assert costs.shape == (len(logps), len(targets))
        for logp, row in zip(logps, costs):
            assert row.tobytes() == ctc_lattice(logp, targets, plus)[1].tobytes()
            for target, cost in zip(targets, row):
                expected = oracle(logp, target)
                if np.isinf(expected) or semiring == "max":
                    # the best path's sum runs in the lattice's frame order
                    assert cost == expected
                else:
                    assert cost == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(case=stream_batches(12, 40, 20), semiring=st.sampled_from(sorted(SEMIRINGS)))
    @example(case=EDGE_STREAMS, semiring="log")
    @example(case=EDGE_STREAMS, semiring="max")
    def test_costs_equal_per_stream_lattice(self, case, semiring):
        logps, targets = case
        plus, _ = SEMIRINGS[semiring]
        costs = _ctc_costs(logps, [targets] * len(logps), plus)
        for logp, row in zip(logps, costs):
            assert row.tobytes() == ctc_lattice(logp, targets, plus)[1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=per_stream_batches(6, 12, 6), semiring=st.sampled_from(sorted(SEMIRINGS)),
           window=st.sampled_from([1, 2, 3, ctc.LATTICE_WINDOW]))
    @example(case=EDGE_LISTS, semiring="log", window=2)
    @example(case=EDGE_LISTS, semiring="max", window=2)
    def test_per_stream_targets_equal_per_stream_lattice(self, case, semiring, window):
        # small windows put lists of different depths, and streams of
        # different lengths, in different lattice passes
        logps, lists = case
        plus, _ = SEMIRINGS[semiring]
        with mock.patch.object(ctc, "LATTICE_WINDOW", window):
            costs = _ctc_costs(logps, lists, plus)
        assert costs.shape == (len(logps), max(len(ts) for ts in lists))
        for logp, ts, row in zip(logps, lists, costs):
            assert row[: len(ts)].tobytes() == ctc_lattice(logp, ts, plus)[1].tobytes()
            assert np.isinf(row[len(ts) :]).all()

    def test_traced_peak_does_not_grow_with_streams(self):
        # one window's lattice at a time, at decode-lex40 shape
        small, large = (traced_peak(_ctc_costs, *lex40_case(n), np.maximum)
                        for n in (64, 1280))
        assert large <= 1.5 * small

    def test_target_lists_must_match_streams(self):
        logps, targets = EDGE_STREAMS
        with pytest.raises(ValueError, match="4 streams but 1 target lists"):
            _ctc_costs(logps, [targets], np.maximum)

    def test_unfit_streams_cost_inf(self):
        logps, targets = EDGE_STREAMS
        costs = _ctc_costs(logps, [targets] * len(logps), np.maximum)
        # a target needs a frame per token plus one per adjacent repeat
        fits = [[len(y) + sum(a == b for a, b in zip(y, y[1:])) <= len(x) for y in targets]
                for x in logps]
        assert (np.isinf(costs) == ~np.array(fits)).all()
        assert np.isinf(costs).any() and np.isfinite(costs).any()


class TestGreedyDecode:
    def test_blank_dominant_empty(self):
        logp = np.log(np.array([[0.8, 0.1, 0.1]] * 5))
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        assert greedy_decode(logp) == []

    def test_collapse_rule(self):
        # frame argmaxes: a a blank a -> [a, a]
        rows = np.array([
            [0.1, 0.8, 0.1],
            [0.1, 0.8, 0.1],
            [0.8, 0.1, 0.1],
            [0.1, 0.8, 0.1],
        ])
        logp = np.log(rows / rows.sum(axis=1, keepdims=True))
        assert greedy_decode(logp) == [1, 1]

    def test_ties_break_low(self):
        logp = np.log(np.full((1, 3), 1 / 3))
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        assert greedy_decode(logp) == []  # blank wins the tie at index 0


class TestNBestJson:
    def test_round_trip(self):
        nb = NBestList("u1", [NBestEntry(["a", "b"], ["word"], 1.5),
                              NBestEntry([], [], float("inf"))])
        text = nb.to_json()
        assert json.loads(text) == {"utt_id": "u1", "entries": [
            {"tokens": ["a", "b"], "words": ["word"], "cost": 1.5},
            {"tokens": [], "words": [], "cost": float("inf")}]}
        assert NBestList.from_json_dict(json.loads(text)) == nb

    @pytest.mark.parametrize("line, error", [
        ({"utt_id": "u"}, 'exactly a string "utt_id" and a list "entries"'),
        ({"utt_id": 7, "entries": []}, 'exactly a string "utt_id"'),
        ({"utt_id": "u", "entries": {}}, 'a list "entries"'),
        ({"utt_id": "u", "entries": [], "system": "tdnn"}, 'exactly a string "utt_id"'),
        ({"utt_id": "u", "entries": [["a"]]}, "got ['a']"),
        ({"utt_id": "u", "entries": [{"tokens": [], "words": [], "costs": {"tdnn": 1.0},
                                      "combined": 1.0}]},
         "got ['combined', 'costs', 'tokens', 'words']"),
        ({"utt_id": "u", "entries": [{"tokens": [], "words": ["w"], "cost": 1.0, "x": 0}]},
         "got ['cost', 'tokens', 'words', 'x']"),
        ({"utt_id": "u", "entries": [{"tokens": "ab", "words": ["w"], "cost": 1.0}]},
         '"tokens" and "words" are lists of strings'),
        ({"utt_id": "u", "entries": [{"tokens": [], "words": [3], "cost": 1.0}]},
         '"tokens" and "words" are lists of strings'),
        ({"utt_id": "u", "entries": [{"tokens": [], "words": [], "cost": None}]},
         '"cost" is a number, got None'),
        ({"utt_id": "u", "entries": [{"tokens": [], "words": [], "cost": True}]},
         '"cost" is a number, got True'),
        ({"utt_id": "u", "entries": [{"tokens": [], "words": [], "cost": float("nan")}]},
         '"cost" is a number, got nan'),
    ])
    def test_malformed_rejected(self, line, error):
        with pytest.raises(NBestFormatError, match=re.escape(error)):
            NBestList.from_json_dict(line)
