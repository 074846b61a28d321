import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslasr import ctc
from sslasr.ctc import PosteriorStream, TokenVocab
from sslasr.decoder import (
    DecodeError,
    Hypothesis,
    Lexicon,
    LexiconEntry,
    LexiconFormatError,
    decode_stream,
    interpolate_posteriors,
    isolated_nbest,
    isolated_nbest_batch,
    parse_weight_ratio,
)

from oracles import best_alignment_cost_by_enumeration

VOCAB = TokenVocab(("a", "b", "c"))


def rand_stream(t, v, rng):
    logits = rng.normal(size=(t, v + 1))
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return PosteriorStream(logp)


def stream_from_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    logp = np.log(rows / rows.sum(axis=1, keepdims=True))
    return PosteriorStream(logp)


class TestInterpolate:
    def test_degenerate_weight_bit_exact(self):
        rng = np.random.default_rng(0)
        s1, s2 = rand_stream(5, 2, rng), rand_stream(5, 2, rng)
        mixed = interpolate_posteriors([s1, s2], [1.0, 0.0])
        assert np.array_equal(mixed.logp, s1.logp)
        mixed = interpolate_posteriors([s1, s2], [0.0, 2.5])
        assert np.array_equal(mixed.logp, s2.logp)

    def test_identical_streams_any_weights(self):
        rng = np.random.default_rng(1)
        s = rand_stream(4, 2, rng)
        mixed = interpolate_posteriors([s, s], [0.3, 0.7])
        assert np.allclose(mixed.logp, s.logp, atol=1e-12)

    def test_three_two_ratio_rows(self):
        s1 = stream_from_rows([[0.8, 0.2]])
        s2 = stream_from_rows([[0.2, 0.8]])
        mixed = interpolate_posteriors([s1, s2], parse_weight_ratio("3:2", 2, "w"))
        assert np.allclose(np.exp(mixed.logp), [[0.56, 0.44]], atol=1e-12)

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(2)
        streams = [rand_stream(6, 3, rng) for _ in range(3)]
        mixed = interpolate_posteriors(streams, [9, 1, 5])
        assert np.allclose(np.exp(mixed.logp).sum(axis=1), 1.0, atol=1e-6)

    def test_shape_and_weight_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="shape mismatch"):
            interpolate_posteriors([rand_stream(4, 2, rng), rand_stream(5, 2, rng)], [1, 1])
        s1 = rand_stream(4, 2, rng)
        with pytest.raises(ValueError, match="positive"):
            interpolate_posteriors([s1, s1], [0.0, 0.0])
        with pytest.raises(ValueError, match="nonnegative"):
            interpolate_posteriors([s1, s1], [1.0, -0.1])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weight_rejected_by_name(self, bad):
        s = rand_stream(4, 2, np.random.default_rng(3))
        with pytest.raises(ValueError, match=r"combination weights must be finite, got \["):
            interpolate_posteriors([s, s], [bad, 1.0])

    def test_ratio_parsing(self):
        assert np.array_equal(parse_weight_ratio("9:1:5", 3, "w"), [9.0, 1.0, 5.0])
        with pytest.raises(ValueError, match="^w: cannot parse weight ratio '3:x'$"):
            parse_weight_ratio("3:x", 2, "w")
        with pytest.raises(ValueError, match="^w: need 2 weights"):
            parse_weight_ratio("9:1:5", 2, "w")


ISO = Lexicon([
    LexiconEntry("one", ("a", "b")),
    LexiconEntry("two", ("b",)),
    LexiconEntry("three", ("a", "a")),
])


def isolated_word(stream, lexicon):
    """The one-word hypothesis of isolated-word decoding: (word, cost)."""
    hyp = decode_stream(stream, lexicon, VOCAB)
    return hyp.words[0], hyp.cost


def joint_hypothesis(streams, weights, lexicon, utt_id=""):
    """Frame-level joint decoding: interpolate, then decode once."""
    return decode_stream(interpolate_posteriors(streams, weights), lexicon, VOCAB, utt_id)


class TestViterbiIsolated:
    def test_single_word_lexicon(self):
        rng = np.random.default_rng(4)
        lex = Lexicon([LexiconEntry("only", ("a",))])
        word, cost = isolated_word(rand_stream(3, 3, rng), lex)
        assert word == "only"
        assert np.isfinite(cost)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            stream = rand_stream(int(rng.integers(2, 6)), 3, rng)
            word, cost = isolated_word(stream, ISO)
            oracle = []
            for e in ISO.entries:
                oracle.append(
                    (best_alignment_cost_by_enumeration(stream.logp, VOCAB.ids_of(e.tokens)),
                     e.word)
                )
            best_cost = min(c for c, _ in oracle)
            best_word = next(w for c, w in oracle if c <= best_cost + 1e-12)
            assert cost == pytest.approx(best_cost, abs=1e-9)
            assert word == best_word

    def test_tie_prefers_first_entry(self):
        rng = np.random.default_rng(6)
        lex = Lexicon([LexiconEntry("first", ("a", "b")), LexiconEntry("second", ("a", "b"))])
        word, _ = isolated_word(rand_stream(4, 3, rng), lex)
        assert word == "first"

    def test_unalignable_raises(self):
        rng = np.random.default_rng(7)
        lex = Lexicon([LexiconEntry("long", ("a", "b", "c", "a", "b"))])
        with pytest.raises(DecodeError, match="alignable"):
            isolated_word(rand_stream(2, 3, rng), lex)


class TestIsolatedNbest:
    def test_ranks_all_words(self):
        rng = np.random.default_rng(9)
        stream = rand_stream(5, 3, rng)
        nb = isolated_nbest(stream, ISO, VOCAB, n=3, utt_id="u")
        assert len(nb.entries) == 3
        costs = [e.cost for e in nb.entries]
        assert costs == sorted(costs)
        best_word, best_cost = isolated_word(stream, ISO)
        assert nb.entries[0].words == [best_word]
        assert nb.entries[0].cost == pytest.approx(best_cost)

    def test_infeasible_words_kept_with_inf(self):
        rng = np.random.default_rng(10)
        lex = Lexicon([LexiconEntry("fits", ("a",)), LexiconEntry("huge", ("a", "b", "c", "a"))])
        nb = isolated_nbest(rand_stream(2, 3, rng), lex, VOCAB, n=2)
        assert nb.entries[-1].cost == np.inf
        assert nb.entries[-1].words == ["huge"]


class TestIsolatedNbestBatch:
    def test_equals_per_stream_lists(self, monkeypatch):
        # two streams per lattice window: the batch spans three windows
        monkeypatch.setattr(ctc, "LATTICE_WINDOW", 2)
        rng = np.random.default_rng(12)
        # a one-frame stream fits only "two"; "three" needs three frames
        streams = [rand_stream(t, 3, rng) for t in (1, 6, 2, 4, 3)]
        ids = [f"u{i}" for i in range(len(streams))]
        batch = isolated_nbest_batch(streams, ISO, VOCAB, 3, ids)
        for stream, utt_id, nb in zip(streams, ids, batch):
            single = isolated_nbest(stream, ISO, VOCAB, 3, utt_id=utt_id)
            assert nb == single
        assert batch[0].entries[-1].cost == np.inf

    def test_empty_batch_and_id_mismatch(self):
        assert isolated_nbest_batch([], ISO, VOCAB, 3, []) == []
        with pytest.raises(ValueError, match="utterance ids"):
            isolated_nbest_batch([rand_stream(3, 3, np.random.default_rng(0))], ISO, VOCAB,
                                 1, [])


SIX = Lexicon([LexiconEntry(f"w{i}", (t,)) for i, t in enumerate("abcdef")])


class TestStreamWidth:
    """A stream is decoded only at its lexicon's vocabulary width (6 tokens
    and blank here): narrower, mixed and wider streams fail by name."""

    @pytest.mark.parametrize("widths, utt, width", [
        ((4, 4), "u0", 4),
        ((7, 8), "u1", 8),
        ((9,), "u0", 9),
    ], ids=["narrow", "mixed", "wide"])
    def test_other_width_named(self, widths, utt, width):
        rng = np.random.default_rng(5)
        streams = [rand_stream(4, w - 1, rng) for w in widths]
        ids = [f"u{i}" for i in range(len(streams))]
        with pytest.raises(DecodeError, match=f"^utterance '{utt}': stream of width {width}, "
                                              "the lexicon's vocabulary has width 7$"):
            isolated_nbest_batch(streams, SIX, SIX.vocab(), 2, ids)


GOOD_LEXICON = {"alphabet": ["a", "b"],
                "words": [{"word": "one", "tokens": ["a", "b"]},
                          {"word": "two", "tokens": ["b"]}]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _parses_or_names_its_error(d):
    try:
        lexicon = Lexicon.from_json_dict(d)
    except LexiconFormatError:
        return
    # anything accepted is a usable, round-trippable lexicon
    assert lexicon.entries
    assert len(lexicon.vocab().tokens) == len(lexicon.alphabet)
    again = Lexicon.from_json_dict(json.loads(json.dumps(lexicon.to_json_dict())))
    assert again == lexicon


class TestLexiconFormat:
    @pytest.mark.parametrize("d", [
        {}, {"words": 3}, {"words": []}, [], "words", None,
        {"words": [{"word": "a", "tokens": [["x"]]}]},
        {"words": [{"word": "a", "tokens": [{"x": 1}]}]},
        {"words": [{"word": 3, "tokens": ["x"]}]},
        {"words": [{"word": "a", "tokens": [1]}]},
        {"words": [{"word": "a", "tokens": "ab"}]},
        {"words": [{"word": "a", "tokens": []}]},
        {"words": [{"word": "a"}]},
        {"words": ["a"]},
        {"words": [{"word": "a", "tokens": ["x"]}, {"word": "a", "tokens": ["y"]}]},
        {"words": [{"word": "a", "tokens": ["x"]}], "mode": "chain"},
        {"words": [{"word": "a", "tokens": ["x"]}], "mode": ["isolated"]},
        {"words": [{"word": "a", "tokens": ["x"]}], "word_insertion_penalty": math.nan},
        {"words": [{"word": "a", "tokens": ["x"]}], "word_insertion_penalty": -math.inf},
        {"words": [{"word": "a", "tokens": ["x"]}], "word_insertion_penalty": 10**400},
        {"words": [{"word": "a", "tokens": ["x"]}], "word_insertion_penalty": "1"},
        {"words": [{"word": "a", "tokens": ["x"]}], "word_insertion_penalty": True},
        {"words": [{"word": "a", "tokens": ["x"]}], "alphabet": ["y"]},
        {"words": [{"word": "a", "tokens": ["x"]}], "alphabet": ["x", "x"]},
        {"words": [{"word": "a", "tokens": ["x"]}], "alphabet": None},
        {"words": [{"word": "a", "tokens": ["x"]}], "mode": "isolated"},
        {"words": [{"word": "a", "tokens": ["x"]}], "mode": "word-loop"},
    ])
    def test_malformed_raises_named_error(self, d):
        with pytest.raises(LexiconFormatError):
            Lexicon.from_json_dict(d)

    @pytest.mark.parametrize("key", ["mode", "word_insertion_penalty", "extra"])
    def test_unread_key_named(self, key):
        d = dict(GOOD_LEXICON, **{key: 0})
        with pytest.raises(LexiconFormatError, match=f"nothing reads: \\['{key}'\\]"):
            Lexicon.from_json_dict(d)

    def test_round_trip(self):
        lexicon = Lexicon.from_json_dict(GOOD_LEXICON)
        assert lexicon.to_json_dict() == GOOD_LEXICON

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "lexicon.json"
        for blob in (b"{", b"\xff\xfe", b""):
            path.write_bytes(blob)
            with pytest.raises(LexiconFormatError):
                Lexicon.load(path)

    @settings(max_examples=200, deadline=None)
    @given(d=json_values)
    def test_fuzz_any_json_value(self, d):
        _parses_or_names_its_error(d)

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(["mode", "word_insertion_penalty", "alphabet", "words",
                                "word", "tokens"]),
           value=json_values, index=st.integers(0, 1))
    @example(key="tokens", value=[[]], index=0)
    def test_fuzz_one_field_of_a_good_lexicon(self, key, value, index):
        d = json.loads(json.dumps(GOOD_LEXICON))
        if key in ("word", "tokens"):
            d["words"][index][key] = value
        else:
            d[key] = value
        _parses_or_names_its_error(d)


class TestJointDecode:
    def test_degenerate_weights_reproduce_single_system(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            s1, s2 = rand_stream(5, 3, rng), rand_stream(5, 3, rng)
            solo = decode_stream(s1, ISO, VOCAB, "u")
            joint = joint_hypothesis([s1, s2], [1.0, 0.0], ISO, "u")
            assert joint.words == solo.words
            assert joint.cost == solo.cost  # bit-exact

    def test_three_system_smoke(self):
        rng = np.random.default_rng(15)
        streams = [rand_stream(6, 3, rng) for _ in range(3)]
        hyp = joint_hypothesis(streams, parse_weight_ratio("9:1:5", 3, "w"), ISO, "u")
        assert isinstance(hyp, Hypothesis)
        assert np.isfinite(hyp.cost)
        assert hyp.words

    def test_weight_scaling_leaves_hypotheses_unchanged(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            streams = [rand_stream(5, 3, rng), rand_stream(5, 3, rng)]
            base = joint_hypothesis(streams, np.array([3.0, 2.0]), ISO, "u")
            for c in (2.0, 0.5, 3.0, 256.0):
                scaled = joint_hypothesis(streams, np.array([3.0 * c, 2.0 * c]), ISO, "u")
                assert scaled.words == base.words

    def test_disjoint_error_complementarity(self):
        """Two systems with planted, disjoint errors: each alone scores 25%
        WER on 8 utterances, the interpolated system scores 0%."""
        lex = Lexicon([LexiconEntry("one", ("a",)), LexiconEntry("two", ("b",)),
                       LexiconEntry("three", ("c",))])
        truth = ["one", "two", "three", "one", "two", "three", "one", "two"]
        tok = {"one": 1, "two": 2, "three": 3}

        def planted(correct, wrong=None, confident=0.9):
            rows = np.full((4, 4), 0.02)
            target = tok[correct] if wrong is None else tok[wrong]
            rows[:, target] = confident if wrong is None else 0.55
            if wrong is not None:
                rows[:, tok[correct]] = 0.40
            return stream_from_rows(rows)

        hyp_a = hyp_b = hyp_joint = 0
        for i, word in enumerate(truth):
            wrong_word = {"one": "two", "two": "three", "three": "one"}[word]
            a = planted(word, wrong=wrong_word) if i in (0, 1) else planted(word)
            b = planted(word, wrong=wrong_word) if i in (2, 3) else planted(word)
            da, _ = isolated_word(a, lex)
            db, _ = isolated_word(b, lex)
            dj = joint_hypothesis([a, b], [1.0, 1.0], lex).words[0]
            hyp_a += da != word
            hyp_b += db != word
            hyp_joint += dj != word
        assert hyp_a == 2 and hyp_b == 2  # 25% each
        assert hyp_joint == 0
