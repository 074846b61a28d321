"""Frame-level system combination and isolated-word lexicon decoding.

Posterior interpolation happens in the probability domain (convex
combination of per-frame distributions). Decoding scores every lexicon
word on the shared CTC lattice of ``ctc`` under the max semiring (its
other semiring, log-sum-exp, scores rescoring passes) and ranks the
words by cost: ``isolated_nbest_batch`` scores every word on every
stream of a test set, one lattice window of streams per frame loop
(``ctc.LATTICE_WINDOW``), ``isolated_nbest`` is its one-stream case and
``decode_stream`` that case's best word. An N-best entry carries one
cost, its word's alignment cost on the stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ctc import (
    NBestEntry,
    NBestList,
    PosteriorStream,
    TokenVocab,
    _ctc_costs,
    _is_str_list,
)


class DecodeError(ValueError):
    pass


class LexiconFormatError(ValueError):
    """Malformed lexicon file or JSON dictionary."""


@dataclass
class LexiconEntry:
    word: str
    tokens: tuple


_LEXICON_KEYS = ("alphabet", "words")


@dataclass
class Lexicon:
    """The words of an isolated-word task: each utterance is one of them."""

    entries: list
    alphabet: tuple | None = None  # full ordered token set; defaults to the union of entries

    def __post_init__(self):
        seen = set()
        used = []
        for e in self.entries:
            if not e.tokens:
                raise ValueError(f"word {e.word!r} has an empty token sequence")
            if e.word in seen:
                raise ValueError(f"duplicate word {e.word!r}")
            seen.add(e.word)
            used.extend(e.tokens)
        if self.alphabet is None:
            self.alphabet = tuple(sorted(set(used)))
        else:
            self.alphabet = tuple(self.alphabet)
            missing = set(used) - set(self.alphabet)
            if missing:
                raise ValueError(f"lexicon uses tokens outside the alphabet: {sorted(missing)}")

    def vocab(self) -> TokenVocab:
        return TokenVocab(self.alphabet)

    def tokens_of_words(self, words):
        by_word = {e.word: e.tokens for e in self.entries}
        out = []
        for w in words:
            if w not in by_word:
                raise KeyError(f"word {w!r} not in lexicon")
            out.extend(by_word[w])
        return out

    def to_json_dict(self):
        return {
            "alphabet": list(self.alphabet),
            "words": [{"word": e.word, "tokens": list(e.tokens)} for e in self.entries],
        }

    @classmethod
    def from_json_dict(cls, d):
        """Build a lexicon from its JSON form ``{"alphabet": [...], "words":
        [...]}``. Every malformed input raises :class:`LexiconFormatError`:
        a key other than these two, a missing or empty word list, a word
        that is not a string, tokens that are not a non-empty list of
        strings, and an alphabet that is not a list of distinct strings or
        misses a used token."""
        if not isinstance(d, dict) or not isinstance(d.get("words"), list) or not d["words"]:
            raise LexiconFormatError('a lexicon is an object with a non-empty "words" list')
        unknown = [key for key in d if key not in _LEXICON_KEYS]
        if unknown:
            raise LexiconFormatError(f"lexicon keys that nothing reads: {unknown}; "
                                     f"a lexicon holds only {list(_LEXICON_KEYS)}")
        entries = []
        for w in d["words"]:
            if not (isinstance(w, dict) and isinstance(w.get("word"), str)
                    and _is_str_list(w.get("tokens"))):
                raise LexiconFormatError(
                    f'word entry {w!r} needs a string "word" and a list of string "tokens"')
            entries.append(LexiconEntry(w["word"], tuple(w["tokens"])))
        alphabet = d.get("alphabet")
        if "alphabet" in d and not (_is_str_list(alphabet)
                                    and len(set(alphabet)) == len(alphabet)):
            raise LexiconFormatError("the alphabet must be a list of distinct strings")
        try:
            return cls(entries=entries, alphabet=None if alphabet is None else tuple(alphabet))
        except ValueError as exc:  # empty tokens, repeated word, unknown token
            raise LexiconFormatError(str(exc)) from exc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise LexiconFormatError(f"{path}: {exc}") from exc
        return cls.from_json_dict(d)


def parse_weight_ratio(text, n, what):
    """The weights of the ratio syntax "a:b" or "a:b:c" as a float array of
    ``n`` entries, checked by ``check_weights``. Both a ratio that does not
    parse and one that fails the check raise ValueError naming ``what``."""
    parts = [p.strip() for p in str(text).split(":")]
    try:
        weights = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{what}: cannot parse weight ratio {text!r}") from None
    return check_weights(weights, n, what)


def check_weights(weights, n, what="combination weights"):
    """``weights`` as a float array of ``n`` entries. Raises ValueError,
    naming ``what``, unless every weight is finite and nonnegative and one
    is positive."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(f"{what}: need {n} weights, got shape {weights.shape}")
    if not np.isfinite(weights).all():
        raise ValueError(f"{what} must be finite, got {weights.tolist()}")
    if (weights < 0).any():
        raise ValueError(f"{what} must be nonnegative, got {weights.tolist()}")
    if weights.sum() <= 0:
        raise ValueError(f"{what}: at least one weight must be positive")
    return weights


def interpolate_posteriors(streams, weights) -> PosteriorStream:
    """Frame-level linear interpolation of per-frame posteriors.

    Weights are normalized to sum to one, so any positive rescaling leaves
    the result unchanged; a single nonzero weight returns that stream's
    log posteriors bit-exactly.
    """
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one stream")
    weights = check_weights(weights, len(streams))
    shape = streams[0].logp.shape
    for s in streams[1:]:
        if s.logp.shape != shape:
            raise ValueError(f"stream shape mismatch: {s.logp.shape} vs {shape}")
    nonzero = np.flatnonzero(weights)
    if nonzero.size == 1:
        return PosteriorStream(streams[int(nonzero[0])].logp.copy())
    w = weights / weights.sum()
    mix = np.zeros(shape)
    for wk, s in zip(w, streams):
        if wk > 0:
            mix += wk * np.exp(s.logp)
    with np.errstate(divide="ignore"):
        return PosteriorStream(np.log(mix))


def viterbi_align_cost(logp, token_ids):
    """Cost (negative max log probability) of the best monotone alignment
    of one blank-interleaved token sequence; +inf when it has none. The
    single-target form of ``isolated_nbest``'s scoring; perfbench's traced
    run reports it by name."""
    return float(_ctc_costs([logp], [[token_ids]], np.maximum)[0, 0])


def isolated_nbest(stream: PosteriorStream, lexicon: Lexicon, vocab: TokenVocab,
                   n, utt_id="") -> NBestList:
    """Rank lexicon words by isolated alignment cost on one stream; the
    one-stream case of ``isolated_nbest_batch``."""
    return isolated_nbest_batch([stream], lexicon, vocab, n, [utt_id])[0]


def isolated_nbest_batch(streams, lexicon: Lexicon, vocab: TokenVocab, n, utt_ids) -> list:
    """One N-best list per stream, every lexicon word on every stream
    scored in max-semiring lattice passes over padded windows of streams
    (``ctc._ctc_costs``); the streams may differ in length. Words are
    ranked by isolated alignment cost, ties going to the lowest lexicon
    index; each entry's cost is its alignment cost. Infeasible words get
    +inf cost and sort last (kept so rescoring sees a fixed-size list).
    A stream not of ``vocab.width`` raises DecodeError naming it."""
    if len(utt_ids) != len(streams):
        raise ValueError(f"{len(streams)} streams but {len(utt_ids)} utterance ids")
    for utt_id, stream in zip(utt_ids, streams):
        if stream.width != vocab.width:
            raise DecodeError(f"utterance {utt_id!r}: stream of width {stream.width}, "
                              f"the lexicon's vocabulary has width {vocab.width}")
    words = [np.array(vocab.ids_of(e.tokens), dtype=np.int64) for e in lexicon.entries]
    costs = _ctc_costs([s.logp for s in streams], [words] * len(streams), np.maximum)
    return [NBestList(utt_id, [NBestEntry(list(lexicon.entries[i].tokens),
                                          [lexicon.entries[i].word], float(row[i]))
                               for i in np.argsort(row, kind="stable")[:n]])
            for utt_id, row in zip(utt_ids, costs)]


@dataclass
class Hypothesis:
    utt_id: str
    words: list
    tokens: list
    cost: float


def best_hypothesis(nbest: NBestList) -> Hypothesis:
    """The head of an isolated-word N-best list as a hypothesis. Raises
    DecodeError when the list is empty or its head has no alignment."""
    if not nbest.entries or not np.isfinite(nbest.entries[0].cost):
        raise DecodeError(f"{nbest.utt_id or 'stream'}: no lexicon word alignable")
    head = nbest.entries[0]
    return Hypothesis(nbest.utt_id, list(head.words), list(head.tokens), head.cost)


def decode_stream(stream, lexicon, vocab, utt_id="") -> Hypothesis:
    """The best lexicon word of one stream; perfbench's traced run reports
    it by name."""
    return best_hypothesis(isolated_nbest(stream, lexicon, vocab, n=1, utt_id=utt_id))
