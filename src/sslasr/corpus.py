"""Synthetic isolated-word corpus with seen/unseen splits and a
source/target condition shift, plus Levenshtein WER scoring and
partitioned reporting.

Each word is a fixed sequence of pure tones drawn from a small tone
alphabet, so the token-level lexicon is meaningful and unseen words are
new tone sequences over seen tones. Each utterance is one word of the
lexicon, which is written as ``lexicon.json`` (``decoder.Lexicon``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .decoder import Lexicon, LexiconEntry
from .features import FBANK_WIN, SAMPLE_RATE, AudioBuffer, write_wav

# the recording conditions; the repetition tables are keyed by them
CONDITIONS = ("source", "target")
# the manifest's subsets, and the fields of its records, in file order
SUBSETS = ("train", "test-seen", "test-unseen")
_RECORD_FIELDS = ("id", "audio_path", "transcript", "speaker", "subset", "condition")

# the fewest samples a tone's envelope ramps in and out over
_RAMP_SAMPLES = 8

# the tone alphabet spans TONE_LOW_HZ..TONE_HIGH_HZ in equal ratios; each
# speaker's tones are shifted by a factor SPEAKER_SPREAD apart
TONE_LOW_HZ = 400.0
TONE_HIGH_HZ = 3400.0
SPEAKER_SPREAD = 0.02


def _samples(ms):
    return int(round(ms * SAMPLE_RATE / 1000.0))


def json_lines(path, fh, parse):
    """Yield ``parse(value)`` for the JSON value of each non-blank line of
    the open file ``fh``. A line that is not JSON, or whose value
    ``parse`` rejects with ValueError, raises ValueError naming
    ``path:line``."""
    for number, line in enumerate(fh, 1):
        if line.strip():
            try:
                item = parse(json.loads(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            yield item


@dataclass
class CorpusConfig:
    """The checked ``corpus`` section of a loaded config, built by
    ``config.corpus_config``. The tone range and the speaker spread are
    fixed (``TONE_LOW_HZ``, ``TONE_HIGH_HZ``, ``SPEAKER_SPREAD``).

    Every utterance must cover one 25 ms filterbank window
    (``features.FBANK_WIN``, also the encoder's receptive field), so the
    shortest utterance of each generated condition is checked here."""

    n_words: int
    unseen_fraction: float
    n_tones: int
    tones_per_word: int
    n_speakers: int
    train_reps: dict
    test_reps: dict
    tone_ms: float
    edge_ms: float
    amplitude: float
    noise_rms: float
    # target-condition shift: spectral tilt + tempo change + extra noise
    target_tilt: float
    target_tempo: float
    target_noise_rms: float

    def __post_init__(self):
        if self.n_words < 4:
            raise ValueError("n_words: need at least 4 words")
        if not 0.0 < self.unseen_fraction < 1.0:
            raise ValueError("unseen_fraction: must lie strictly between 0 and 1")
        if self.tones_per_word < 1 or self.n_tones < 2:
            raise ValueError("n_tones: need n_tones >= 2 and tones_per_word >= 1")
        for name, reps in (("train_reps", self.train_reps), ("test_reps", self.test_reps)):
            if sum(reps.values()) < 1:
                raise ValueError(f"{name}: need at least one repetition, got {reps}")
        shortest = 1000.0 * _RAMP_SAMPLES / SAMPLE_RATE
        if not self.tone_ms >= shortest:
            raise ValueError(f"tone_ms: must be at least {shortest} (a tone's "
                             f"{_RAMP_SAMPLES}-sample ramps), got {self.tone_ms}")
        if not self.edge_ms >= 0.0:
            raise ValueError(f"edge_ms: must be >= 0.0, got {self.edge_ms}")
        if not self.target_tempo > 0.0:
            raise ValueError(f"target_tempo: must be > 0.0, got {self.target_tempo}")
        utterances = (f"tone_ms: {self.tones_per_word} tones of {self.tone_ms} ms between edges "
                      f"of {self.edge_ms} ms (target_tempo {self.target_tempo}) make utterances")
        try:
            n = min(self.utterance_samples(c) for reps in (self.train_reps, self.test_reps)
                    for c, count in reps.items() if count)
        except OverflowError:  # an infinite duration
            raise ValueError(f"{utterances} of unbounded length") from None
        if n < FBANK_WIN:
            raise ValueError(f"{utterances} of {n} samples, shorter than one {FBANK_WIN}-sample "
                             "(25 ms) filterbank window")

    def utterance_samples(self, condition):
        """The samples of each utterance in ``condition``."""
        n = self.tones_per_word * _samples(self.tone_ms) + 2 * _samples(self.edge_ms)
        return int(round(n / self.target_tempo)) if condition == "target" else n

    @property
    def tone_symbols(self):
        return tuple(f"t{i + 1:02d}" for i in range(self.n_tones))

    def tone_frequencies(self):
        ratio = TONE_HIGH_HZ / TONE_LOW_HZ
        return TONE_LOW_HZ * ratio ** (np.arange(self.n_tones) / (self.n_tones - 1))


@dataclass
class ManifestRecord:
    utt_id: str
    audio_path: str
    transcript: str
    speaker: str
    subset: str  # train | test-seen | test-unseen
    condition: str  # source | target

    def to_json_dict(self):
        return dict(zip(_RECORD_FIELDS, vars(self).values()))

    @classmethod
    def from_json_dict(cls, d):
        """The record of one manifest line's object. Raises ValueError
        unless every field is a string, the subset one of SUBSETS and the
        condition one of CONDITIONS."""
        if not isinstance(d, dict):
            raise ValueError(f"a manifest record is a JSON object, got {d!r}")
        for key in _RECORD_FIELDS:
            if key not in d:
                raise ValueError(f"manifest record lacks {key!r}")
            if not isinstance(d[key], str):
                raise ValueError(f"manifest field {key!r} must be a string, got {d[key]!r}")
        if d["subset"] not in SUBSETS:
            raise ValueError(f"subset {d['subset']!r} is not one of {SUBSETS}")
        if d["condition"] not in CONDITIONS:
            raise ValueError(f"condition {d['condition']!r} is not one of {CONDITIONS}")
        return cls(*(d[key] for key in _RECORD_FIELDS))


@dataclass
class Manifest:
    records: list

    def __post_init__(self):
        ids = [r.utt_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest ids must be unique")

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def subset(self, *names):
        return [r for r in self.records if r.subset in names]

    def by_id(self):
        return {r.utt_id: r for r in self.records}

    def save(self, path):
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps(r.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path):
        """Read a manifest file. A line that is not a record
        (``ManifestRecord.from_json_dict``) raises ValueError naming
        ``path:line``."""
        with open(path) as fh:
            return cls(list(json_lines(path, fh, ManifestRecord.from_json_dict)))


def _tone_segment(freq, n_samples, amplitude):
    t = np.arange(n_samples) / SAMPLE_RATE
    seg = amplitude * np.sin(2.0 * math.pi * freq * t)
    ramp = max(_RAMP_SAMPLES, n_samples // 16)
    env = np.ones(n_samples)
    env[:ramp] = np.linspace(0.0, 1.0, ramp)
    env[-ramp:] = np.linspace(1.0, 0.0, ramp)
    return seg * env


def synth_word(word_tones, cfg: CorpusConfig, speaker_factor, condition, rng):
    """Render one utterance waveform for a tone-sequence word."""
    tone_n = _samples(cfg.tone_ms)
    edge_n = _samples(cfg.edge_ms)
    freqs = cfg.tone_frequencies()
    parts = [np.zeros(edge_n)]
    for tone_idx in word_tones:
        parts.append(_tone_segment(freqs[tone_idx] * speaker_factor, tone_n, cfg.amplitude))
    parts.append(np.zeros(edge_n))
    x = np.concatenate(parts)
    if condition == "target":
        # tempo change by resampling, then a first-order spectral tilt
        n_out = cfg.utterance_samples(condition)
        x = np.interp(np.arange(n_out) * cfg.target_tempo, np.arange(x.size), x)
        tilted = x.copy()
        tilted[1:] = x[1:] - cfg.target_tilt * x[:-1]
        x = tilted
        x = x + cfg.target_noise_rms * rng.normal(size=x.size)
    else:
        x = x + cfg.noise_rms * rng.normal(size=x.size)
    return AudioBuffer(np.clip(x, -1.0, 1.0))


def _sample_words(cfg, rng, n_unseen):
    """Tone sequences for the lexicon: the seen words are distinct random
    sequences; unseen words are one-tone perturbations of seen words
    (neighboring tone), so they are confusable with trained words."""
    taken = set()
    seen_words = []
    while len(seen_words) < cfg.n_words - n_unseen:
        seq = tuple(rng.choice(cfg.n_tones, size=cfg.tones_per_word, replace=False))
        if seq not in taken:
            taken.add(seq)
            seen_words.append(seq)
    unseen_words = []
    while len(unseen_words) < n_unseen:
        base = list(seen_words[rng.integers(len(seen_words))])
        pos = int(rng.integers(len(base)))
        step = 1 if base[pos] == 0 else (-1 if base[pos] == cfg.n_tones - 1
                                         else int(rng.choice([-1, 1])))
        base[pos] += step
        seq = tuple(base)
        if seq not in taken and len(set(seq)) == len(seq):
            taken.add(seq)
            unseen_words.append(seq)
    return seen_words + unseen_words


def gen_synth_corpus(out_dir, cfg: CorpusConfig, seed) -> tuple[Manifest, Lexicon]:
    """Generate WAVs, a JSON-lines manifest, and the lexicon.

    The unseen words (round(n_words * unseen_fraction) of them, at least
    one and not all) occur only in the test-unseen subset; the target
    condition applies the configured tilt + tempo + noise shift.
    """
    n_unseen = int(round(cfg.n_words * cfg.unseen_fraction))
    if not 1 <= n_unseen <= cfg.n_words - 1:
        raise ValueError(
            f"unseen_fraction {cfg.unseen_fraction} with {cfg.n_words} words "
            f"leaves an infeasible split ({n_unseen} unseen)"
        )
    out_dir = Path(out_dir)
    (out_dir / "wavs").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    word_seqs = _sample_words(cfg, rng, n_unseen)
    word_names = [f"w{i:02d}" for i in range(cfg.n_words)]
    unseen_idx = set(range(cfg.n_words - n_unseen, cfg.n_words))
    symbols = cfg.tone_symbols
    lexicon = Lexicon(
        entries=[
            LexiconEntry(name, tuple(symbols[t] for t in seq))
            for name, seq in zip(word_names, word_seqs)
        ],
        alphabet=symbols,
    )
    speakers = [f"spk{i + 1}" for i in range(cfg.n_speakers)]
    factors = 1.0 + SPEAKER_SPREAD * (
        np.arange(cfg.n_speakers) - (cfg.n_speakers - 1) / 2.0
    )
    records = []
    counter = 0

    def emit(word_i, spk_i, condition, subset, rep):
        nonlocal counter
        utt_id = f"u{counter:04d}_{word_names[word_i]}_{speakers[spk_i]}_{condition}_{rep}"
        counter += 1
        audio = synth_word(word_seqs[word_i], cfg, factors[spk_i], condition, rng)
        rel = f"wavs/{utt_id}.wav"
        write_wav(out_dir / rel, audio)
        records.append(
            ManifestRecord(utt_id, rel, word_names[word_i], speakers[spk_i],
                           subset, condition)
        )

    for word_i in range(cfg.n_words):
        test_subset = "test-unseen" if word_i in unseen_idx else "test-seen"
        for spk_i in range(cfg.n_speakers):
            if word_i not in unseen_idx:
                for condition, reps in cfg.train_reps.items():
                    for rep in range(reps):
                        emit(word_i, spk_i, condition, "train", rep)
            for condition, reps in cfg.test_reps.items():
                for rep in range(reps):
                    emit(word_i, spk_i, condition, test_subset, rep)

    manifest = Manifest(records)
    manifest.save(out_dir / "manifest.jsonl")
    lexicon.save(out_dir / "lexicon.json")
    return manifest, lexicon


# ---------------------------------------------------------------------------
# scoring


@dataclass
class WerCounts:
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    n_ref: int = 0

    @property
    def errors(self):
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer_percent(self):
        if self.n_ref == 0:
            return 0.0 if self.errors == 0 else math.inf
        return 100.0 * self.errors / self.n_ref

    def add(self, other):
        self.substitutions += other.substitutions
        self.deletions += other.deletions
        self.insertions += other.insertions
        self.n_ref += other.n_ref

    def to_json_dict(self):
        return {
            "substitutions": self.substitutions,
            "deletions": self.deletions,
            "insertions": self.insertions,
            "n_ref": self.n_ref,
            "wer_percent": self.wer_percent,
            "empty_reference": self.n_ref == 0,
        }


def wer(ref_words, hyp_words) -> WerCounts:
    """Minimal-edit alignment with unit costs. On ties, the backtrace
    prefers match/substitution, then deletion, then insertion."""
    ref = list(ref_words)
    hyp = list(hyp_words)
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = dist[i - 1, j] + 1
            ins = dist[i, j - 1] + 1
            dist[i, j] = min(sub, dele, ins)
    counts = WerCounts(n_ref=n)
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] != hyp[j - 1]:
                counts.substitutions += 1
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            counts.deletions += 1
            i -= 1
        else:
            counts.insertions += 1
            j -= 1
    return counts


@dataclass
class WerReport:
    overall: WerCounts
    by_subset: dict
    by_condition: dict

    def to_json_dict(self):
        return {
            "overall": self.overall.to_json_dict(),
            "by_subset": {k: v.to_json_dict() for k, v in self.by_subset.items()},
            "by_condition": {k: v.to_json_dict() for k, v in self.by_condition.items()},
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)

    def table(self):
        rows = [("overall", self.overall)]
        rows += [(f"subset={k}", v) for k, v in sorted(self.by_subset.items())]
        rows += [(f"condition={k}", v) for k, v in sorted(self.by_condition.items())]
        width = max(len(name) for name, _ in rows)
        lines = [f"{'partition':<{width}}  {'WER%':>8}  {'S':>4} {'D':>4} {'I':>4} {'N':>5}"]
        for name, c in rows:
            pct = f"{c.wer_percent:8.2f}" if math.isfinite(c.wer_percent) else "     inf"
            lines.append(
                f"{name:<{width}}  {pct}  {c.substitutions:>4} {c.deletions:>4} "
                f"{c.insertions:>4} {c.n_ref:>5}"
            )
        return "\n".join(lines)


def partition_report(per_utt, manifest: Manifest) -> WerReport:
    """Aggregate per-utterance (ref_words, hyp_words) pairs into overall,
    per-subset, and per-condition counts. Empty partitions are simply
    absent from the report. Unknown utterance ids are an error."""
    lookup = manifest.by_id()
    overall = WerCounts()
    by_subset: dict = {}
    by_condition: dict = {}
    for utt_id, (ref, hyp) in per_utt.items():
        if utt_id not in lookup:
            raise KeyError(f"utterance {utt_id!r} not present in the manifest")
        rec = lookup[utt_id]
        counts = wer(ref, hyp)
        overall.add(counts)
        by_subset.setdefault(rec.subset, WerCounts()).add(counts)
        by_condition.setdefault(rec.condition, WerCounts()).add(counts)
    return WerReport(overall, by_subset, by_condition)
