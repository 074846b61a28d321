import filecmp
import itertools
import json
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslasr import pipeline
from sslasr.config import load_config
from sslasr.corpus import (
    CorpusConfig,
    Manifest,
    ManifestRecord,
    WerCounts,
    gen_synth_corpus,
    partition_report,
    wer,
)
from sslasr.decoder import Lexicon
from sslasr.features import compute_fbank, read_wav

# the corpus settings of these tests, apart from what each one sets
CORPUS = {"n_words": 10, "unseen_fraction": 0.4, "n_tones": 12, "tones_per_word": 3,
          "n_speakers": 4, "train_reps": {"source": 2, "target": 1},
          "test_reps": {"source": 1, "target": 1}, "tone_ms": 120.0, "edge_ms": 40.0,
          "amplitude": 0.3, "noise_rms": 0.01, "target_tilt": 0.35, "target_tempo": 0.92,
          "target_noise_rms": 0.05}


def corpus_config(**settings):
    return CorpusConfig(**{**CORPUS, **settings})


class TestGeneration:
    def test_unseen_split_sizes(self, tmp_path):
        cfg = corpus_config(n_words=10, unseen_fraction=0.4, n_speakers=1,
                            train_reps={"source": 1}, test_reps={"source": 1})
        manifest, lexicon = gen_synth_corpus(tmp_path, cfg, seed=5)
        train_words = {r.transcript for r in manifest.subset("train")}
        unseen_words = {r.transcript for r in manifest.subset("test-unseen")}
        assert len(unseen_words) == 4
        assert not (train_words & unseen_words)
        assert len(lexicon.entries) == 10

    def test_lexicon_file_round_trips(self, tmp_path):
        cfg = corpus_config(n_words=4, unseen_fraction=0.25, n_speakers=1,
                            train_reps={"source": 1}, test_reps={"source": 1})
        _, lexicon = gen_synth_corpus(tmp_path, cfg, seed=5)
        path = tmp_path / "lexicon.json"
        assert set(json.loads(path.read_text())) == {"alphabet", "words"}
        assert Lexicon.load(path) == lexicon

    def test_determinism_bit_identical(self, tmp_path):
        cfg = corpus_config(n_words=6, unseen_fraction=0.34, n_speakers=2,
                            train_reps={"source": 1}, test_reps={"source": 1})
        a, _ = gen_synth_corpus(tmp_path / "a", cfg, seed=9)
        b, _ = gen_synth_corpus(tmp_path / "b", cfg, seed=9)
        assert [r.utt_id for r in a.records] == [r.utt_id for r in b.records]
        for ra, rb in zip(a.records, b.records):
            assert filecmp.cmp(tmp_path / "a" / ra.audio_path,
                               tmp_path / "b" / rb.audio_path, shallow=False)

    def test_word_centroids_separated(self, tmp_path):
        # frontend oracle: distinct words must have distinct log-mel centroids
        cfg = corpus_config(n_words=6, unseen_fraction=0.34, n_speakers=1,
                            train_reps={"source": 2}, test_reps={"source": 1},
                            noise_rms=0.01)
        manifest, _ = gen_synth_corpus(tmp_path, cfg, seed=3)
        centroids = {}
        for record in manifest.records:
            if record.condition != "source":
                continue
            feats = compute_fbank(read_wav(tmp_path / record.audio_path))
            centroids.setdefault(record.transcript, []).append(feats.data.mean(axis=0))
        means = {w: np.mean(v, axis=0) for w, v in centroids.items()}
        gap = min(
            np.linalg.norm(means[a] - means[b])
            for a, b in itertools.combinations(sorted(means), 2)
        )
        assert gap >= 0.5  # generator tone spacing keeps words apart

    def test_infeasible_split_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="infeasible"):
            gen_synth_corpus(tmp_path, corpus_config(n_words=10, unseen_fraction=0.01),
                             seed=0)

    def test_no_free_unseen_neighbour_named(self, tmp_path):
        """Seed 4 draws the seen words (4,) and (5,): only tone 3 is a free
        neighbour, for two unseen words. Generation names the settings
        instead of drawing forever; the alarm turns a hang into a failure."""
        cfg = load_config(overrides={"seed": 4, "corpus": {
            "n_words": 4, "unseen_fraction": 0.5, "n_tones": 6, "tones_per_word": 1,
            "n_speakers": 1, "train_reps": {"source": 1, "target": 0},
            "test_reps": {"source": 1, "target": 0}}})

        def hang(signum, frame):
            raise TimeoutError("corpus generation still drawing after 5 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match=r"no free one-tone neighbour of the 2 seen "
                                                 r"words is left for unseen word 2 of 2: lower "
                                                 r"corpus.unseen_fraction or raise "
                                                 r"corpus.n_tones"):
                pipeline.generate_corpus(tmp_path, cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_small_word_count_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            corpus_config(n_words=3)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="strictly between"):
            corpus_config(unseen_fraction=1.0)

    def test_target_condition_changes_audio(self, tmp_path):
        cfg = corpus_config(n_words=4, unseen_fraction=0.25, n_speakers=1,
                            train_reps={"source": 1, "target": 1},
                            test_reps={"source": 1})
        manifest, _ = gen_synth_corpus(tmp_path, cfg, seed=7)
        by_cond = {}
        for record in manifest.subset("train"):
            by_cond.setdefault((record.transcript, record.condition), record)
        for word in {r.transcript for r in manifest.subset("train")}:
            src = read_wav(tmp_path / by_cond[(word, "source")].audio_path)
            tgt = read_wav(tmp_path / by_cond[(word, "target")].audio_path)
            assert len(tgt) != len(src)  # tempo shift changes duration


class TestWer:
    def test_identical_is_zero(self):
        counts = wer("a b c".split(), "a b c".split())
        assert counts.errors == 0
        assert counts.wer_percent == 0.0

    def test_single_deletion(self):
        counts = wer("a b c".split(), "a c".split())
        assert (counts.substitutions, counts.deletions, counts.insertions) == (0, 1, 0)
        assert counts.wer_percent == pytest.approx(100 / 3)

    def test_empty_hypothesis_all_deletions(self):
        counts = wer("a b c".split(), [])
        assert counts.deletions == 3
        assert counts.wer_percent == pytest.approx(100.0)

    def test_empty_reference_flagged(self):
        counts = wer([], ["x", "y"])
        assert counts.insertions == 2
        assert counts.n_ref == 0
        assert math.isinf(counts.wer_percent)
        assert counts.to_json_dict()["empty_reference"] is True

    def test_substitution_counted(self):
        counts = wer(["a", "b"], ["a", "c"])
        assert counts.substitutions == 1 and counts.errors == 1

    @given(st.lists(st.sampled_from("abcd"), max_size=6),
           st.lists(st.sampled_from("abcd"), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_minimal_edit_total(self, ref, hyp):
        # oracle: classic single-number Levenshtein distance
        n, m = len(ref), len(hyp)
        dist = np.zeros((n + 1, m + 1), dtype=int)
        dist[:, 0] = np.arange(n + 1)
        dist[0, :] = np.arange(m + 1)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                dist[i, j] = min(
                    dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]),
                    dist[i - 1, j] + 1,
                    dist[i, j - 1] + 1,
                )
        counts = wer(ref, hyp)
        assert counts.errors == dist[n, m]
        assert counts.n_ref == n

    def test_order_of_utterances_irrelevant(self):
        pairs = [("a b", "a"), ("c", "c d"), ("e f", "f e")]
        total1 = WerCounts()
        for r, h in pairs:
            total1.add(wer(r.split(), h.split()))
        total2 = WerCounts()
        for r, h in reversed(pairs):
            total2.add(wer(r.split(), h.split()))
        assert total1.to_json_dict() == total2.to_json_dict()


def manifest_for(rows):
    return Manifest([
        ManifestRecord(f"u{i}", f"wavs/u{i}.wav", transcript, "spk1", subset, condition)
        for i, (transcript, subset, condition) in enumerate(rows)
    ])


class TestPartitionReport:
    def test_counts_add_up(self):
        manifest = manifest_for([
            ("w1", "test-seen", "source"),
            ("w2", "test-seen", "target"),
            ("w3", "test-unseen", "source"),
            ("w4", "test-unseen", "target"),
        ])
        per_utt = {
            "u0": (["w1"], ["w1"]),
            "u1": (["w2"], ["w9"]),
            "u2": (["w3"], ["w3"]),
            "u3": (["w4"], ["w9"]),
        }
        report = partition_report(per_utt, manifest)
        subset_errors = sum(c.errors for c in report.by_subset.values())
        condition_errors = sum(c.errors for c in report.by_condition.values())
        assert report.overall.errors == subset_errors == condition_errors == 2
        assert report.overall.n_ref == 4

    def test_empty_partition_absent(self):
        manifest = manifest_for([("w1", "test-seen", "source")])
        report = partition_report({"u0": (["w1"], ["w1"])}, manifest)
        assert "test-unseen" not in report.by_subset
        assert "target" not in report.by_condition

    def test_unknown_utterance_rejected(self):
        manifest = manifest_for([("w1", "test-seen", "source")])
        with pytest.raises(KeyError, match="not present"):
            partition_report({"zz": (["w1"], ["w1"])}, manifest)

    def test_json_and_table_render(self):
        manifest = manifest_for([("w1", "test-seen", "source")])
        report = partition_report({"u0": (["w1"], ["w2"])}, manifest)
        assert "overall" in report.to_json()
        assert "subset=test-seen" in report.table()


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        manifest = manifest_for([("w1 w2", "train", "source"), ("w3", "test-seen", "target")])
        path = tmp_path / "m.jsonl"
        manifest.save(path)
        back = Manifest.load(path)
        assert [r.utt_id for r in back.records] == ["u0", "u1"]
        assert back.records[0].transcript == "w1 w2"

    def test_duplicate_ids_rejected(self):
        rec = ManifestRecord("u0", "p", "w", "s", "train", "source")
        with pytest.raises(ValueError, match="unique"):
            Manifest([rec, rec])

    @pytest.mark.parametrize("bad, error", [
        (lambda d: "{" + json.dumps(d), "Expecting property name enclosed in double quotes"),
        (lambda d: json.dumps([d]), "a manifest record is a JSON object, got [{"),
        (lambda d: json.dumps({k: v for k, v in d.items() if k != "condition"}),
         "manifest record lacks 'condition'"),
        (lambda d: json.dumps({**d, "transcript": 5}),
         "manifest field 'transcript' must be a string, got 5"),
        (lambda d: json.dumps({**d, "subset": "tset-seen"}),
         "subset 'tset-seen' is not one of ('train', 'test-seen', 'test-unseen')"),
        (lambda d: json.dumps({**d, "condition": "sauce"}),
         "condition 'sauce' is not one of ('source', 'target')"),
    ], ids=["not-json", "not-an-object", "missing-field", "non-string-field",
            "unknown-subset", "unknown-condition"])
    def test_bad_record_named_by_file_and_line(self, tmp_path, bad, error):
        path = tmp_path / "m.jsonl"
        manifest_for([("w1", "train", "source"), ("w2", "test-seen", "target")]).save(path)
        lines = path.read_text().splitlines()
        lines[1] = bad(json.loads(lines[1]))
        path.write_text("\n\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            Manifest.load(path)
        assert str(err.value).startswith(f"{path}:3: {error}")
