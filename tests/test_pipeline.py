import hashlib
import json
import re
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from conftest import random_stream
from hypothesis import given, settings
from hypothesis import strategies as st

from sslasr import container, pipeline
from sslasr.config import encoder_config, load_config, merge_config
from sslasr.container import ContainerError
from sslasr.corpus import wer
from sslasr.ctc import TokenVocab
from sslasr.decoder import (Lexicon, LexiconEntry, decode_stream, interpolate_posteriors,
                            isolated_nbest, parse_weight_ratio)
from sslasr.encoder import RECEPTIVE_FIELD, STRIDE, SslEncoder, windows
from sslasr.features import compute_fbank, fuse_features
from sslasr.inversion import MdnModel, mdn_predict
from sslasr.params import ParameterStore
from sslasr.rescore import rescore, rescore_hypotheses, score_nbest_with_ssl

from oracles import greedy_decode


def features_of(feature_fn, records):
    """The features of ``records`` in order, from a features function's
    windows."""
    return [f for window in feature_fn(records) for f in window]


def sample_key(audio):
    samples = getattr(audio, "samples", audio)
    return hashlib.sha256(np.ascontiguousarray(samples).tobytes()).hexdigest()


def count_encodes(monkeypatch, counter):
    """Count every utterance the encoder's inference entries
    (``encode_raw``, ``represent``) encode, keyed by its samples, whatever
    batch it rides in."""
    for name in ("encode_raw", "represent"):
        def counted(self, audio, *args, _fn=getattr(SslEncoder, name)):
            audio = list(audio)
            counter.update(map(sample_key, audio))
            return _fn(self, audio, *args)
        monkeypatch.setattr(SslEncoder, name, counted)


class TestCorpusAccess:
    def test_tokens_resolve(self, tiny_corpus):
        record = tiny_corpus.manifest.records[0]
        ids = tiny_corpus.tokens(record)
        assert len(ids) == 3
        assert all(1 <= i <= len(tiny_corpus.vocab.tokens) for i in ids)

    def test_audio_loads(self, tiny_corpus):
        audio = tiny_corpus.audio(tiny_corpus.manifest.records[0])
        assert len(audio) >= 400  # one filterbank window


class TestFinetuneEncoder:
    def test_one_cnn_pass_per_training_window(self, tiny_config, tiny_corpus, monkeypatch):
        """No stage trains the CNN stack: each window of training utterances
        goes through ``encode_raw`` once, whatever the stages, and nothing
        calls ``represent``."""
        calls = []
        for name in ("encode_raw", "represent"):
            def traced(self, audio, *args, _fn=getattr(SslEncoder, name), _name=name):
                calls.append((_name, [sample_key(a) for a in audio]))
                return _fn(self, audio, *args)
            monkeypatch.setattr(SslEncoder, name, traced)
        stages = [{"epochs": 1, "scope": scope, "optimizer": {"optimizer": "adam", "lr": 1e-3}}
                  for scope in ("head-only", "no-feature-encoder", "first-1-blocks", "head-only")]
        cfg = load_config(overrides=merge_config(tiny_config, {
            "finetune": {"adapter_init_epochs": 1, "stages": stages}}))
        model = SslEncoder(encoder_config(cfg), seed=0)
        pipeline.finetune_encoder(tiny_corpus, model, cfg)
        monkeypatch.undo()
        assert calls == [("encode_raw", [sample_key(tiny_corpus.audio(r)) for r in window])
                         for window in windows(tiny_corpus.subset("train"))]


class TestModelRoundTrips:
    def test_encoder_save_load(self, tiny_config, tiny_corpus, tiny_models, tmp_path):
        model, adapter = tiny_models
        path = tmp_path / "enc.spm"
        ParameterStore.from_module(model).save(path)
        back = pipeline.load_encoder(tiny_config, path)
        rec = tiny_corpus.manifest.records[0]
        a = model.head_posteriors(model.represent([tiny_corpus.audio(rec)])[1])[0].logp
        b = back.head_posteriors(back.represent([tiny_corpus.audio(rec)])[1])[0].logp
        assert np.array_equal(a, b)

    def test_adapter_save_load(self, tiny_config, tiny_models, tmp_path):
        model, adapter = tiny_models
        path = tmp_path / "ad.spm"
        ParameterStore.from_module(adapter).save(path)
        back = pipeline.load_adapter(tiny_config, model.cfg.d_model, path)
        x = np.random.default_rng(0).normal(size=(4, model.cfg.d_model))
        a_bn, a_res = adapter.forward_arrays(x)
        b_bn, b_res = back.forward_arrays(x)
        assert np.array_equal(a_bn, b_bn)
        assert np.array_equal(a_res, b_res)


class TestFeatureFns:
    def test_fused_features_shape(self, tiny_corpus, tiny_models):
        model, adapter = tiny_models
        fn = pipeline.build_feature_fn(tiny_corpus, "fbk+w2v-bn", model=model,
                                       adapter=adapter)
        (feats,) = features_of(fn, tiny_corpus.manifest.records[:1])
        assert feats.dim == 40 + 32

    @pytest.mark.parametrize("kind", ["fbk+w2v-bn", "fbk+w2v-bn+artic"])
    def test_one_read_and_encode_per_record(self, kind, tiny_config, tiny_corpus,
                                            tiny_models, monkeypatch):
        model, adapter = tiny_models
        mdn_model = MdnModel(pipeline.mdn_config(tiny_config), seed=0)
        records = tiny_corpus.manifest.records
        expected = []
        for rec in records:
            (bn,) = pipeline.bottleneck_features(tiny_corpus, [rec], model, adapter)
            streams = [compute_fbank(tiny_corpus.audio(rec)), bn]
            if kind.endswith("artic"):
                streams.append(mdn_predict(bn, mdn_model))
            expected.append(fuse_features(streams))
        reads, encodes = Counter(), Counter()
        read_wav = pipeline.read_wav

        def counted_read(path):
            reads[str(path)] += 1
            return read_wav(path)

        monkeypatch.setattr(pipeline, "read_wav", counted_read)
        count_encodes(monkeypatch, encodes)
        fn = pipeline.build_feature_fn(tiny_corpus, kind, model=model, adapter=adapter,
                                       mdn_model=mdn_model)
        got = features_of(fn, records)
        monkeypatch.undo()
        assert reads == Counter(str(tiny_corpus.root / r.audio_path) for r in records)
        # every utterance is encoded once, whatever batch it rode in
        assert encodes == Counter(sample_key(tiny_corpus.audio(r)) for r in records)
        for g, e in zip(got, expected):
            assert np.array_equal(g.data, e.data)

    def test_unknown_stream_rejected(self, tiny_corpus):
        with pytest.raises(ValueError, match="unknown feature stream 'mystery'"):
            pipeline.build_feature_fn(tiny_corpus, "fbk+mystery")

    @pytest.mark.parametrize("kind, given, missing", [
        ("fbk+w2v-bn", {}, "'w2v-bn' needs --model and --adapter"),
        ("w2v-bn+fbk", {"model": 1}, "'w2v-bn' needs --adapter"),
        ("fbk+w2v-bn+artic", {"model": 1, "adapter": 1}, "'artic' needs --mdn"),
        ("fbk+artic", {"mdn_model": 1}, "'artic' needs --model and --adapter"),
    ], ids=["w2v-bn", "w2v-bn-adapter", "artic", "artic-encoder"])
    def test_missing_models_named(self, tiny_corpus, kind, given, missing):
        with pytest.raises(ValueError, match=f"^feature stream {missing}$"):
            pipeline.build_feature_fn(tiny_corpus, kind, **given)

    def test_bottleneck_stream_doubles_the_encoder_rate(self, tiny_corpus, tiny_models):
        model, adapter = tiny_models
        rec = tiny_corpus.manifest.records[0]
        audio = tiny_corpus.audio(rec)
        (feats,) = pipeline.bottleneck_features(tiny_corpus, [rec], model, adapter)
        (bn,), (h,) = model.represent([audio], adapter)
        # one row per half of each STRIDE-sample encoder frame
        assert feats.n_frames == 2 * len(h) == 2 * ((len(audio) - RECEPTIVE_FIELD) // STRIDE + 1)
        assert np.array_equal(feats.data, bn.astype(np.float32))


NOT_T_BY_V = r"posterior stream must be a T x \(V\+1\) matrix with T, V >= 1, got shape "


class TestStreamFiles:
    def test_round_trip_preserves_decisions(self, tiny_corpus, tiny_models, tmp_path):
        model, adapter = tiny_models
        records = tiny_corpus.manifest.records[:3]
        streams = model.head_posteriors(model.represent(
            [tiny_corpus.audio(r) for r in records], adapter)[1])
        path = tmp_path / "streams"
        pipeline.write_streams(path, {r.utt_id: s for r, s in zip(records, streams)})
        back = pipeline.read_streams(path)
        assert list(back) == [r.utt_id for r in records]
        for got, stream in zip(back.values(), streams):
            assert greedy_decode(got) == greedy_decode(stream)
            # a saved stream is the stream, bit for bit
            assert got.logp.dtype == np.float64 and got.logp.tobytes() == stream.logp.tobytes()

    @pytest.mark.parametrize("logp, error", [
        (np.log([[0.5, 0.4]]), "rows must log-sum-exp to 0 within 1e-6"),
        (np.log([[0.5, 0.5], [0.5, 0.5 + 2e-6]]), "rows must log-sum-exp to 0 within 1e-6"),
        (np.array([[0.0, np.nan]]), "posterior entries must be finite or -inf"),
        (np.array([[np.inf, 0.0]]), "posterior entries must be finite or -inf"),
        (np.log([0.5, 0.5]), NOT_T_BY_V + r"\(2,\)"),
        (np.zeros((0, 3)), NOT_T_BY_V + r"\(0, 3\)"),
        (np.zeros((2, 1)), NOT_T_BY_V + r"\(2, 1\)"),
    ], ids=["unnormalised", "off-by-2e-6", "nan", "plus-inf", "1-d", "no-frames", "no-token"])
    def test_entry_that_is_not_a_stream_named(self, tmp_path, logp, error):
        """The reader renormalises nothing: an entry that is not a stream
        fails by its index and utterance id."""
        path = tmp_path / "streams"
        good = np.log([[0.25, 0.75]])
        container.write(path, [("u0", good), ("u1", logp)], "utterance id")
        with pytest.raises(ContainerError, match=r"^entry 1 \('u1'\): " + error):
            pipeline.read_streams(path)


class TestAlignments:
    def test_uniform_alignment_blank_margins(self, tiny_config, tiny_corpus):
        rec = tiny_corpus.manifest.records[0]
        feats = compute_fbank(tiny_corpus.audio(rec))
        labels = pipeline.alignment_labels(tiny_corpus, rec, feats, tiny_config)
        assert labels.shape[0] == feats.n_frames
        assert labels[0] == 0 and labels[-1] == 0
        assert set(labels) - {0} == set(tiny_corpus.tokens(rec))


class TestInversionPipeline:
    def test_train_and_generate(self, tiny_config, tiny_corpus, tiny_models):
        model, adapter = tiny_models
        mdn_model, history = pipeline.train_inversion_model(
            tiny_corpus, model, adapter, tiny_config
        )
        assert history[-1]["nll"] < history[0]["nll"]
        rec = tiny_corpus.manifest.records[0]
        (bn,) = pipeline.bottleneck_features(tiny_corpus, [rec], model, adapter)
        artic = mdn_predict(bn, mdn_model)
        assert artic.dim == tiny_config["mdn"]["d_artic"]


VOCAB = TokenVocab(("a", "b", "c"))
ENTRIES = [LexiconEntry("ab", ("a", "b")), LexiconEntry("c", ("c",)),
           LexiconEntry("aa", ("a", "a"))]
ISOLATED = Lexicon(ENTRIES)


def reference_stream(streams, weights):
    """The stream a task decodes, built on its own: its one stream, or the
    interpolation of its streams (equal weights when None)."""
    if len(streams) == 1 and weights is None:
        return streams[0]
    return interpolate_posteriors(streams, np.ones(len(streams)) if weights is None
                                  else weights)


def as_json(objs):
    return [asdict(o) for o in objs]


class TestDecodeUtterances:
    def test_batched_tasks_equal_per_task_decoding(self):
        rng = np.random.default_rng(3)
        # (utt id, frames, streams, weights): mixed lengths, joint tasks
        # of equal and of ratio weights, a one-stream weighted task
        specs = [("u5", 5, 2, [3, 2]), ("u4", 2, 1, None), ("u3", 7, 1, None),
                 ("u2", 3, 1, [1.0]), ("u1", 4, 2, None), ("u0", 6, 3, [9, 1, 5])]
        tasks = [(u, [random_stream(t, 3, rng) for _ in range(n)], w)
                 for u, t, n, w in specs]
        by_id = sorted(tasks, key=lambda task: task[0])
        hyps, nbests = pipeline.decode_utterances(tasks, ISOLATED, VOCAB, n=2)
        expected = [decode_stream(reference_stream(s, w), ISOLATED, VOCAB, u)
                    for u, s, w in by_id]
        assert as_json(hyps) == as_json(expected)
        assert as_json(nbests) == as_json(
            isolated_nbest(reference_stream(s, w), ISOLATED, VOCAB, 2, utt_id=u)
            for u, s, w in by_id)

    def test_empty_test_set(self):
        assert pipeline.decode_utterances([], ISOLATED, VOCAB) == ([], [])


@st.composite
def decode_sets(draw):
    """A set of tasks of mixed lengths: one stream alone, or several
    interpolated under drawn or equal weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tasks = []
    for k in range(draw(st.integers(1, 6))):
        t = draw(st.integers(1, 8))
        n = draw(st.integers(1, 3))
        weights = draw(st.one_of(st.none(), st.lists(st.integers(1, 9), min_size=n,
                                                     max_size=n)))
        tasks.append((f"u{k}", [random_stream(t, 3, rng) for _ in range(n)], weights))
    ssl = {u: random_stream(draw(st.integers(1, 8)), 3, rng)
           for u, _, _ in tasks}
    return tasks, ssl, draw(st.permutations(range(len(tasks))))


class TestOrderIndependence:
    @settings(max_examples=40, deadline=None)
    @given(decode_sets(), st.integers(1, 3))
    def test_shuffled_tasks_decode_and_rescore_alike(self, drawn, n):
        tasks, ssl, order = drawn
        hyps, nbests = pipeline.decode_utterances(tasks, ISOLATED, VOCAB, n)
        hyps2, nbests2 = pipeline.decode_utterances([tasks[i] for i in order], ISOLATED, VOCAB,
                                                    n)
        assert [h.utt_id for h in hyps] == sorted(ssl)
        assert as_json(hyps) == as_json(hyps2)
        assert as_json(nbests) == as_json(nbests2)

        def rescored(lists):
            hs = rescore_hypotheses(lists, [ssl[nb.utt_id] for nb in lists], VOCAB, 2.0, 9.0)
            return {h.utt_id: asdict(h) for h in hs}

        assert rescored([nbests[i] for i in order]) == rescored(nbests)


class TestScoreHypotheses:
    def test_one_id_map_per_call(self, tiny_corpus, monkeypatch):
        manifest = tiny_corpus.manifest
        pairs = [(r.utt_id, r.transcript.split()) for r in manifest.records]
        calls = Counter()
        by_id = type(manifest).by_id

        def counted(self):
            calls["by_id"] += 1
            return by_id(self)

        monkeypatch.setattr(type(manifest), "by_id", counted)
        report = pipeline.score_hypotheses(pairs, manifest)
        assert report.overall.errors == 0
        assert report.overall.n_ref == sum(len(words) for _, words in pairs)
        assert calls["by_id"] <= 2  # this function and partition_report, once each

    def test_insertions_summed(self, tiny_corpus):
        """A two-word hypothesis of a one-word reference is one insertion,
        counted overall and in its utterance's subset and condition."""
        manifest = tiny_corpus.manifest
        tests = manifest.subset("test-seen", "test-unseen")
        pairs = [(r.utt_id, r.transcript.split()) for r in tests]
        first, other = tests[0], next(r for r in tests if r.transcript != tests[0].transcript)
        pairs[0] = (first.utt_id, [first.transcript, other.transcript])
        report = pipeline.score_hypotheses(pairs, manifest)
        for counts in (report.overall, report.by_subset[first.subset],
                       report.by_condition[first.condition]):
            assert (counts.insertions, counts.substitutions, counts.deletions) == (1, 0, 0)
            assert counts.errors == 1

    def test_unknown_id_named(self, tiny_corpus):
        rec = tiny_corpus.manifest.records[0]
        with pytest.raises(KeyError, match="'no-such-utt'"):
            pipeline.score_hypotheses([(rec.utt_id, []), ("no-such-utt", ["x"])],
                                      tiny_corpus.manifest)

    def test_missing_test_utterances_named(self, tiny_corpus):
        """Only train records may go without a hypothesis."""
        manifest = tiny_corpus.manifest
        tests = manifest.subset("test-seen", "test-unseen")
        pairs = [(r.utt_id, r.transcript.split()) for r in manifest.records if r not in tests[1:3]]
        with pytest.raises(ValueError, match=re.escape(
                f"2 test-seen/test-unseen utterances have no hypothesis, the first "
                f"{tests[1].utt_id!r}")):
            pipeline.score_hypotheses(pairs, manifest)
        train_free = [(r.utt_id, r.transcript.split()) for r in tests]
        assert pipeline.score_hypotheses(train_free, manifest).overall.errors == 0

    def test_repeated_id_named(self, tiny_corpus):
        first, second = tiny_corpus.manifest.records[:2]
        with pytest.raises(ValueError, match=f"{first.utt_id!r} has more than one"):
            pipeline.score_hypotheses([(first.utt_id, []), (second.utt_id, []),
                                       (first.utt_id, first.transcript.split())],
                                      tiny_corpus.manifest)


class TestTrainerSeeds:
    def test_tiny_recipe_seeds_pinned(self, tmp_path, monkeypatch):
        """Each trainer of the recipe gets a fixed offset of the config seed:
        pretraining and inversion the seed, the adapter's initialisation
        +7, fine-tuning stage i +i, and the fbk and fused AMs +101 and
        +202. Recorded on the benchmark's tiny recipe settings."""
        spec = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                           / "workloads.json").read_text())["recipe"]
        cfg = load_config(None, merge_config(merge_config(spec["config"], spec["tiny"]),
                                             {"seed": spec["seed"]}))
        seeds = []
        for name in ("pretrain", "train_adapter", "finetune_ctc", "train_inversion",
                     "train_am"):
            def recorded(*args, seed, _name=name, _fn=getattr(pipeline, name), **kwargs):
                seeds.append((_name, seed))
                return _fn(*args, seed=seed, **kwargs)
            monkeypatch.setattr(pipeline, name, recorded)
        pipeline.generate_corpus(tmp_path, cfg)
        corpus = pipeline.Corpus(tmp_path)
        model, _ = pipeline.pretrain_encoder(corpus, cfg)
        adapter, _ = pipeline.finetune_encoder(corpus, model, cfg)
        pipeline.train_inversion_model(corpus, model, adapter, cfg)
        pipeline.run_recognition(corpus, cfg, model, adapter)
        s = cfg["seed"]
        assert len(cfg["finetune"]["stages"]) == 3
        assert seeds == [("pretrain", s), ("train_adapter", s + 7), ("finetune_ctc", s),
                         ("finetune_ctc", s + 1), ("finetune_ctc", s + 2),
                         ("train_inversion", s), ("train_am", s + 101), ("train_am", s + 202)]


class TestRunRecognition:
    @pytest.mark.parametrize("override, error", [
        ({"decode": {"weights": "9:1:5"}}, r"decode.weights \(fused:fbk\): need 2 weights"),
        ({"decode": {"weights": "inf:1"}}, r"decode.weights \(fused:fbk\) must be finite"),
        ({"decode": {"weights": "3:-2"}}, r"decode.weights \(fused:fbk\) must be nonneg"),
        ({"rescore": {"alpha": float("nan")}}, "rescore.alpha: must be finite, got nan"),
        ({"rescore": {"beta": -9.0}}, "rescoring weights alpha:beta must be nonnegative"),
    ])
    def test_weights_checked_before_training(self, override, error):
        # run_recognition reads weights that the config loader has checked
        with pytest.raises(ValueError, match=error):
            load_config(overrides=override)

    def test_hypotheses_and_single_joint_pass(self, tiny_config, tiny_corpus, tiny_models):
        model, adapter = tiny_models
        result = pipeline.run_recognition(tiny_corpus, tiny_config, model, adapter)
        records = sorted(tiny_corpus.manifest.subset("test-seen", "test-unseen"),
                         key=lambda r: r.utt_id)
        ids = [r.utt_id for r in records]
        assert sorted(result["hypotheses"]) == ["fbk", "fused", "joint", "rescored"]
        for hyps in result["hypotheses"].values():
            assert [h.utt_id for h in hyps] == ids
            assert all(np.isfinite(h.cost) for h in hyps)
        # the joint hypotheses are the decoding of the rebuilt mixed stream
        am_fbk, am_fused = result["models"]["am_fbk"], result["models"]["am_fused"]
        fbk_fn = pipeline.build_feature_fn(tiny_corpus, "fbk")
        fused_fn = pipeline.build_feature_fn(tiny_corpus, "fbk+w2v-bn", model=model,
                                             adapter=adapter)
        weights = parse_weight_ratio(tiny_config["decode"]["weights"], 2, "w")
        for record, hyp in zip(records, result["hypotheses"]["joint"]):
            (fused,), (fbk,) = features_of(fused_fn, [record]), features_of(fbk_fn, [record])
            mixed = interpolate_posteriors(
                [am_fused.posteriors([fused])[0], am_fbk.posteriors([fbk])[0]], weights)
            expected = decode_stream(mixed, tiny_corpus.lexicon, tiny_corpus.vocab,
                                     record.utt_id)
            assert hyp.words == expected.words
            assert hyp.cost == expected.cost

    def test_one_pass_per_test_utterance(self, tiny_config, tiny_corpus, tiny_models,
                                         monkeypatch):
        model, adapter = tiny_models
        reads, fbanks, encodes = Counter(), Counter(), Counter()
        key = sample_key

        def counted(counter, fn, keys_of):
            def wrapper(*args):
                counter.update(keys_of(*args))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(pipeline, "read_wav",
                            counted(reads, pipeline.read_wav, lambda path: [str(path)]))
        monkeypatch.setattr(pipeline, "compute_fbank",
                            counted(fbanks, pipeline.compute_fbank, lambda a: [key(a)]))
        count_encodes(monkeypatch, encodes)
        result = pipeline.run_recognition(tiny_corpus, tiny_config, model, adapter)
        monkeypatch.undo()
        records = sorted(tiny_corpus.manifest.subset("test-seen", "test-unseen"),
                         key=lambda r: r.utt_id)
        for record in records:
            audio = tiny_corpus.audio(record)
            assert reads[str(tiny_corpus.root / record.audio_path)] == 1, record.utt_id
            assert fbanks[key(audio)] == 1, record.utt_id
            assert encodes[key(audio)] == 1, record.utt_id

        # the rescored hypotheses are the rescoring of the rebuilt joint
        # N-best with the single-pass SSL stream
        am_fbk, am_fused = result["models"]["am_fbk"], result["models"]["am_fused"]
        fbk_fn = pipeline.build_feature_fn(tiny_corpus, "fbk")
        fused_fn = pipeline.build_feature_fn(tiny_corpus, "fbk+w2v-bn", model=model,
                                             adapter=adapter)
        weights = parse_weight_ratio(tiny_config["decode"]["weights"], 2, "w")
        alpha, beta = tiny_config["rescore"]["alpha"], tiny_config["rescore"]["beta"]
        for record, hyp in zip(records, result["hypotheses"]["rescored"]):
            (fused,), (fbk,) = features_of(fused_fn, [record]), features_of(fbk_fn, [record])
            mixed = interpolate_posteriors(
                [am_fused.posteriors([fused])[0], am_fbk.posteriors([fbk])[0]], weights)
            nbest = isolated_nbest(mixed, tiny_corpus.lexicon, tiny_corpus.vocab,
                                   tiny_config["decode"]["nbest"], utt_id=record.utt_id)
            _, h = model.represent([tiny_corpus.audio(record)], adapter)
            (costs,) = score_nbest_with_ssl([nbest], model.head_posteriors(h),
                                            tiny_corpus.vocab)
            best = rescore(nbest, costs, alpha, beta).entries[0]
            assert hyp.words == list(best.words)
            assert hyp.cost == best.cost
