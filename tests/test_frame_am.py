import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslasr.features import FeatureMatrix
from sslasr.frame_am import (
    AmConfig,
    FrameAm,
    cross_entropy_step,
    splice_context,
    train_am,
    uniform_alignment,
)
from sslasr.params import ParameterStore

from gradcheck import finite_difference_check
from oracles import reference_splice, reference_train_am

AM = AmConfig(offsets=(-2, -1, 0, 1, 2), hidden_dims=(64, 64))

def feat(t, d, seed=0):
    return FeatureMatrix(np.random.default_rng(seed).normal(size=(t, d)))


class TestSpliceContext:
    def test_width_multiplies(self):
        out = splice_context(feat(10, 40), (-2, -1, 0, 1, 2))
        assert out.dim == 200
        assert out.n_frames == 10

    def test_zero_offset_identity(self):
        f = feat(6, 3, seed=1)
        out = splice_context(f, (0,))
        assert np.array_equal(out.data, f.data)

    def test_edge_replication(self):
        f = FeatureMatrix(np.arange(8, dtype=np.float32).reshape(4, 2))
        out = splice_context(f, (-2, 0))
        assert np.array_equal(out.data[0, :2], f.data[0])  # clipped to row 0
        assert np.array_equal(out.data[1, :2], f.data[0])
        assert np.array_equal(out.data[3, :2], f.data[1])

    @given(t=st.integers(1, 12), d=st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_shape_property(self, t, d):
        out = splice_context(feat(t, d, seed=t + d), (-1, 0, 3))
        assert out.data.shape == (t, 3 * d)

    @given(t=st.integers(1, 12), d=st.integers(1, 5),
           offsets=st.lists(st.integers(-15, 15), min_size=1, max_size=6, unique=True).map(sorted),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(t=30, d=40, offsets=list(AM.offsets), seed=0)
    def test_equals_per_offset_gather(self, t, d, offsets, seed):
        f = feat(t, d, seed=seed)
        out = splice_context(f, offsets)
        assert out.data.tobytes() == reference_splice(f.data, offsets).tobytes()

    def test_offsets_validated(self):
        with pytest.raises(ValueError, match="sorted"):
            AmConfig(offsets=(1, 0), hidden_dims=(64, 64))


class TestPosteriors:
    def test_rows_normalize(self):
        am = FrameAm(AM, d_feat=8, n_classes=5, seed=0)
        (stream,) = am.posteriors([feat(7, 8)])
        assert np.allclose(np.exp(stream.logp).sum(axis=1), 1.0, atol=1e-6)

    def test_deterministic(self):
        am = FrameAm(AM, d_feat=8, n_classes=5, seed=0)
        f = feat(7, 8, seed=2)
        assert np.array_equal(am.posteriors([f])[0].logp, am.posteriors([f])[0].logp)

    def test_width_mismatch(self):
        am = FrameAm(AM, d_feat=8, n_classes=5, seed=0)
        with pytest.raises(ValueError, match="does not match"):
            am.posteriors([feat(7, 9)])

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=8),
           n_classes=st.integers(2, 45), seed=st.integers(0, 2**32 - 1))
    @example(lengths=[1, 6, 1, 3, 6], n_classes=41, seed=0)
    def test_batch_equals_per_utterance_calls(self, lengths, n_classes, seed):
        # a list of one is a batch of one; mixed lengths run as one ragged
        # batch, its products one per run of equal frame counts; each
        # stream equals the per-utterance training forward
        am = FrameAm(AM, d_feat=4, n_classes=n_classes, seed=seed % 1000)
        feats = [feat(t, 4, seed=seed + i) for i, t in enumerate(lengths)]
        streams = am.posteriors(feats)
        assert len(streams) == len(feats)
        for f, stream in zip(feats, streams):
            _, one = cross_entropy_step(am, *am.training_example(f, np.zeros(len(f.data))))
            assert stream.logp.tobytes() == one.tobytes()
            (alone,) = am.posteriors([f])
            assert alone.logp.tobytes() == one.tobytes()


def labeled_dataset(n_utts, d_feat, n_classes, seed):
    """Features with class-dependent means: learnable by construction."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, d_feat)) * 2.0
    data = []
    for _ in range(n_utts):
        labels = rng.integers(0, n_classes, size=12)
        rows = centers[labels] + 0.3 * rng.normal(size=(12, d_feat))
        data.append((FeatureMatrix(rows), labels))
    return data


class TestTraining:
    def test_zero_epochs_is_init(self):
        data = labeled_dataset(3, 6, 4, seed=1)
        am, history = train_am(data, AM, d_feat=6, n_classes=4, epochs=0, seed=5)
        fresh = FrameAm(AM, 6, 4, seed=np.random.SeedSequence(5).spawn(2)[0])
        a = ParameterStore.from_module(am).tensors
        b = ParameterStore.from_module(fresh).tensors
        assert history == []
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_accuracy_beats_chance(self):
        data = labeled_dataset(10, 6, 4, seed=2)
        am, history = train_am(data, AM, d_feat=6, n_classes=4, epochs=8,
                               seed=6, optimizer_cfg={"optimizer": "adam", "lr": 3e-3})
        assert history[-1]["cross_entropy"] < history[0]["cross_entropy"]
        assert history[-1]["frame_accuracy"] > 1.0 / 4

    def test_determinism(self):
        data = labeled_dataset(4, 6, 4, seed=3)
        kw = dict(d_feat=6, n_classes=4, epochs=2, seed=7,
                  optimizer_cfg={"optimizer": "adam", "lr": 1e-3})
        m1, _ = train_am(data, AM, **kw)
        m2, _ = train_am(data, AM, **kw)
        a = ParameterStore.from_module(m1).tensors
        b = ParameterStore.from_module(m2).tensors
        assert all(np.array_equal(a[k], b[k]) for k in a)

    @settings(max_examples=15, deadline=None)
    @given(n_utts=st.integers(1, 5), epochs=st.integers(0, 3), seed=st.integers(0, 999))
    def test_equals_per_step_splicing_bit_for_bit(self, n_utts, epochs, seed):
        data = labeled_dataset(n_utts, 6, 4, seed=seed)
        kw = dict(d_feat=6, n_classes=4, epochs=epochs, seed=seed,
                  optimizer_cfg={"optimizer": "adam", "lr": 3e-3})
        am, history = train_am(data, AM, **kw)
        ref, ref_history = reference_train_am(data, AM, **kw)
        assert history == ref_history
        a = ParameterStore.from_module(am).tensors
        b = ParameterStore.from_module(ref).tensors
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_splices_each_utterance_once(self, monkeypatch):
        import sslasr.frame_am as frame_am

        calls = []
        splice = frame_am.splice_context
        monkeypatch.setattr(frame_am, "splice_context",
                            lambda f, offsets: calls.append(f) or splice(f, offsets))
        data = labeled_dataset(4, 6, 4, seed=3)
        train_am(data, AM, d_feat=6, n_classes=4, epochs=3, seed=0)
        assert len(calls) == len(data)

    def test_label_out_of_range(self):
        am = FrameAm(AM, d_feat=6, n_classes=4, seed=0)
        with pytest.raises(ValueError, match="label outside"):
            am.training_example(feat(5, 6), np.array([0, 1, 2, 3, 4]))

    def test_gradient_matches_finite_differences(self):
        am = FrameAm(AM, d_feat=6, n_classes=4, seed=8)
        f = feat(9, 6, seed=4)
        labels = np.random.default_rng(5).integers(0, 4, size=9)

        def pure_loss():
            from sslasr.nn import log_softmax

            spliced = splice_context(f, am.cfg.offsets)
            logits = am._forward_logits(spliced.data.astype(np.float64))
            logp = log_softmax(logits, axis=-1)
            return float(-logp[np.arange(9), labels].mean())

        am.zero_grad()
        cross_entropy_step(am, *am.training_example(f, labels))
        worst, info = finite_difference_check(pure_loss, am.parameters(), n_coords=100)
        assert worst <= 1e-4, info

    def test_two_feature_sets_give_different_models(self):
        # mirrors training one system on base features and one on fused
        base = labeled_dataset(6, 6, 4, seed=9)
        wide = [
            (FeatureMatrix(np.hstack([f.data, np.random.default_rng(i).normal(size=(12, 3))
                                      .astype(np.float32)])), labels)
            for i, (f, labels) in enumerate(base)
        ]
        m1, _ = train_am(base, AM, d_feat=6, n_classes=4, epochs=3, seed=10,
                         optimizer_cfg={"optimizer": "adam", "lr": 1e-3})
        m2, _ = train_am(wide, AM, d_feat=9, n_classes=4, epochs=3, seed=10,
                         optimizer_cfg={"optimizer": "adam", "lr": 1e-3})
        p1 = m1.posteriors([base[0][0]])[0].logp
        p2 = m2.posteriors([wide[0][0]])[0].logp
        assert not np.array_equal(p1, p2)


class TestAlignments:
    def test_uniform_equal_spans(self):
        labels = uniform_alignment(12, [5, 6, 7])
        assert labels.shape == (12,)
        assert np.array_equal(labels, [5] * 4 + [6] * 4 + [7] * 4)

    def test_uniform_edge_blanks(self):
        labels = uniform_alignment(10, [3, 4], edge_blank_frames=2)
        assert np.array_equal(labels, [0, 0, 3, 3, 3, 4, 4, 4, 0, 0])

    def test_uniform_too_short_all_blank(self):
        assert np.array_equal(uniform_alignment(2, [1, 2, 3]), [0, 0])
