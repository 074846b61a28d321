import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslasr.bottleneck import BottleneckAdapter, BottleneckConfig
from sslasr.encoder import (
    CONV_LAYERS,
    RECEPTIVE_FIELD,
    STRIDE,
    EncoderConfig,
    SslEncoder,
    _ctc_step,
    contrastive_loss,
    diversity_loss_with_grad,
    finetune_ctc,
    pretrain,
    pretrain_step,
    sample_mask_spans,
    trainable_parameters,
    windows,
)
from sslasr.features import FBANK_HOP, AudioBuffer
from sslasr.nn import log_softmax, sinusoidal_positions
from sslasr.params import ParameterStore, make_optimizer

from conftest import ENCODER
from gradcheck import finite_difference_check
from oracles import reference_contrastive_loss, reference_ctc_step


@pytest.fixture(scope="module")
def cfg():
    return EncoderConfig(**ENCODER)


@pytest.fixture(scope="module")
def model(cfg):
    return SslEncoder(cfg, seed=11)


def sine(n, freq=700.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 16000.0
    return 0.3 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.normal(size=n)


class TestConfig:
    def test_default_stack_meets_stride_and_field(self):
        stride, field = 1, 1
        for _, kernel, step in CONV_LAYERS:
            field += (kernel - 1) * stride
            stride *= step
        assert (stride, field) == (STRIDE, RECEPTIVE_FIELD) == (320, 400)
        # a 20 ms hop, which the bottleneck adapter doubles in rate to the
        # filterbank's
        assert STRIDE == 2 * FBANK_HOP


def conv_frames(n_samples):
    """Closed-form conv arithmetic: floor((N - field) / stride) + 1."""
    return (n_samples - RECEPTIVE_FIELD) // STRIDE + 1


class TestEncodeRaw:
    def test_one_second(self, model):
        assert model.encode_raw([sine(16000)])[0].shape[0] == 49

    def test_exact_receptive_field(self, model):
        assert model.encode_raw([sine(400)])[0].shape[0] == 1

    def test_too_short(self, model):
        with pytest.raises(ValueError, match="receptive field"):
            model.encode_raw([sine(399)])

    def test_chain_matches_formula_everywhere(self, model):
        for n in list(range(400, 2400, 97)) + [16000, 9999]:
            assert model.encode_raw([np.zeros(n)])[0].shape[0] == conv_frames(n)


class TestContextualize:
    def test_no_mask_finite(self, model):
        z = model.encode_raw([sine(3200)])[0]
        c = model.contextualize(z)
        assert c.shape == (z.shape[0], model.cfg.d_model)
        assert np.isfinite(c).all()

    def test_all_masked_inputs_equal_mask_embedding(self, model):
        z = model.encode_raw([sine(3200)])[0]
        x = model.transformer_input(z, np.arange(z.shape[0]))
        assert np.allclose(x, model.mask_emb.value)

    def test_deterministic(self, cfg):
        a = SslEncoder(cfg, seed=5)
        b = SslEncoder(cfg, seed=5)
        z = a.encode_raw([sine(3200)])[0]
        assert np.array_equal(a.contextualize(z, [1, 2]), b.contextualize(z, [1, 2]))


class TestPositionTable:
    def test_cached_table_is_read_only_and_equals_a_fresh_one(self):
        table = sinusoidal_positions(37, 64)
        assert sinusoidal_positions(37, 64) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0
        fresh = sinusoidal_positions.__wrapped__(37, 64)
        assert table.tobytes() == fresh.tobytes()
        assert table[5, 0] == math.sin(5.0) and table[5, 1] == math.cos(5.0)


class TestMasking:
    def test_cover_property(self):
        # replay the same seeded draws: a frame is masked iff covered by a
        # span, and one start is drawn when no frame starts a span
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = int(rng.integers(5, 60))
            prob, span = float(rng.uniform(0.02, 0.3)), int(rng.integers(1, 12))
            seed = int(rng.integers(1 << 30))
            mask = sample_mask_spans(t, prob, span, np.random.default_rng(seed))
            replay = np.random.default_rng(seed)
            starts = np.flatnonzero(replay.random(t) < prob)
            if starts.size == 0:
                starts = [replay.integers(t)]
            covered = np.zeros(t, dtype=bool)
            for s in starts:
                covered[s : s + span] = True
            assert np.array_equal(mask, np.flatnonzero(covered))

    def test_force_nonempty(self):
        rng = np.random.default_rng(4)
        mask = sample_mask_spans(10, 0.0, 3, rng)
        assert mask.size > 0


class TestGumbelQuantize:
    def test_zero_temperature_limit_argmax(self, model):
        z = model.encode_raw([sine(3200)])[0]
        zn = model.z_norm.forward(z)
        quant = model.quantizer
        old_tau = quant.gumbel_temperature
        quant.gumbel_temperature = 1e-6
        try:
            q, probs = quant.forward(zn, hard=True)
            logits = quant.proj.forward(zn).reshape(zn.shape[0], quant.groups, quant.entries)
            assert np.array_equal(np.argmax(quant._sel, axis=-1), np.argmax(logits, axis=-1))
        finally:
            quant.gumbel_temperature = old_tau

    def test_probs_valid_at_all_temperatures(self, model):
        z = model.encode_raw([sine(3200)])[0]
        zn = model.z_norm.forward(z)
        for tau in (0.1, 1.0, 2.0, 10.0):
            model.quantizer.gumbel_temperature = tau
            _, probs = model.quantizer.forward(zn, rng=np.random.default_rng(0))
            assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
            assert (probs >= 0).all()
        model.quantizer.gumbel_temperature = 2.0

    def test_output_width_is_d_model(self, model, cfg):
        z = model.encode_raw([sine(3200)])[0]
        zn = model.z_norm.forward(z)
        q, probs = model.quantizer.forward(zn)
        assert q.shape == (z.shape[0], cfg.d_model)
        assert probs.shape == (z.shape[0], cfg.groups, cfg.codebook_entries)

    def test_selection_frequencies_follow_softmax(self, model):
        # Monte Carlo oracle for the Gumbel-max property: hard selections
        # over fixed logits are distributed as softmax(logits).
        z = model.encode_raw([sine(720)])[0]
        zn = model.z_norm.forward(z)[:1]
        reps = np.repeat(zn, 100_000, axis=0)
        q, probs = model.quantizer.forward(reps, hard=True, rng=np.random.default_rng(123))
        sel = model.quantizer._sel  # (N, G, V) one-hot draws
        freq = sel.mean(axis=0)
        expect = probs[0]
        n = sel.shape[0]
        stderr = np.sqrt(np.maximum(expect * (1 - expect), 1e-12) / n)
        assert np.all(np.abs(freq - expect) <= 3 * stderr + 1e-9)

    def test_nonpositive_temperature_rejected(self, model):
        z = model.encode_raw([sine(720)])[0]
        zn = model.z_norm.forward(z)
        model.quantizer.gumbel_temperature = 0.0
        try:
            with pytest.raises(ValueError, match="positive"):
                model.quantizer.forward(zn)
        finally:
            model.quantizer.gumbel_temperature = 2.0


@st.composite
def contrastive_cases(draw):
    """(c, q, masked, k, kappa, seed, distractors): random contexts and
    targets, some rows with norms below the 1e-12 guard or zero, distinct
    masked frames, and either distractors drawn from a generator seeded
    with ``seed`` or fixed lists of mixed lengths."""
    t = draw(st.integers(1, 12))
    d = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=(t, d)) * draw(st.sampled_from([1e-13, 1.0, 1e3]))
    q = rng.normal(size=(t, d))
    if draw(st.booleans()):
        q[rng.integers(t)] = 0.0
    masked = draw(st.lists(st.integers(0, t - 1), min_size=1, max_size=t, unique=True))
    k = draw(st.integers(0, 7))
    kappa = draw(st.sampled_from([0.05, 0.1, 1.0]))
    distractors = None
    if draw(st.booleans()):
        frames = st.lists(st.integers(0, t - 1), max_size=k + 2)
        distractors = {m: tuple(draw(frames)) for m in masked}
    return c, q, masked, k, kappa, draw(st.integers(0, 2**32 - 1)), distractors


_C, _Q = (np.random.default_rng(i).normal(size=(12, 64)) for i in (40, 41))
# one masked frame; k = 0; k at least the masked count; fixed distractor
# lists of mixed lengths, one of eleven candidates (numpy sums that row
# pairwise, not left to right)
ONE_FRAME = (_C, _Q, [3], 5, 0.1, 0, None)
K_ZERO = (_C, _Q, [0, 2, 4, 9], 0, 0.1, 0, None)
K_BEYOND = (_C, _Q, [1, 2, 7], 5, 0.1, 0, None)
MIXED = (_C, _Q, [0, 1, 2, 5, 11], 3, 0.1, 0,
         {0: (), 1: (2,), 2: (0, 1, 5, 5), 5: (1, 0), 11: tuple(range(10))})


class TestContrastiveLoss:
    @settings(max_examples=150, deadline=None)
    @given(case=contrastive_cases())
    @example(case=ONE_FRAME)
    @example(case=K_ZERO)
    @example(case=K_BEYOND)
    @example(case=MIXED)
    def test_equals_per_frame_reference(self, case):
        c, q, masked, k, kappa, seed, distractors = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        res = contrastive_loss(c, q, masked, k, kappa, rng=rng,
                               distractor_indices=distractors)
        ref = reference_contrastive_loss(c, q, masked, k, kappa, rng=ref_rng,
                                         distractor_indices=distractors)
        assert np.float64(res.value).tobytes() == np.float64(ref["value"]).tobytes()
        assert res.grad_c.tobytes() == ref["grad_c"].tobytes()
        assert res.grad_q.tobytes() == ref["grad_q"].tobytes()
        assert res.accuracy == ref["accuracy"]
        assert res.distractors == ref["distractors"]
        assert res.reduced_frames == ref["reduced_frames"]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_repeated_masked_frame_rejected(self):
        with pytest.raises(ValueError, match="masked frame 2 is listed more than once"):
            contrastive_loss(_C, _Q, [2, 5, 2], 1, 0.1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("masked, bad", [([-1, 3], -1), ([3, 12], 12)])
    def test_masked_frame_outside_rejected(self, masked, bad):
        with pytest.raises(ValueError, match=rf"masked frame {bad} outside \[0, 12\)"):
            contrastive_loss(_C, _Q, masked, 1, 0.1, rng=np.random.default_rng(0))

    def test_k_zero_is_zero(self):
        rng = np.random.default_rng(0)
        c, q = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        res = contrastive_loss(c, q, [2], 0, 0.1)
        assert res.value == 0.0

    def test_identical_distractors_log_k_plus_one(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=(6, 3))
        q = np.tile(rng.normal(size=(1, 3)), (6, 1))
        dist = {t: tuple(j for j in range(5) if j != t) for t in range(5)}
        res = contrastive_loss(c, q, list(range(5)), 4, 0.1, distractor_indices=dist)
        assert res.value == pytest.approx(math.log(5.0), abs=1e-12)

    def test_matches_direct_formula(self):
        # scalar re-evaluation of the temperature-scaled cosine softmax
        rng = np.random.default_rng(2)
        c, q = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        dist = {1: (0, 3), 2: (4, 0), 3: (2, 1)}
        res = contrastive_loss(c, q, [1, 2, 3], 2, 0.1, distractor_indices=dist)

        def cos(a, b):
            return float(a @ b) / ((np.linalg.norm(a) + 1e-12) * (np.linalg.norm(b) + 1e-12))

        total = 0.0
        for t in (1, 2, 3):
            sims = np.array([cos(c[t], q[j]) for j in (t, *dist[t])]) / 0.1
            total += -(sims[0] - np.log(np.exp(sims).sum()))
        assert res.value == pytest.approx(total / 3, abs=1e-10)

    def test_reduce_k_policy_recorded(self):
        rng = np.random.default_rng(3)
        c, q = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        res = contrastive_loss(c, q, [0, 2], 5, 0.1, rng=np.random.default_rng(0))
        assert res.reduced_frames == {0: 1, 2: 1}

    def test_needs_masked_frames(self):
        with pytest.raises(ValueError, match="masked"):
            contrastive_loss(np.ones((2, 2)), np.ones((2, 2)), [], 1, 0.1)


class TestDiversityLoss:
    def test_uniform_is_zero(self):
        probs = np.full((7, 2, 8), 1 / 8)
        assert diversity_loss_with_grad(probs)[0] == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_closed_form(self):
        probs = np.zeros((5, 2, 8))
        probs[:, :, 3] = 1.0
        assert diversity_loss_with_grad(probs)[0] == pytest.approx((16 - 2) / 16, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            diversity_loss_with_grad(np.full((2, 1, 4), 0.3))


class TestFullModelGradients:
    """Losses as functions of every parameter, against central differences."""

    def _frozen_setup(self, model):
        samples = sine(1680, seed=21)
        z = model.encode_raw([samples])[0]
        t = z.shape[0]
        mask = np.arange(t)
        noise = np.random.default_rng(22).gumbel(
            size=(t, model.cfg.groups, model.cfg.codebook_entries)
        )
        rng = np.random.default_rng(23)
        dist = {
            int(i): tuple(int(x) for x in rng.choice(
                mask[mask != i], size=min(model.cfg.distractors, t - 1), replace=False))
            for i in mask
        }
        return samples, mask, noise, dist

    def test_contrastive_gradient(self, cfg):
        model = SslEncoder(cfg, seed=31)
        samples, mask, noise, dist = self._frozen_setup(model)

        def loss():
            z = model.encode_raw([samples])[0]
            zn = model.z_norm.forward(z)
            c = model._context_from_input(model._project_and_mask(zn, mask))
            q_rows, _ = model.quantizer.forward(zn[mask], hard=False, noise=noise)
            q = np.zeros_like(c)
            q[mask] = q_rows
            return contrastive_loss(
                c, q, mask, cfg.distractors, cfg.contrastive_temperature,
                distractor_indices=dist,
            ).value

        model.zero_grad()
        pretrain_step(model, samples, mask=mask, noise=noise, distractor_indices=dist,
                      hard=False, contrastive_weight=1.0, diversity_weight=0.0)
        worst, info = finite_difference_check(loss, model.parameters(), n_coords=100)
        assert worst <= 1e-4, info

    def test_diversity_gradient(self, cfg):
        model = SslEncoder(cfg, seed=32)
        samples, mask, noise, dist = self._frozen_setup(model)

        def loss():
            z = model.encode_raw([samples])[0]
            zn = model.z_norm.forward(z)
            model._project_and_mask(zn, mask)
            _, probs = model.quantizer.forward(zn[mask], hard=False, noise=noise)
            return diversity_loss_with_grad(probs)[0]

        model.zero_grad()
        pretrain_step(model, samples, mask=mask, noise=noise, distractor_indices=dist,
                      hard=False, contrastive_weight=0.0, diversity_weight=1.0)
        worst, info = finite_difference_check(loss, model.parameters(), n_coords=100)
        assert worst <= 1e-4, info

    def test_ctc_finetune_gradient(self, cfg):
        from sslasr.ctc import ctc_loss

        model = SslEncoder(cfg, seed=33)
        model.attach_ctc_head(5, seed=1)
        z = model.encode_raw([sine(1680, seed=34)])[0]
        tokens = [1, 3, 2]

        def loss():
            logits = model.head.forward(model.contextualize(z))
            return ctc_loss(log_softmax(logits, axis=-1), tokens).value

        model.zero_grad()
        _ctc_step(model, z, tokens, None, "no-feature-encoder")
        params = trainable_parameters(model, "no-feature-encoder")
        worst, info = finite_difference_check(loss, params, n_coords=100)
        assert worst <= 1e-4, info


def toy_audio_set(n_utts=10, n=4800, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_utts):
        f = rng.choice([500.0, 900.0, 1600.0, 2500.0])
        t = np.arange(n) / 16000.0
        out.append(0.3 * np.sin(2 * np.pi * f * t) + 0.01 * rng.normal(size=n))
    return out


class TestPretrain:
    def test_loss_decreases_on_toy_set(self, cfg):
        data = toy_audio_set(12)
        _, history = pretrain(data, cfg, epochs=6, seed=3,
                              optimizer_cfg={"optimizer": "adam", "lr": 1e-3})
        assert history[-1]["combined"] < history[0]["combined"]

    def test_zero_epochs_equals_init(self, cfg):
        data = toy_audio_set(3)
        model, history = pretrain(data, cfg, epochs=0, seed=9)
        assert history == []
        init = SslEncoder(cfg, seed=np.random.SeedSequence(9).spawn(2)[0])
        a = ParameterStore.from_module(model).tensors
        b = ParameterStore.from_module(init).tensors
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_same_seed_identical_parameters(self, cfg):
        data = toy_audio_set(5)
        m1, _ = pretrain(data, cfg, epochs=2, seed=17,
                         optimizer_cfg={"optimizer": "adam", "lr": 1e-3})
        m2, _ = pretrain(data, cfg, epochs=2, seed=17,
                         optimizer_cfg={"optimizer": "adam", "lr": 1e-3})
        a = ParameterStore.from_module(m1).tensors
        b = ParameterStore.from_module(m2).tensors
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_parameters_finite_after_training(self, cfg):
        data = toy_audio_set(5)
        model, _ = pretrain(data, cfg, epochs=2, seed=4,
                            optimizer_cfg={"optimizer": "adam", "lr": 1e-3})
        assert all(np.isfinite(p.value).all() for p in model.parameters())

    @pytest.mark.parametrize("tau_min", [2.0, 0.5])
    def test_temperature_reaches_its_minimum(self, tau_min):
        """A minimum equal to tau keeps the temperature fixed."""
        cfg = EncoderConfig(**{**ENCODER, "gumbel_temperature_min": tau_min})
        model, _ = pretrain(toy_audio_set(2), cfg, epochs=2, seed=5)
        assert model.quantizer.gumbel_temperature == tau_min


def tone_dataset(seed=0, n_utts=16):
    """(samples, token ids) pairs: two tones per utterance from a 4-tone set."""
    rng = np.random.default_rng(seed)
    freqs = [500.0, 950.0, 1700.0, 2900.0]
    data = []
    for _ in range(n_utts):
        ids = list(rng.choice(4, size=2, replace=False) + 1)
        silence = np.zeros(480)
        parts = [silence]
        for i in ids:
            t = np.arange(2400) / 16000.0
            parts.append(0.3 * np.sin(2 * np.pi * freqs[i - 1] * t))
        parts.append(silence)
        samples = np.concatenate(parts) + 0.01 * rng.normal(size=2400 * 2 + 960)
        data.append((samples, ids))
    return data


def cnn_features(model, data):
    """The (CNN features, token ids) pairs ``finetune_ctc`` takes, of
    (samples, token ids) pairs, from the model's frozen CNN stack."""
    feats = model.encode_raw([samples for samples, _ in data])
    return [(z, ids) for z, (_, ids) in zip(feats, data)]


class TestFinetuneCtc:
    def test_token_error_rate_halves(self, cfg):
        from sslasr.corpus import wer
        from oracles import greedy_decode

        data = tone_dataset(seed=5)
        model = SslEncoder(cfg, seed=41)
        model.attach_ctc_head(5, seed=np.random.SeedSequence(77).spawn(2)[0])

        def ter():
            errs = n = 0
            for samples, ids in data:
                hyp = greedy_decode(model.head_posteriors(model.represent([samples])[1])[0])
                counts = wer(ids, hyp)
                errs += counts.errors
                n += counts.n_ref
            return errs / n

        ter0 = ter()
        feats = cnn_features(model, data)
        finetune_ctc(feats, model, 5, epochs=10, seed=77, scope="head-only",
                     optimizer_cfg={"optimizer": "adam", "lr": 1e-2})
        finetune_ctc(feats, model, 5, epochs=20, seed=78, scope="no-feature-encoder",
                     optimizer_cfg={"optimizer": "adam", "lr": 3e-3})
        assert ter() < 0.5 * ter0

    def test_loss_decreases(self, cfg):
        data = tone_dataset(seed=6, n_utts=8)
        model = SslEncoder(cfg, seed=42)
        history = finetune_ctc(cnn_features(model, data), model, 5, epochs=6, seed=1,
                               scope="head-only",
                               optimizer_cfg={"optimizer": "adam", "lr": 1e-2})
        assert history[-1]["ctc_loss"] < history[0]["ctc_loss"]

    def test_head_only_changes_only_projection(self, cfg):
        data = tone_dataset(seed=7, n_utts=4)
        model = SslEncoder(cfg, seed=43)
        model.attach_ctc_head(5, seed=9)
        before = {p.name: p.value.copy() for p in model.parameters()}
        finetune_ctc(cnn_features(model, data), model, 5, epochs=2, seed=2, scope="head-only",
                     optimizer_cfg={"optimizer": "adam", "lr": 1e-2})
        for p in model.parameters():
            if p.name.startswith("ctc_head"):
                assert not np.array_equal(before[p.name], p.value), p.name
            else:
                assert np.array_equal(before[p.name], p.value), p.name

    def test_no_feature_encoder_keeps_convs(self, cfg):
        data = tone_dataset(seed=10, n_utts=3)
        model = SslEncoder(cfg, seed=47)
        model.attach_ctc_head(5, seed=9)
        before = {p.name: p.value.copy() for p in model.parameters()}
        feats = cnn_features(model, data)
        finetune_ctc(feats, model, 5, epochs=2, seed=3, scope="no-feature-encoder",
                     optimizer_cfg={"optimizer": "adam", "lr": 1e-2})
        convs = [p for p in model.parameters() if p.name.startswith("conv")]
        assert convs
        for p in convs:
            assert np.array_equal(before[p.name], p.value), p.name
        assert not np.array_equal(before["proj.w"], model.proj.w.value)

    def test_first_blocks_keeps_upper_blocks_and_front(self, cfg):
        data = tone_dataset(seed=11, n_utts=3)
        model = SslEncoder(cfg, seed=48)
        model.attach_ctc_head(5, seed=9)
        before = {p.name: p.value.copy() for p in model.parameters()}
        feats = cnn_features(model, data)
        finetune_ctc(feats, model, 5, epochs=2, seed=4, scope="first-1-blocks",
                     optimizer_cfg={"optimizer": "adam", "lr": 1e-2})
        frozen = [p for p in model.parameters()
                  if p.name.startswith(("block1.", "z_norm.", "proj.")) or p.name == "mask_emb"]
        assert {p.name.split(".")[0] for p in frozen} == {"block1", "z_norm", "proj", "mask_emb"}
        for p in frozen:
            assert np.array_equal(before[p.name], p.value), p.name
        assert not np.array_equal(before["block0.ffn1.w"], model.blocks[0].ffn1.w.value)

    @pytest.mark.parametrize("scope", ["head-only", "no-feature-encoder", "first-1-blocks"])
    def test_frozen_prefix_cache_matches_full_passes(self, cfg, scope):
        data = tone_dataset(seed=13, n_utts=3)
        opt_cfg = {"optimizer": "adam", "lr": 1e-2}

        def setup():
            model = SslEncoder(cfg, seed=50)
            model.attach_ctc_head(5, seed=9)
            bn_cfg = BottleneckConfig(d_in=cfg.d_model, d_bn=8, dropout=0.1)
            return model, BottleneckAdapter(bn_cfg, seed=5)

        cached, cached_adapter = setup()
        finetune_ctc(cnn_features(cached, data), cached, 5, epochs=2, seed=6, scope=scope,
                     adapter=cached_adapter, optimizer_cfg=opt_cfg)
        # the same stage with every layer run forward and backward each step
        full, full_adapter = setup()
        rng = np.random.default_rng(np.random.SeedSequence(6).spawn(2)[1])
        opt = make_optimizer(trainable_parameters(full, scope, adapter=full_adapter), opt_cfg)
        for _ in range(2):
            for i in rng.permutation(len(data)):
                full.zero_grad()
                full_adapter.zero_grad()
                reference_ctc_step(full, data[i][0], data[i][1], full_adapter)
                opt.step()
        for a, b in [(cached, full), (cached_adapter, full_adapter)]:
            for p, q in zip(a.parameters(), b.parameters()):
                assert p.value.tobytes() == q.value.tobytes(), p.name

    def test_store_round_trip_after_repacking_stages(self, cfg, tmp_path):
        data = tone_dataset(seed=12, n_utts=3)
        model = SslEncoder(cfg, seed=49)
        feats = cnn_features(model, data)
        for i, scope in enumerate(["head-only", "no-feature-encoder", "first-1-blocks"]):
            finetune_ctc(feats, model, 5, epochs=1, seed=20 + i, scope=scope,
                         optimizer_cfg={"optimizer": "adam", "lr": 1e-2})
        path = tmp_path / "model.spm"
        ParameterStore.from_module(model).save(path)
        fresh = SslEncoder(cfg, seed=0)
        fresh.attach_ctc_head(5, seed=0)
        ParameterStore.load(path).load_into(fresh)
        back = fresh.param_dict()
        for name, p in model.param_dict().items():
            assert back[name].value.tobytes() == p.value.tobytes(), name

    def test_zero_epochs_head_is_random_init(self, cfg):
        data = tone_dataset(seed=8, n_utts=2)
        model = SslEncoder(cfg, seed=44)
        finetune_ctc(cnn_features(model, data), model, 5, epochs=0, seed=123)
        fresh = SslEncoder(cfg, seed=44)
        fresh.attach_ctc_head(5, seed=np.random.SeedSequence(123).spawn(2)[0])
        assert np.array_equal(model.head.w.value, fresh.head.w.value)

    def test_oov_token_rejected(self, cfg):
        model = SslEncoder(cfg, seed=45)
        with pytest.raises(ValueError, match="outside vocabulary"):
            finetune_ctc(cnn_features(model, [(sine(1600), [9])]), model, 5, epochs=1, seed=0)

    def test_scope_selection(self, cfg):
        model = SslEncoder(cfg, seed=46)
        model.attach_ctc_head(5, seed=0)
        names = {p.name for p in trainable_parameters(model, "first-1-blocks")}
        assert any(n.startswith("block0") for n in names)
        assert not any(n.startswith("block1") for n in names)
        assert any(n.startswith("ctc_head") for n in names)
        with pytest.raises(ValueError, match="unknown update scope"):
            trainable_parameters(model, "everything")

    @pytest.mark.parametrize("scope", ["first-0-blocks", "first-3-blocks"])
    def test_scope_beyond_the_blocks_rejected(self, cfg, scope):
        model = SslEncoder(cfg, seed=46)
        model.attach_ctc_head(5, seed=0)
        with pytest.raises(ValueError, match=f"{scope}'.*1..{cfg.n_blocks}"):
            trainable_parameters(model, scope)


def training_forward(model, audio, adapter=None):
    """``(z, bn, h, logp)`` of one utterance through the per-utterance
    layers of training (no ragged batch); ``logp`` is None without a CTC
    head."""
    z, _ = model._encode(model._samples(audio))
    c = model.contextualize(z)
    bn, h = (None, c) if adapter is None else adapter.forward_arrays(c)
    logp = None if model.head is None else log_softmax(model.head.forward(h), axis=-1)
    return z, bn, h, logp


class TestRepresent:
    def test_views_equal_the_layer_calls(self, cfg):
        model = SslEncoder(cfg, seed=54)
        bn_cfg = BottleneckConfig(d_in=cfg.d_model, d_bn=8, dropout=0.1)
        adapter = BottleneckAdapter(bn_cfg, seed=6)
        x = sine(3200)
        (bn,), (h,) = model.represent([x], adapter)
        _, ref_bn, ref_h, _ = training_forward(model, x, adapter)
        assert bn.tobytes() == ref_bn.tobytes()
        assert h.tobytes() == ref_h.tobytes()
        no_bn, (c,) = model.represent([x])
        assert no_bn is None
        assert c.tobytes() == training_forward(model, x)[2].tobytes()

    @pytest.mark.parametrize("audio", [[0.1] * 3200, np.zeros((2, 3200, 1))])
    def test_utterance_must_be_one_dimensional(self, model, audio):
        # a list of floats is not one utterance: pass it as [samples]
        with pytest.raises(ValueError, match="1-D samples"):
            model.represent(audio)
        with pytest.raises(ValueError, match="1-D samples"):
            model.encode_raw(audio)


# sample counts: one frame (400-719 samples), a few, and the corpus's two
# test lengths
SAMPLE_COUNTS = st.one_of(st.integers(400, 2000), st.sampled_from([7040, 8000]))


class TestRaggedRepresent:
    """A list of utterances of any lengths runs as one ragged batch whose
    every output equals that utterance's per-utterance training forward,
    and its batch of one, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(lengths=st.lists(SAMPLE_COUNTS, min_size=1, max_size=7),
           with_adapter=st.booleans(), n_classes=st.integers(2, 45),
           seed=st.integers(0, 2**32 - 1))
    @example(lengths=[3200], with_adapter=True, n_classes=13, seed=0)  # a batch of one
    @example(lengths=[7040, 8000, 7040, 8000, 8000], with_adapter=True, n_classes=13,
             seed=1)  # equal lengths
    @example(lengths=[400, 7040, 719, 1041, 8000, 400], with_adapter=False, n_classes=41,
             seed=2)  # one-frame utterances among longer ones
    def test_outputs_equal_per_utterance_calls(self, cfg, lengths, with_adapter, n_classes,
                                               seed):
        model = SslEncoder(cfg, seed=61)
        model.attach_ctc_head(n_classes, seed=seed % 1000)
        bn_cfg = BottleneckConfig(d_in=cfg.d_model, d_bn=8, dropout=0.1)
        adapter = BottleneckAdapter(bn_cfg, seed=7) if with_adapter else None
        rng = np.random.default_rng(seed)
        utterances = [AudioBuffer(rng.normal(0.0, 0.3, n)) for n in lengths]
        bn, h = model.represent(utterances, adapter)
        assert (bn is None) == (adapter is None)
        streams = model.head_posteriors(h)
        z = model.encode_raw(utterances)
        for i, utterance in enumerate(utterances):
            one_z, one_bn, one_h, one_logp = training_forward(model, utterance, adapter)
            assert z[i].tobytes() == one_z.tobytes()
            assert h[i].tobytes() == one_h.tobytes()
            if adapter is not None:
                assert bn[i].tobytes() == one_bn.tobytes()
            assert streams[i].logp.tobytes() == one_logp.tobytes()
            (alone,) = model.head_posteriors(model.represent([utterance], adapter)[1])
            assert alone.logp.tobytes() == one_logp.tobytes()

    def test_empty_batch_rejected(self, model):
        with pytest.raises(ValueError, match="at least one utterance"):
            model.represent([])

    def test_short_utterance_in_batch_rejected(self, model):
        with pytest.raises(ValueError, match="399 samples is shorter"):
            model.represent([sine(3200), sine(399)])


class TestWindows:
    def test_windows_cover_items_in_order(self):
        from sslasr.encoder import _WINDOW

        items = list(range(2 * _WINDOW + 3))
        got = list(windows(items))
        assert [len(w) for w in got] == [_WINDOW, _WINDOW, 3]
        assert [i for w in got for i in w] == items

    def test_reads_one_window_at_a_time(self):
        from sslasr.encoder import _WINDOW

        reads = []

        def utterances():
            for i in range(3 * _WINDOW):
                reads.append(i)
                yield i

        next(windows(utterances()))
        assert len(reads) == _WINDOW


class TestFramePosteriors:
    def test_rows_normalize_and_shift(self, cfg):
        model = SslEncoder(cfg, seed=51)
        model.attach_ctc_head(5, seed=0)
        (stream,) = model.head_posteriors(model.represent([sine(3200)])[1])
        assert len(stream.logp) == conv_frames(3200)  # one row per 20 ms frame
        assert np.allclose(np.exp(stream.logp).sum(axis=1), 1.0, atol=1e-6)

    def test_missing_head_rejected(self, cfg):
        model = SslEncoder(cfg, seed=52)
        with pytest.raises(ValueError, match="CTC head"):
            model.head_posteriors(model.represent([sine(3200)])[1])

    def test_deterministic(self, cfg):
        model = SslEncoder(cfg, seed=53)
        model.attach_ctc_head(5, seed=0)
        a = model.head_posteriors(model.represent([sine(3200)])[1])[0].logp
        b = model.head_posteriors(model.represent([sine(3200)])[1])[0].logp
        assert np.array_equal(a, b)
