import math

import numpy as np
import pytest

from sslasr.features import FeatureMatrix
from sslasr.inversion import MdnConfig, MdnModel, mdn_nll_step, mdn_predict, train_inversion
from sslasr.params import ParameterStore

from gradcheck import finite_difference_check
from oracles import mdn_nll


def emitting(weights, means):
    """An MdnModel, and its input rows, whose mixture for row t has the
    weights ``weights[t]`` (T, M) and means ``means[t]`` (T, M, D), every
    standard deviation 1: no hidden layer, one-hot inputs, head weights
    set to the log weights and the means."""
    weights, means = np.asarray(weights, float), np.asarray(means, float)
    t, m, d = means.shape
    model = MdnModel(MdnConfig(d_in=t, d_artic=d, mixtures=m, hidden_dims=()), seed=0)
    heads = ((model.head_w, np.log(weights)), (model.head_mu, means.reshape(t, m * d)),
             (model.head_s, np.zeros((t, m * d))))
    for head, w in heads:
        head.w.value[...] = w
        head.b.value[...] = 0.0
    return model, FeatureMatrix(np.eye(t))


class TestMixtureValidity:
    def test_forward_emits_valid_mixtures(self):
        model = MdnModel(MdnConfig(d_in=5, d_artic=3, mixtures=3, hidden_dims=(32,)), seed=0)
        weights, means, stds = model.forward_arrays(np.random.default_rng(0).normal(size=(6, 5)))
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)
        assert (stds > 0).all()
        assert means.shape == stds.shape == (6, 3, 3)

    def test_forward_deterministic(self):
        model = MdnModel(MdnConfig(d_in=5, d_artic=3, mixtures=2, hidden_dims=(32,)), seed=1)
        feats = FeatureMatrix(np.random.default_rng(1).normal(size=(4, 5)))
        a = mdn_predict(feats, model)
        b = mdn_predict(feats, model)
        assert np.array_equal(a.data, b.data)

    def test_width_mismatch_rejected(self):
        model = MdnModel(MdnConfig(d_in=5, d_artic=3, mixtures=2, hidden_dims=(32,)), seed=2)
        with pytest.raises(ValueError, match="does not match"):
            mdn_predict(FeatureMatrix(np.zeros((3, 4))), model)

    def test_invalid_mixtures_rejected(self):
        """Softmax and exp make a valid mixture of finite logits and
        log-stds only; a non-finite one raises before any is emitted."""
        for head in ("head_w", "head_s"):
            model = MdnModel(MdnConfig(d_in=5, d_artic=3, mixtures=2, hidden_dims=()), seed=3)
            getattr(model, head).b.value[0] = np.inf
            with pytest.raises(RuntimeError, match="mixture outputs are not finite"):
                mdn_predict(FeatureMatrix(np.zeros((3, 5))), model)


class TestNll:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(3)
        means = rng.normal(size=(4, 1, 3))
        stds = np.exp(0.2 * rng.normal(size=(4, 1, 3)))
        targets = rng.normal(size=(4, 3))
        z = (targets[:, None, :] - means) / stds
        expected = np.mean(
            0.5 * (z * z).sum(axis=(1, 2))
            + np.log(stds).sum(axis=(1, 2))
            + 1.5 * math.log(2 * math.pi)
        )
        assert mdn_nll(np.ones((4, 1)), means, stds, targets) == pytest.approx(expected,
                                                                              abs=1e-12)

    def test_target_at_dominant_mode(self):
        # NLL at the mode of a near-deterministic dominant component:
        # sum_d log(sigma_d sqrt(2 pi)) - log w_dominant
        stds = np.full((1, 2, 3), 0.01)
        means = np.stack([np.zeros((1, 3)), np.full((1, 3), 50.0)], axis=1)
        nll = mdn_nll([[0.999, 0.001]], means, stds, np.zeros((1, 3)))
        expected = 3 * math.log(0.01 * math.sqrt(2 * math.pi)) - math.log(0.999)
        assert nll == pytest.approx(expected, abs=1e-9)

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(4)
        w = np.array([[0.3, 0.7]])
        mu = rng.normal(size=(1, 2, 3))
        sd = np.exp(0.1 * rng.normal(size=(1, 2, 3)))
        targets = rng.normal(size=(1, 3))
        a = mdn_nll(w, mu, sd, targets)
        b = mdn_nll(w[:, ::-1], mu[:, ::-1], sd[:, ::-1], targets)
        assert a == pytest.approx(b, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        model = MdnModel(MdnConfig(d_in=4, d_artic=3, mixtures=1, hidden_dims=(32,)), seed=0)
        with pytest.raises(ValueError, match="do not match"):
            mdn_nll_step(model, np.zeros((2, 4)), np.zeros((3, 3)))

    def test_gradient_matches_finite_differences(self):
        model = MdnModel(MdnConfig(d_in=4, d_artic=3, mixtures=2, hidden_dims=(8,)), seed=5)
        x = np.random.default_rng(6).normal(size=(6, 4))
        y = np.random.default_rng(7).normal(size=(6, 3))

        def loss():
            return mdn_nll(*model.forward_arrays(x), y)

        model.zero_grad()
        mdn_nll_step(model, x, y)
        worst, info = finite_difference_check(loss, model.parameters(), n_coords=100)
        assert worst <= 1e-4, info


class TestPredict:
    def test_single_component_returns_mean(self):
        rng = np.random.default_rng(8)
        means = rng.normal(size=(3, 1, 2))
        model, feats = emitting(np.ones((3, 1)), means)
        pred = mdn_predict(feats, model)
        assert np.allclose(pred.data, means[:, 0, :], atol=1e-6)

    def test_symmetric_mixture_predicts_zero(self):
        means = np.stack([-np.ones((3, 2)), np.ones((3, 2))], axis=1)
        model, feats = emitting(np.full((3, 2), 0.5), means)
        assert np.allclose(mdn_predict(feats, model).data, 0.0)

    def test_matches_monte_carlo_mean(self):
        # sampling oracle: draw from the mixture and compare the average
        rng = np.random.default_rng(9)
        w = np.array([[0.2, 0.8]])
        mu = np.array([[[-1.0, 2.0], [3.0, -0.5]]])
        sd = np.array([[[0.5, 1.0], [1.5, 0.3]]])
        model, feats = emitting(w, mu)
        n = 100_000
        comp = rng.choice(2, size=n, p=w[0])
        draws = mu[0, comp] + sd[0, comp] * rng.normal(size=(n, 2))
        mc_mean = draws.mean(axis=0)
        stderr = draws.std(axis=0) / math.sqrt(n)
        pred = mdn_predict(feats, model).data[0]
        assert np.all(np.abs(pred - mc_mean) <= 3 * stderr)

    def test_width_is_d_artic_for_any_mixture_count(self):
        for m in (1, 2, 5):
            model, feats = emitting(np.full((4, m), 1.0 / m), np.zeros((4, m, 6)))
            assert mdn_predict(feats, model).dim == 6


class TestTrainInversion:
    def test_zero_epochs_is_init(self):
        cfg = MdnConfig(d_in=4, d_artic=2, mixtures=2, hidden_dims=(32,))
        data = [(np.random.default_rng(0).normal(size=(5, 4)),
                 np.random.default_rng(1).normal(size=(5, 2)))]
        model, history = train_inversion(data, cfg, epochs=0, seed=11)
        fresh = MdnModel(cfg, seed=np.random.SeedSequence(11).spawn(2)[0])
        a = ParameterStore.from_module(model).tensors
        b = ParameterStore.from_module(fresh).tensors
        assert history == []
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_unequal_pair_lengths_named(self):
        rng = np.random.default_rng(16)
        data = [(rng.normal(size=(5, 4)), rng.normal(size=(5, 2))),
                (rng.normal(size=(7, 4)), rng.normal(size=(6, 2)))]
        with pytest.raises(ValueError, match=r"pair 1: 7 representation frames but 6 "
                                             r"articulatory frames"):
            train_inversion(data, MdnConfig(d_in=4, d_artic=2, mixtures=2, hidden_dims=(32,)),
                            epochs=1, seed=11)

    def test_linear_map_recovery_within_noise_floor(self):
        # targets are a fixed linear map of the inputs plus noise; the
        # trained predictor must land within 2x the noise floor
        rng = np.random.default_rng(12)
        d_in, d_a, sigma = 8, 3, 0.05
        a = rng.normal(size=(d_in, d_a)) / np.sqrt(d_in)
        b = rng.normal(size=d_a) * 0.1
        data = []
        for _ in range(20):
            x = rng.normal(size=(10, d_in))
            y = x @ a + b + sigma * rng.normal(size=(10, d_a))
            data.append((x, y))
        cfg = MdnConfig(d_in=d_in, d_artic=d_a, mixtures=2, hidden_dims=(32,))
        model, history = train_inversion(data, cfg, epochs=200, seed=13,
                                         optimizer_cfg={"optimizer": "adam", "lr": 5e-3})
        assert history[-1]["nll"] < history[0]["nll"]
        sq_err = n = 0.0
        for x, y in data:
            weights, _, stds = model.forward_arrays(x)
            assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)
            assert (stds > 0).all()
            pred = mdn_predict(FeatureMatrix(x), model).data
            sq_err += float(((pred - y) ** 2).sum())
            n += y.size
        rmse = math.sqrt(sq_err / n)
        assert rmse <= 2 * sigma

    def test_cross_domain_shape_contract(self):
        # train on one set of representations, apply to another: output is
        # T x d_artic at the input frame rate
        rng = np.random.default_rng(14)
        cfg = MdnConfig(d_in=4, d_artic=2, mixtures=2, hidden_dims=(8,))
        data = [(rng.normal(size=(6, 4)), rng.normal(size=(6, 2)))]
        model, _ = train_inversion(data, cfg, epochs=3, seed=15)
        target_feats = FeatureMatrix(rng.normal(size=(9, 4)))
        pred = mdn_predict(target_feats, model)
        assert pred.data.shape == (9, 2)
