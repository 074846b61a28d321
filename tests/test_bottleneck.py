import numpy as np
import pytest

from sslasr.bottleneck import (
    BottleneckAdapter,
    BottleneckConfig,
    reconstruction_loss,
    train_adapter,
)
from sslasr.params import ParameterStore

from gradcheck import finite_difference_check


class TestShapeContract:
    @pytest.mark.parametrize("t", [1, 7, 50])
    def test_paper_scale_shapes(self, t):
        # d_in 1024 -> bottleneck 256 at twice the rate, restored at the input rate
        adapter = BottleneckAdapter(BottleneckConfig(d_in=1024, d_bn=256, dropout=0.1), seed=0)
        bn, restored = adapter.forward_arrays(np.random.default_rng(t).normal(size=(t, 1024)))
        assert bn.shape == (2 * t, 256)
        assert restored.shape == (t, 1024)

    def test_deconv_doubles_exactly(self):
        adapter = BottleneckAdapter(BottleneckConfig(d_in=8, d_bn=4, dropout=0.1), seed=1)
        for t in (1, 3, 9):
            bn, restored = adapter.forward_arrays(np.random.default_rng(t).normal(size=(t, 8)))
            assert bn.shape[0] == 2 * t
            assert restored.shape[0] == t

    def test_width_validation(self):
        adapter = BottleneckAdapter(BottleneckConfig(d_in=8, d_bn=4, dropout=0.1), seed=1)
        with pytest.raises(ValueError, match="expected"):
            adapter.forward_arrays(np.zeros((3, 9)))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="smaller"):
            BottleneckConfig(d_in=16, d_bn=16, dropout=0.1)


class TestExtractionDeterminism:
    def test_repeated_extraction_identical(self):
        adapter = BottleneckAdapter(BottleneckConfig(d_in=12, d_bn=6, dropout=0.5), seed=2)
        x = np.random.default_rng(0).normal(size=(5, 12))
        a_bn, a_res = adapter.forward_arrays(x)
        b_bn, b_res = adapter.forward_arrays(x)
        assert np.array_equal(a_bn, b_bn)
        assert np.array_equal(a_res, b_res)

    def test_dropout_active_only_with_rng(self):
        adapter = BottleneckAdapter(BottleneckConfig(d_in=12, d_bn=6, dropout=0.5), seed=2)
        x = np.random.default_rng(0).normal(size=(5, 12))
        plain, _ = adapter.forward_arrays(x)
        dropped, _ = adapter.forward_arrays(x, rng=np.random.default_rng(1))
        assert not np.array_equal(plain, dropped)


class TestTraining:
    def test_zero_epochs_is_initialization(self):
        cfg = BottleneckConfig(d_in=10, d_bn=5, dropout=0.0)
        data = [np.random.default_rng(i).normal(size=(4, 10)) for i in range(3)]
        adapter, history = train_adapter(data, cfg, epochs=0, seed=6)
        fresh = BottleneckAdapter(cfg, seed=np.random.SeedSequence(6).spawn(2)[0])
        a = ParameterStore.from_module(adapter).tensors
        b = ParameterStore.from_module(fresh).tensors
        assert history == []
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_reconstruction_halves(self):
        cfg = BottleneckConfig(d_in=10, d_bn=5, dropout=0.0)
        rng = np.random.default_rng(7)
        data = [rng.normal(size=(12, 10)) for _ in range(8)]
        adapter, history = train_adapter(
            data, cfg, epochs=50, seed=8, optimizer_cfg={"optimizer": "adam", "lr": 3e-3}
        )
        assert history[-1]["mse"] < 0.5 * history[0]["mse"]

    def test_gradient_matches_finite_differences(self):
        cfg = BottleneckConfig(d_in=10, d_bn=5, dropout=0.0)
        adapter = BottleneckAdapter(cfg, seed=9)
        x = np.random.default_rng(3).normal(size=(6, 10))

        def loss():
            _, restored = adapter.forward_arrays(x)
            diff = restored - x
            return float((diff * diff).mean())

        adapter.zero_grad()
        reconstruction_loss(adapter, x)
        worst, info = finite_difference_check(loss, adapter.parameters(), n_coords=100)
        assert worst <= 1e-4, info
