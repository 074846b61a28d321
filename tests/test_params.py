import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from sslasr.container import ContainerError
from sslasr.features import FeatureMatrix, write_archive
from sslasr.nn import DuplicateParameterError, Linear, Module, Parameter, ParameterShapeError
from sslasr.params import (
    Adam,
    ParameterStore,
    make_optimizer,
    optimizer_errors,
    train_epochs,
)

from conftest import ENCODER
from containers import container_blob, entry, reader_fuzz
from oracles import ReferenceAdam, reference_train_epochs


class Small(Module):
    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.lin = Linear(rng, 3, 2, "lin")
        self.extra = Parameter("extra", rng.normal(size=(2, 2, 2)))


class TestParameterStore:
    def test_round_trip(self, tmp_path):
        module = Small(seed=1)
        store = ParameterStore.from_module(module)
        path = tmp_path / "m.spm"
        store.save(path)
        back = ParameterStore.load(path)
        assert set(back.tensors) == {"lin.w", "lin.b", "extra"}
        for name, value in store.tensors.items():
            assert np.array_equal(back.tensors[name], value)

    def test_load_into_replaces_values(self, tmp_path):
        src = Small(seed=2)
        dst = Small(seed=3)
        path = tmp_path / "m.spm"
        ParameterStore.from_module(src).save(path)
        ParameterStore.load(path).load_into(dst)
        assert np.array_equal(dst.lin.w.value, src.lin.w.value)

    def test_name_mismatch_rejected(self):
        store = ParameterStore({"other": np.zeros(2)})
        with pytest.raises(KeyError, match="mismatch"):
            store.load_into(Small())

    def test_shape_mismatch_rejected(self):
        module = Small()
        store = ParameterStore.from_module(module)
        store.tensors["lin.w"] = np.zeros((4, 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            store.load_into(module)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spm"
        path.write_bytes(b"XXXX\x00\x00\x00\x00")
        with pytest.raises(ContainerError, match="magic"):
            ParameterStore.load(path)

    def test_truncated(self, tmp_path):
        module = Small()
        path = tmp_path / "t.spm"
        ParameterStore.from_module(module).save(path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ContainerError, match="truncated"):
            ParameterStore.load(path)

    def test_trailing_bytes(self, tmp_path):
        module = Small()
        path = tmp_path / "t.spm"
        ParameterStore.from_module(module).save(path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ContainerError, match="trailing"):
            ParameterStore.load(path)

    def test_archive_is_not_a_store(self, tmp_path):
        path = tmp_path / "set.sfa"
        write_archive(path, [("u1", FeatureMatrix(np.ones((2, 3))))])
        with pytest.raises(ContainerError, match=r"entry 0 \('u1'\): payload of 4-byte items, "
                                                 r"expected float64"):
            ParameterStore.load(path)

    @pytest.mark.parametrize("tensors, message", [
        ({"a": np.empty((2**32, 0))},
         "tensor name 'a': dim 4294967296 of shape (4294967296, 0) is larger than 4294967295"),
        ({"x" * 2**16: np.zeros(1)}, "tensor name of 65536 bytes is longer than 65535"),
    ])
    def test_refused_save_keeps_the_old_store(self, tmp_path, tensors, message):
        path = tmp_path / "m.spm"
        ParameterStore.from_module(Small()).save(path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(message)):
            ParameterStore({"ok": np.ones(2), **tensors}).save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no temporary left

    @settings(max_examples=50, deadline=None)
    @given(tensors=st.dictionaries(
        st.text(max_size=6), array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3).flatmap(
            lambda shape: st.binary(min_size=8 * int(np.prod(shape)),
                                    max_size=8 * int(np.prod(shape))).map(
                lambda raw: np.frombuffer(raw, "<f8").reshape(shape))), max_size=4))
    def test_round_trip_bit_exact(self, tensors):
        """Any float64 bits, NaN payloads included, come back unchanged, and
        saving what was loaded writes the same bytes."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.spm"
            ParameterStore(tensors).save(path)
            blob = path.read_bytes()
            back = load_blob(blob)
        assert list(back.tensors) == list(tensors)
        for name, value in tensors.items():
            got = back.tensors[name]
            assert got.shape == value.shape and got.dtype == np.float64
            assert got.flags.writeable  # a fresh array, not a view of the file's bytes
            assert got.tobytes() == value.tobytes()


def quadratic_params(seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter("x", rng.normal(size=4))]


class TestOptimizers:
    def test_adam_descends_quadratic(self):
        params = quadratic_params(1)
        opt = Adam(params, lr=0.1)
        for _ in range(100):
            params[0].grad = params[0].value.copy()  # grad of 0.5 ||x||^2
            opt.step()
        assert np.linalg.norm(params[0].value) < 1e-2

    def test_make_optimizer_dispatch(self):
        opt = make_optimizer(quadratic_params(), {"optimizer": "adam", "lr": 0.25})
        assert isinstance(opt, Adam) and opt.lr == 0.25

    @pytest.mark.parametrize("cfg", [None, {}])
    def test_empty_mapping_is_adam_defaults(self, cfg):
        opt = make_optimizer(quadratic_params(), cfg)
        assert isinstance(opt, Adam) and opt.lr == 1e-3

    @pytest.mark.parametrize("cfg, error", [
        ({"optimizer": "sgd"}, "optimizer.optimizer: 'sgd' is not an optimizer here"),
        ({"optimizer": "lbfgs", "lr": 0.1}, "optimizer.optimizer: 'lbfgs'"),
        ({"optimizer": "adam", "momentum": 0.9}, "optimizer.momentum: nothing reads it"),
        ({"decay_steps": 10}, "optimizer.decay_steps: nothing reads it"),
        ({"lr": 0}, "optimizer.lr: must be a positive finite number, got 0"),
        ({"lr": -1e-3}, "optimizer.lr: must be a positive finite number"),
        ({"lr": float("nan")}, "optimizer.lr: must be a positive finite number, got nan"),
        ({"lr": float("inf")}, "optimizer.lr: must be a positive finite number, got inf"),
        ({"lr": "1e-3"}, "optimizer.lr: must be a positive finite number, got '1e-3'"),
        ({"lr": True}, "optimizer.lr: must be a positive finite number, got True"),
        ([("lr", 0.1)], "optimizer must be a mapping"),
    ])
    def test_every_error_named(self, cfg, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            make_optimizer(quadratic_params(), cfg)

    def test_all_errors_in_one_message(self):
        errors = optimizer_errors({"optimizer": "sgd", "momentum": 0.9, "lr": -1}, "am.optimizer")
        assert [e.split(":")[0] for e in errors] == [
            "am.optimizer.momentum", "am.optimizer.optimizer", "am.optimizer.lr"]
        assert optimizer_errors({"optimizer": "adam", "lr": 2}, "am.optimizer") == []


def load_blob(blob):
    """Load ``blob`` as a store; if it loads, check that saving what was
    loaded gives back the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blob.spm"
        path.write_bytes(blob)
        store = ParameterStore.load(path)
        store.save(path)
        assert path.read_bytes() == blob
        return store


def tensor_record(name_bytes, dims, payload=b""):
    return entry(name_bytes, dims, payload, itemsize=8)


def store_blob(*records):
    return container_blob(list(records))


def valid_blob():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.spm"
        ParameterStore.from_module(Small(seed=4)).save(path)
        return path.read_bytes()


VALID_BLOB = valid_blob()


class TestStoreReaderRobustness:
    (test_every_truncation_is_named, test_bit_flip_loads_or_is_named,
     test_random_blob_loads_or_is_named) = reader_fuzz(VALID_BLOB, load_blob)

    def test_non_utf8_name(self):
        with pytest.raises(ContainerError, match="utf-8"):
            load_blob(store_blob(tensor_record(b"\xff", (), bytes(8))))

    def test_dims_product_overflowing_64_bits(self):
        # 2**16 ** 4 wraps a 64-bit product to 0, matching an empty payload
        with pytest.raises(ContainerError, match="truncated"):
            load_blob(store_blob(tensor_record(b"a", (2**16,) * 4)))

    def test_empty_tensor_numpy_cannot_size(self):
        # a zero dim makes the payload empty, but the other dims overflow
        with pytest.raises(ContainerError, match="dims"):
            load_blob(store_blob(tensor_record(b"a", (2**31, 2**31, 2**31, 0))))

    def test_repeated_name(self):
        rec = tensor_record(b"a", (1,), bytes(8))
        with pytest.raises(ContainerError, match="twice"):
            load_blob(store_blob(rec, rec))


def twin_params(shapes, rng):
    """Two independent parameter lists with equal initial values."""
    values = [rng.normal(size=shape) for shape in shapes]
    return tuple([Parameter(f"p{i}", v.copy()) for i, v in enumerate(values)] for _ in range(2))


# a 0-d and a zero-size tensor ride along in every list
shape_lists = st.lists(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                       max_size=5).map(lambda shapes: [()] + shapes + [(2, 0)])


class TestFlatOptimizers:
    @settings(max_examples=60, deadline=None)
    @given(
        shapes=shape_lists,
        lr=st.floats(1e-4, 1.0),
        steps=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_tensor_reference_bit_for_bit(self, shapes, lr, steps, seed):
        rng = np.random.default_rng(seed)
        flat_params, ref_params = twin_params(shapes, rng)
        flat, ref = Adam(flat_params, lr=lr), ReferenceAdam(ref_params, lr=lr)
        for _ in range(steps):
            for p, q in zip(flat_params, ref_params):
                g = rng.normal(size=p.value.shape)
                p.grad = g
                q.grad = g.copy()
            flat.step()
            ref.step()
            for p, q in zip(flat_params, ref_params):
                assert p.value.shape == q.value.shape
                assert p.value.tobytes() == q.value.tobytes(), p.name

    @pytest.mark.parametrize("make", [lambda ps: Adam(ps),
                                      lambda ps: make_optimizer(ps, {"lr": 0.1})])
    def test_parameter_listed_twice_rejected(self, make):
        p = Parameter("x", np.zeros(3))
        with pytest.raises(DuplicateParameterError, match="'x'"):
            make([p, Parameter("y", np.zeros(2)), p])

    def test_grad_assignment_writes_into_optimizer_storage(self):
        params = [Parameter("a", np.ones(2)), Parameter("b", np.ones((1, 2)))]
        opt = Adam(params, lr=0.5)
        params[1].grad = np.array([[2.0, 3.0]])
        assert np.shares_memory(params[1].grad, opt.grad)
        assert opt.grad.tolist() == [0.0, 0.0, 2.0, 3.0]
        opt.step()
        # Adam's first step moves each weight by about the rate, against
        # its gradient's sign, and leaves a zero-gradient weight where it is
        assert params[1].value == pytest.approx(np.array([[0.5, 0.5]]), abs=1e-8)
        assert params[0].value.tolist() == [1.0, 1.0]

    def test_value_assignment_keeps_storage(self):
        # a value is written in place; assigning one fails and keeps the
        # optimizer's storage
        p = Parameter("a", np.zeros(3))
        opt = Adam([p])
        p.value[...] = np.arange(3.0)
        with pytest.raises(AttributeError):
            p.value = np.ones(3)
        assert np.shares_memory(p.value, opt.value)
        assert opt.value.tolist() == [0.0, 1.0, 2.0]

    def test_shape_mismatch_rejected(self):
        p = Parameter("a", np.zeros((2, 3)))
        Adam([p])
        with pytest.raises(ParameterShapeError, match=r"shape \(6,\) to the grad of 'a'"):
            p.grad = np.zeros(6)

    def test_zero_grad_clears_every_gradient(self):
        params = [Parameter("a", np.ones(2)), Parameter("b", np.ones(()))]
        opt = Adam(params)
        params[0].grad = np.ones(2)
        params[1].grad = np.float64(5.0)
        opt.zero_grad()
        assert not opt.grad.any()
        assert params[1].grad == 0.0


def toy_step(params, targets, rng, visits, as_tuple):
    """A step on 0.5 * s * ||x - target_i||^2 per parameter, with the
    scale s drawn from the schedule's own rng; it records each visit."""
    def step(i, epoch):
        visits.append((epoch, int(i)))
        scale = rng.random()
        loss = 0.0
        for p, target in zip(params, targets[i]):
            diff = p.value - target
            loss += 0.5 * scale * float((diff * diff).sum())
            p.grad += scale * diff
        return (loss, int(i), epoch) if as_tuple else loss
    return step


class TestTrainEpochs:
    @settings(max_examples=60, deadline=None)
    @given(
        n_items=st.integers(0, 5),
        epochs=st.integers(0, 4),
        lr=st.floats(1e-4, 1.0),
        as_tuple=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_loop_bit_for_bit(self, n_items, epochs, lr, as_tuple, seed):
        data_rng = np.random.default_rng(seed)
        shapes = [(3,), (2, 2)]
        ours, ref = twin_params(shapes, data_rng)
        targets = [[data_rng.normal(size=shape) for shape in shapes] for _ in range(n_items)]
        opt_cfg = {"optimizer": "adam", "lr": lr}

        def schedule(*args):
            history = train_epochs(*args, lambda results: {"results": results})
            return [(h["epoch"], h["results"]) for h in history]

        runs = []
        for params, run in ((ours, schedule), (ref, reference_train_epochs)):
            rng, visits = np.random.default_rng(seed + 1), []
            step = toy_step(params, targets, rng, visits, as_tuple)
            out = run(params, n_items, epochs, rng, opt_cfg, step, "toy")
            runs.append((out, visits, [p.value.tobytes() for p in params]))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == n_items * epochs

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("as_tuple", [False, True])
    def test_non_finite_loss_names_what_and_epoch(self, bad, as_tuple):
        params = quadratic_params()

        def step(i, epoch):
            loss = bad if epoch == 2 and i == 1 else 1.0
            return (loss, "extra") if as_tuple else loss

        with pytest.raises(RuntimeError, match="toy training diverged at epoch 2: loss="):
            train_epochs(params, 3, 4, np.random.default_rng(0),
                         {"optimizer": "adam", "lr": 0.1}, step, "toy training",
                         lambda results: {})


def _storage_size(arr):
    """Elements of the buffer that ``arr`` is a view into (its own if none)."""
    while arr.base is not None:
        arr = arr.base
    return arr.size


class TestStageBuffers:
    """A finished schedule leaves its parameters compact storage of their
    own, so frozen layers keep no stage's flat buffers alive."""

    @pytest.mark.parametrize("diverge", [False, True])
    def test_schedule_end_unpacks(self, diverge):
        params = [Parameter("a", np.arange(3.0)), Parameter("b", np.ones((2, 2)))]
        seen = {}

        def step(i, epoch):
            if epoch == 1 and not seen:  # mid-schedule the parameters share one buffer
                seen["storage"] = _storage_size(params[0].value)
                seen["values"] = [p.value.copy() for p in params]
            params[0].grad += 1.0
            return np.nan if diverge and epoch == 1 else 1.0

        def run():
            return train_epochs(params, 2, 3, np.random.default_rng(0),
                                {"optimizer": "adam", "lr": 0.1}, step, "toy",
                                lambda results: {})

        if diverge:
            with pytest.raises(RuntimeError, match="diverged"):
                run()
        else:
            assert run() == [{"epoch": 0}, {"epoch": 1}, {"epoch": 2}]
        assert seen["storage"] == 7
        for p, value in zip(params, seen["values"]):
            assert _storage_size(p.value) == p.value.size
            assert _storage_size(p.grad) == p.grad.size
            if diverge:  # the abort comes before any step of epoch 1
                assert p.value.tobytes() == value.tobytes()

    def test_pretrain_then_head_only_leaves_every_parameter_compact(self):
        from sslasr.encoder import EncoderConfig, finetune_ctc, pretrain

        rng = np.random.default_rng(0)
        audio = [rng.normal(0.0, 0.3, 4800) for _ in range(3)]
        model, _ = pretrain(audio, EncoderConfig(**ENCODER), epochs=1, seed=0)
        finetune_ctc([(z, [1, 2]) for z in model.encode_raw(audio)], model, 4, epochs=1,
                     seed=0, scope="head-only")
        for p in model.parameters():
            assert _storage_size(p.value) == p.value.size, p.name
            assert _storage_size(p.grad) == p.grad.size, p.name


def _pretrain(opt_cfg, rng, epochs=1):
    from sslasr.encoder import EncoderConfig, pretrain

    audio = [rng.normal(0.0, 0.3, 4800) for _ in range(3)]
    return pretrain(audio, EncoderConfig(**ENCODER), epochs=epochs, seed=0,
                    optimizer_cfg=opt_cfg)[1]


def _finetune_ctc(opt_cfg, rng, epochs=1):
    from sslasr.encoder import EncoderConfig, SslEncoder, finetune_ctc

    model = SslEncoder(EncoderConfig(**ENCODER), seed=1)
    audio = [rng.normal(0.0, 0.3, 4800) for _ in range(3)]
    return finetune_ctc([(z, [1, 2]) for z in model.encode_raw(audio)], model, 4,
                        epochs=epochs, seed=0, optimizer_cfg=opt_cfg)


def _train_adapter(opt_cfg, rng, epochs=1):
    from sslasr.bottleneck import BottleneckConfig, train_adapter

    contexts = [rng.normal(size=(6, 8)) for _ in range(3)]
    return train_adapter(contexts, BottleneckConfig(d_in=8, d_bn=4, dropout=0.1),
                         epochs=epochs, seed=0, optimizer_cfg=opt_cfg)[1]


def _train_inversion(opt_cfg, rng, epochs=1):
    from sslasr.inversion import MdnConfig, train_inversion

    pairs = [(rng.normal(size=(6, 4)), rng.normal(size=(6, 2))) for _ in range(3)]
    cfg = MdnConfig(d_in=4, d_artic=2, mixtures=2, hidden_dims=(32,))
    return train_inversion(pairs, cfg, epochs=epochs, seed=0, optimizer_cfg=opt_cfg)[1]


def _train_am(opt_cfg, rng, epochs=1):
    from sslasr.features import FeatureMatrix
    from sslasr.frame_am import AmConfig, train_am

    data = [(FeatureMatrix(rng.normal(size=(6, 3))), rng.integers(0, 4, 6))
            for _ in range(3)]
    cfg = AmConfig(offsets=(-2, -1, 0, 1, 2), hidden_dims=(64, 64))
    return train_am(data, cfg, d_feat=3, n_classes=4, epochs=epochs, seed=0,
                    optimizer_cfg=opt_cfg)[1]


TRAINERS = [_pretrain, _finetune_ctc, _train_adapter, _train_inversion, _train_am]


class TestEpochLog:
    @pytest.mark.parametrize("train", TRAINERS)
    def test_one_line_per_epoch(self, train, caplog):
        """Every trainer's history is made and logged by the schedule: one
        INFO line on the ``sslasr.params`` logger per epoch, ending with
        that epoch's record."""
        caplog.set_level(logging.INFO, logger="sslasr.params")
        history = train(None, np.random.default_rng(0), epochs=3)
        lines = [r.getMessage() for r in caplog.records if r.name == "sslasr.params"]
        assert [h["epoch"] for h in history] == [0, 1, 2]
        assert len(lines) == 3
        assert all(line.endswith(str(h)) for line, h in zip(lines, history))


class TestDivergenceAbort:
    @pytest.mark.parametrize("train", TRAINERS)
    def test_overflowing_rate_aborts(self, train):
        # one Adam step moves every weight by about the rate, so the next
        # forward pass overflows
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="diverged"):
            train({"optimizer": "adam", "lr": 1e200}, np.random.default_rng(0))
