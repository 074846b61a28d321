"""Micro-benchmark of the training schedule at pretraining size: the
default-config encoder's 40 tensors, 111,824 parameters. It times one
``Adam.step`` over them, and one epoch of ``params.train_epochs`` over 72
items (the recipe's training set) with a step that does no work, beside
the same epoch written out by hand. The two epochs should cost the same:
the schedule adds nothing to the optimizer calls it makes.

    python -m pytest tests/bench_train.py

Tier-1 does not collect this file: its name does not start with test_.
"""

import numpy as np
import pytest

from sslasr.config import DEFAULT_CONFIG
from sslasr.encoder import EncoderConfig, SslEncoder
from sslasr.params import Adam, make_optimizer, train_epochs

N_ITEMS = 72
ADAM = {"optimizer": "adam", "lr": 1e-3}


@pytest.fixture(scope="module")
def params():
    model = SslEncoder(EncoderConfig(**DEFAULT_CONFIG["encoder"]), seed=0)
    params = model.parameters()
    assert sum(p.value.size for p in params) == 111_824
    return params


def no_work(i, epoch):
    return 0.0


def schedule_epoch(params):
    rng = np.random.default_rng(0)
    return train_epochs(params, N_ITEMS, 1, rng, ADAM, no_work, "bench",
                        lambda losses: {"losses": losses})


def hand_epoch(params):
    rng = np.random.default_rng(0)
    opt = make_optimizer(params, ADAM)
    losses = []
    for i in rng.permutation(N_ITEMS):
        opt.zero_grad()
        loss = no_work(i, 0)
        if not np.isfinite(loss):
            raise RuntimeError("diverged")
        losses.append(loss)
        opt.step()
    return [{"epoch": 0, "losses": losses}]


@pytest.mark.benchmark(group="adam-step")
def test_adam_step(benchmark, params):
    opt = Adam(params)
    opt.grad[:] = np.random.default_rng(1).normal(size=opt.grad.size)
    benchmark(opt.step)
    assert opt.t > 0


@pytest.mark.benchmark(group="train-epoch")
def test_train_epochs(benchmark, params):
    assert benchmark(schedule_epoch, params) == [{"epoch": 0, "losses": [0.0] * N_ITEMS}]


@pytest.mark.benchmark(group="train-epoch")
def test_hand_written_epoch(benchmark, params):
    assert benchmark(hand_epoch, params) == [{"epoch": 0, "losses": [0.0] * N_ITEMS}]
