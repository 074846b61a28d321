import json
import re
from pathlib import Path

import pytest

from sslasr import pipeline
from sslasr.cli import main
from sslasr.config import load_config, merge_config

ROOT = Path(__file__).resolve().parent.parent


class TestUnknownKeys:
    @pytest.mark.parametrize("override, path", [
        ({"finetune": {"use_adapter": False}}, "finetune.use_adapter"),
        ({"am": {"alignment": "ctc"}}, "am.alignment"),
        ({"pretrain": {"hard": False}}, "pretrain.hard"),
        ({"sede": 1}, "sede"),
        ({"mdn": {"epoch": 3}}, "mdn.epoch"),
        ({"decode": {"weight": "3:2"}}, "decode.weight"),
        ({"rescore": {"gamma": 1.0}}, "rescore.gamma"),
        ({"finetune": {"stages": [{"epochs": 1, "scope": "head-only"},
                                  {"epochs": 1, "scop": "head-only"}]}},
         "finetune.stages[1].scop"),
        # the corpus, encoder and bottleneck keys are their dataclass fields
        ({"corpus": {"sample_rate": 8000}}, "corpus.sample_rate"),
        ({"encoder": {"sample_rate": 8000}}, "encoder.sample_rate"),
        ({"bottleneck": {"kernel": 3}}, "bottleneck.kernel"),
        ({"bottleneck": {"stride": 3}}, "bottleneck.stride"),
        ({"corpus": {"foo": 1}}, "corpus.foo"),
    ])
    def test_rejected_by_dotted_path(self, override, path):
        with pytest.raises(ValueError, match=re.escape(f"nothing reads: {path}") + "$"):
            load_config(overrides=override)

    def test_adapter_input_width_is_the_encoders(self):
        with pytest.raises(ValueError, match=re.escape("nothing reads: bottleneck.d_in") + "$"):
            load_config(overrides={"bottleneck": {"d_in": 32}})
        assert pipeline.bottleneck_config(load_config(), 48).d_in == 48

    def test_dataclass_fields_outside_the_defaults_load(self):
        load_config(overrides={"corpus": {"speaker_spread": 0.05},
                               "encoder": {"position_scale": 0.2}})

    def test_config_file_fails_through_the_cli(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"finetune": {"use_adapter": True}}))
        assert main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 1
        assert "finetune.use_adapter" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_benchmark_configs_load(self):
        specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
        for spec in specs.values():
            if isinstance(spec, dict) and "config" in spec:
                load_config(overrides=spec["config"])
                load_config(overrides=merge_config(spec["config"], spec["tiny"]))


class TestStructure:
    """A section, stage or repetition table that is not a mapping, or
    stages that are not a list, fail by dotted path in one ValueError."""

    @pytest.mark.parametrize("override, error", [
        ({"am": 5}, "am: must be a mapping, got 5"),
        ({"corpus": None}, "corpus: must be a mapping, got None"),
        ({"finetune": {"stages": 3}}, "finetune.stages: must be a list, got 3"),
        ({"finetune": {"stages": [{"epochs": 1}, "head-only"]}},
         "finetune.stages[1]: must be a mapping, got 'head-only'"),
        ({"corpus": {"test_reps": 2}}, "corpus.test_reps: must be a mapping, got 2"),
    ])
    def test_rejected_by_dotted_path(self, override, error):
        with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
            load_config(overrides=override)

    def test_every_error_in_one_message(self):
        with pytest.raises(ValueError) as err:
            load_config(overrides={"am": 5, "decode": [], "finetune": {"stages": 3}})
        assert str(err.value).split("; ") == [
            "am: must be a mapping, got 5", "decode: must be a mapping, got []",
            "finetune.stages: must be a list, got 3",
        ]


class TestConditions:
    """The repetition tables are keyed by the corpus conditions only."""

    @pytest.mark.parametrize("key", ["train_reps", "test_reps"])
    def test_other_names_rejected_by_dotted_path(self, key):
        with pytest.raises(ValueError, match=re.escape(
                f"corpus.{key}.tgt: not a condition (the conditions are source, target)")):
            load_config(overrides={"corpus": {key: {"source": 2, "tgt": 1}}})

    def test_conditions_load(self):
        cfg = load_config(overrides={"corpus": {"train_reps": {"target": 0}}})
        assert cfg["corpus"]["train_reps"] == {"source": 2, "target": 0}


class TestCounts:
    """Every epoch count is an int >= 0 and ``decode.nbest`` an int >= 1,
    checked when the config loads."""

    @pytest.mark.parametrize("override, path, value, low", [
        ({"pretrain": {"epochs": -1}}, "pretrain.epochs", -1, 0),
        ({"finetune": {"adapter_init_epochs": 2.0}}, "finetune.adapter_init_epochs", 2.0, 0),
        ({"finetune": {"stages": [{"epochs": 1}, {"epochs": "5"}]}},
         "finetune.stages[1].epochs", "5", 0),
        ({"am": {"epochs": "x"}}, "am.epochs", "x", 0),
        ({"mdn": {"epochs": True}}, "mdn.epochs", True, 0),
        ({"decode": {"nbest": 0}}, "decode.nbest", 0, 1),
        ({"decode": {"nbest": -2}}, "decode.nbest", -2, 1),
        ({"decode": {"nbest": True}}, "decode.nbest", True, 1),
        ({"decode": {"nbest": None}}, "decode.nbest", None, 1),
    ])
    def test_rejected_by_dotted_path(self, override, path, value, low):
        with pytest.raises(ValueError, match=re.escape(f"{path}: must be an int >= {low}, "
                                                       f"got {value!r}")):
            load_config(overrides=override)

    def test_bounds_accepted(self):
        cfg = load_config(overrides={"pretrain": {"epochs": 0}, "decode": {"nbest": 1},
                                     "finetune": {"stages": [{"scope": "head-only"}]}})
        assert (cfg["pretrain"]["epochs"], cfg["decode"]["nbest"]) == (0, 1)

    def test_every_error_in_one_message(self):
        with pytest.raises(ValueError) as err:
            load_config(overrides={"corpus": {"sample_rate": 8000},
                                   "encoder": {"sample_rate": 8000},
                                   "bottleneck": {"kernel": 3, "stride": 3},
                                   "decode": {"nbest": 0}, "am": {"epochs": "x"},
                                   "pretrain": {"epochs": -1}})
        assert str(err.value).split("; ") == [
            "config keys that nothing reads: corpus.sample_rate, encoder.sample_rate, "
            "bottleneck.kernel, bottleneck.stride",
            "pretrain.epochs: must be an int >= 0, got -1",
            "am.epochs: must be an int >= 0, got 'x'",
            "decode.nbest: must be an int >= 1, got 0",
        ]


class TestFinetuneScopes:
    """Every fine-tuning scope is checked when the config loads, by the
    parser ``encoder.trainable_parameters`` uses."""

    @pytest.mark.parametrize("scope, error", [
        ("head_only", "unknown update scope 'head_only'"),
        ("first-x-blocks", "unknown update scope 'first-x-blocks'"),
        ("first--1-blocks", "unknown update scope 'first--1-blocks'"),
        (3, "unknown update scope 3"),
        ("first-0-blocks", "update scope 'first-0-blocks': N must be in 1..2"),
        ("first-9-blocks", "update scope 'first-9-blocks': N must be in 1..2"),
    ])
    def test_rejected_by_dotted_path(self, scope, error):
        stages = [{"epochs": 1, "scope": "head-only"}, {"epochs": 1, "scope": scope}]
        with pytest.raises(ValueError, match=re.escape(f"finetune.stages[1].scope: {error}")):
            load_config(overrides={"finetune": {"stages": stages}})

    @pytest.mark.parametrize("scope", ["all", "no-feature-encoder", "head-only",
                                       "first-1-blocks", "first-2-blocks"])
    def test_accepted(self, scope):
        load_config(overrides={"finetune": {"stages": [{"scope": scope}]}})

    def test_block_count_read_from_the_encoder_section(self):
        load_config(overrides={"encoder": {"n_blocks": 3},
                               "finetune": {"stages": [{"scope": "first-3-blocks"}]}})


class TestOptimizerMappings:
    """Every optimizer mapping is checked when the config loads, each
    error named by its dotted path."""

    @pytest.mark.parametrize("override, error", [
        ({"pretrain": {"optimizer": {"momentum": 0.9}}},
         "pretrain.optimizer.momentum: nothing reads it"),
        ({"am": {"optimizer": {"decay_steps": 100}}},
         "am.optimizer.decay_steps: nothing reads it"),
        ({"finetune": {"stages": [{"epochs": 1, "optimizer": {"optimizer": "sgd"}}]}},
         "finetune.stages[0].optimizer.optimizer: 'sgd' is not an optimizer here"),
        ({"finetune": {"optimizer": {"optimizer": "adam", "lr": 1e-3}}},
         "config keys that nothing reads: finetune.optimizer"),
        ({"finetune": {"adapter_init_optimizer": {"lr": -1.0}}},
         "finetune.adapter_init_optimizer.lr: must be a positive finite number, got -1.0"),
        ({"mdn": {"optimizer": None}}, "mdn.optimizer must be a mapping"),
    ])
    def test_rejected_by_dotted_path(self, override, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            load_config(overrides=override)

    def test_every_error_in_one_message(self):
        with pytest.raises(ValueError) as err:
            load_config(overrides={"sede": 1, "am": {"optimizer": {"optimizer": "sgd"}},
                                   "mdn": {"optimizer": {"momentum": 0.5}}})
        assert str(err.value).split("; ") == [
            "config keys that nothing reads: sede",
            "am.optimizer.optimizer: 'sgd' is not an optimizer here (Adam is the only one)",
            "mdn.optimizer.momentum: nothing reads it",
        ]

    def test_stage_without_optimizer_loads(self):
        cfg = load_config(overrides={"finetune": {"stages": [{"scope": "head-only"}]}})
        assert cfg["finetune"]["stages"] == [{"scope": "head-only"}]

    def test_fails_before_training(self, tmp_path, capsys):
        cfg = tmp_path / "sgd.json"
        cfg.write_text(json.dumps({"pretrain": {"optimizer": {"optimizer": "sgd", "lr": 1e-5,
                                                             "momentum": 0.9}}}))
        out = tmp_path / "pre.spm"
        assert main(["pretrain", "--config", str(cfg), "--corpus", str(tmp_path / "nowhere"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "pretrain.optimizer.momentum" in err and "pretrain.optimizer.optimizer" in err
        assert not out.exists()
