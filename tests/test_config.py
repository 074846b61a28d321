import json
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslasr import pipeline
from sslasr.bottleneck import BottleneckConfig
from sslasr.cli import main
from sslasr.config import DEFAULT_CONFIG, STAGE_DEFAULTS, load_config, merge_config
from sslasr.corpus import CorpusConfig
from sslasr.decoder import parse_weight_ratio
from sslasr.encoder import EncoderConfig, scope_blocks
from sslasr.features import compute_fbank
from sslasr.frame_am import AmConfig
from sslasr.inversion import MdnConfig

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

    def test_fixed_settings_rejected_by_dotted_path(self):
        """The tone range, speaker spread, CNN stack and position scale are
        module constants, not config keys."""
        with pytest.raises(ValueError, match="^" + re.escape(
                "config keys that nothing reads: corpus.tone_low_hz, corpus.tone_high_hz, "
                "corpus.speaker_spread, encoder.conv_layers, encoder.position_scale") + "$"):
            load_config(overrides={
                "corpus": {"tone_low_hz": 400.0, "tone_high_hz": 3400.0, "speaker_spread": 0.02},
                "encoder": {"conv_layers": [[32, 80, 80], [32, 5, 4]], "position_scale": 0.3}})

    def test_config_file_fails_through_the_cli(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"finetune": {"use_adapter": True}}))
        assert main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 1
        assert "finetune.use_adapter" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_benchmark_configs_load(self):
        """The benchmark json-dumps the loaded config (its code digest) and
        reads each fine-tuning stage's scope from it."""
        specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
        for spec in specs.values():
            if isinstance(spec, dict) and "config" in spec:
                cfg = load_config(overrides=spec["config"])
                assert type(cfg) is dict and json.loads(json.dumps(cfg)) == cfg
                assert all("scope" in stage for stage in cfg["finetune"]["stages"])
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
            "finetune.stages: must be a list, got 3", "am: must be a mapping, got 5",
            "decode: must be a mapping, got []",
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


class TestRepetitions:
    """Each repetition count is an int >= 0 and each table sums to >= 1."""

    @pytest.mark.parametrize("override, error", [
        ({"train_reps": {"source": "2"}}, "corpus.train_reps.source: must be an int >= 0, got '2'"),
        ({"test_reps": {"source": -1, "target": 0}},
         "corpus.test_reps.source: must be an int >= 0, got -1"),
        ({"train_reps": {"source": 0, "target": 0}},
         "corpus.train_reps: need at least one repetition, got {'source': 0, 'target': 0}"),
        ({"test_reps": {"source": 0, "target": 0}},
         "corpus.test_reps: need at least one repetition, got {'source': 0, 'target': 0}"),
    ])
    def test_rejected_by_dotted_path(self, override, error):
        with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
            load_config(overrides={"corpus": override})


class TestScalars:
    """Every other value is checked by its default's type when the config
    loads, and each section's dataclass is built there, its errors named
    by section and field."""

    @pytest.mark.parametrize("override, error", [
        ({"seed": "1234"}, "seed: must be an int >= 0, got '1234'"),
        ({"seed": -1}, "seed: must be an int >= 0, got -1"),
        ({"am": {"hidden_dims": "64"}}, "am.hidden_dims: must be a list, got '64'"),
        ({"am": {"hidden_dims": [64, 0]}}, "am.hidden_dims[1]: must be an int >= 1, got 0"),
        ({"am": {"offsets": [-1, 0.5]}}, "am.offsets[1]: must be an int, got 0.5"),
        ({"mdn": {"hidden_dims": [True]}}, "mdn.hidden_dims[0]: must be an int >= 1, got True"),
        ({"mdn": {"map_noise": -0.05}}, "mdn.map_noise: must be a number >= 0.0, got -0.05"),
        ({"rescore": {"alpha": "2"}}, "rescore.alpha: must be a number, got '2'"),
        ({"encoder": {"mask_prob": None}}, "encoder.mask_prob: must be a number, got None"),
        ({"encoder": {"n_heads": 0}}, "encoder.n_heads: must be an int >= 1, got 0"),
        ({"corpus": {"n_words": 3}}, "corpus.n_words: need at least 4 words"),
        ({"encoder": {"n_heads": 3}}, "encoder.n_heads: must divide d_model (64), got 3"),
        ({"bottleneck": {"d_bn": 64}},
         "bottleneck.d_bn: must be smaller than d_in 64 (encoder.d_model)"),
        ({"bottleneck": {"dropout": 1.0}}, "bottleneck.dropout: rate must lie in [0, 1), got 1.0"),
        ({"am": {"offsets": [1, 0]}}, "am.offsets: must be sorted, unique and nonempty, got (1, 0)"),
        ({"mdn": {"d_artic": 0}}, "mdn.d_artic: must be an int >= 1, got 0"),
        # each of these loaded, then failed after fine-tuning or while the
        # corpus was generated
        ({"finetune": {"stages": []}},
         "finetune.stages: need at least one stage (fine-tuning attaches the CTC head), "
         "got []"),
        ({"corpus": {"tone_ms": 0}},
         "corpus.tone_ms: must be at least 0.5 (a tone's 8-sample ramps), got 0"),
        ({"corpus": {"tone_ms": -5.0}},
         "corpus.tone_ms: must be at least 0.5 (a tone's 8-sample ramps), got -5.0"),
        ({"corpus": {"edge_ms": -40.0}}, "corpus.edge_ms: must be >= 0.0, got -40.0"),
        ({"corpus": {"target_tempo": 0}}, "corpus.target_tempo: must be > 0.0, got 0"),
        ({"corpus": {"tone_ms": 0.5, "edge_ms": 0.0}},
         "corpus.tone_ms: 3 tones of 0.5 ms between edges of 0.0 ms (target_tempo 0.88) make "
         "utterances of 24 samples, shorter than one 400-sample (25 ms) filterbank window"),
        ({"corpus": {"edge_ms": float("inf")}}, "corpus.edge_ms: must be finite, got inf"),
        ({"corpus": {"target_tempo": 5e-324}},
         "corpus.tone_ms: 3 tones of 120.0 ms between edges of 40.0 ms (target_tempo 5e-324) "
         "make utterances of unbounded length"),
        # each of these loaded: no number may be NaN or infinite, and the
        # signal levels are at least 0
        ({"corpus": {"amplitude": float("nan")}}, "corpus.amplitude: must be finite, got nan"),
        ({"corpus": {"noise_rms": -1.0}}, "corpus.noise_rms: must be a number >= 0.0, got -1.0"),
        ({"corpus": {"target_noise_rms": -0.1}},
         "corpus.target_noise_rms: must be a number >= 0.0, got -0.1"),
        ({"corpus": {"target_tilt": float("inf")}}, "corpus.target_tilt: must be finite, got inf"),
        ({"corpus": {"target_tilt": -float("inf")}},
         "corpus.target_tilt: must be finite, got -inf"),
        ({"mdn": {"map_noise": float("inf")}}, "mdn.map_noise: must be finite, got inf"),
        ({"rescore": {"beta": float("nan")}}, "rescore.beta: must be finite, got nan"),
        ({"seed": float("nan")}, "seed: must be an int >= 0, got nan"),
        # an int past a float's range: the first loaded, the second failed
        # with a bare OverflowError when the weights were checked
        ({"corpus": {"amplitude": 10**400}},
         "corpus.amplitude: must be finite, got an int too large for a float"),
        ({"rescore": {"alpha": 10**400}},
         "rescore.alpha: must be finite, got an int too large for a float"),
        # each of these loaded, then building the model failed with numpy's
        # bare "Maximum allowed dimension exceeded"
        ({"am": {"hidden_dims": [10**20]}},
         "am.hidden_dims[0]: must be an int <= 4294967295, the largest dim a parameter "
         "store holds, got 100000000000000000000"),
        ({"encoder": {"d_model": 2**62}},
         "encoder.d_model: must be an int <= 4294967295, the largest dim a parameter store "
         f"holds, got {2**62}"),
    ])
    def test_rejected_by_dotted_path(self, override, error):
        with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
            load_config(overrides=override)

    def test_seed_has_no_upper_bound(self):
        assert load_config(overrides={"seed": 2**40})["seed"] == 2**40

    def test_nan_literal_in_a_file_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"corpus": {"amplitude": NaN, "noise_rms": Infinity}}')
        with pytest.raises(ValueError, match="^" + re.escape(
                "corpus.amplitude: must be finite, got nan; "
                "corpus.noise_rms: must be finite, got inf") + "$"):
            load_config(path)

    @pytest.mark.parametrize("bound", [{"tone_ms": 0.5}, {"edge_ms": 0.0}])
    def test_tone_and_edge_bounds_generate_a_corpus(self, tmp_path, bound):
        cfg = load_config(overrides={"corpus": {
            **bound, "n_words": 4, "n_speakers": 1,
            "train_reps": {"source": 1, "target": 1}, "test_reps": {"source": 1}}})
        pipeline.generate_corpus(tmp_path, cfg)
        corpus = pipeline.Corpus(tmp_path)
        assert all(compute_fbank(corpus.audio(r)).n_frames for r in corpus.manifest)

    def test_null_annealing_floor_rejected(self):
        """A fixed temperature is gumbel_temperature_min equal to tau."""
        with pytest.raises(ValueError, match="^" + re.escape(
                "encoder.gumbel_temperature_min: must be a number, got None") + "$"):
            load_config(overrides={"encoder": {"gumbel_temperature_min": None}})

    def test_bad_section_fails_before_pretraining(self, tmp_path, capsys):
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps({"bottleneck": {"d_bn": 64}}))
        out = tmp_path / "pre.spm"
        assert main(["pretrain", "--config", str(cfg), "--corpus", str(tmp_path / "nowhere"),
                     "--out", str(out)]) == 1
        assert "bottleneck.d_bn: must be smaller" in capsys.readouterr().err
        assert not out.exists()


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
        ("all", "unknown update scope 'all'"),  # no scope trains the CNN stack
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

    @pytest.mark.parametrize("scope", ["no-feature-encoder", "head-only",
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
        """A stage's missing keys are filled from ``STAGE_DEFAULTS``, each
        stage with a copy of its own."""
        override = {"finetune": {"stages": [{"scope": "head-only"}, {"epochs": 2}]}}
        stages = load_config(overrides=override)["finetune"]["stages"]
        assert stages == [{**STAGE_DEFAULTS, "scope": "head-only"},
                          {**STAGE_DEFAULTS, "epochs": 2}]
        stages[0]["optimizer"]["lr"] = 5.0
        assert stages[1]["optimizer"] == STAGE_DEFAULTS["optimizer"] == {"optimizer": "adam",
                                                                         "lr": 1e-3}

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


class TestWeights:
    """``decode.weights`` and ``rescore.alpha``/``beta`` are checked when
    the config loads, by ``decoder.parse_weight_ratio`` and
    ``check_weights``."""

    @pytest.mark.parametrize("override, error", [
        ({"decode": {"weights": "3:x"}},
         "decode.weights (fused:fbk): cannot parse weight ratio '3:x'"),
        ({"decode": {"weights": "0:0"}},
         "decode.weights (fused:fbk): at least one weight must be positive"),
        ({"rescore": {"alpha": 0.0, "beta": 0}},
         "rescore: rescoring weights alpha:beta: at least one weight must be positive"),
    ])
    def test_rejected_by_dotted_path(self, override, error):
        with pytest.raises(ValueError, match="^" + re.escape(error) + "$"):
            load_config(overrides=override)


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
                 st.lists(st.integers(-3, 3), max_size=2), st.just({"zz": 1}))
SCOPES = st.sampled_from(["all", "no-feature-encoder", "head-only", "first-1-blocks",
                          "first-3-blocks", "first-0-blocks", "junk"])


def leaves(config, path=()):
    """(key path, default) of every value of ``config`` that is not a
    section, and of an unknown key in each mapping."""
    yield path + ("zz",), None
    for key, value in config.items():
        if isinstance(value, dict) and not key.endswith("optimizer"):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,), value


# the settings that are module constants: every override of one must fail
CONSTANTS = [(("corpus", "tone_low_hz"), 400.0), (("corpus", "tone_high_hz"), 3400.0),
             (("corpus", "speaker_spread"), 0.02), (("encoder", "conv_layers"), [[32, 80, 80]]),
             (("encoder", "position_scale"), 0.3)]
LEAVES = list(leaves(DEFAULT_CONFIG)) + CONSTANTS


def value_like(key, default):
    """A value near ``default``, the config value under ``key``, or junk."""
    if key == "stages":
        stage = st.fixed_dictionaries({}, optional={
            "epochs": st.integers(-1, 2), "scope": SCOPES | JUNK,
            "optimizer": st.just(STAGE_DEFAULTS["optimizer"]) | JUNK, "zz": JUNK})
        near = st.lists(stage | JUNK, max_size=3)
    elif key == "weights":
        near = st.sampled_from(["3:2", "1:0", "0:0", "9:1:5", "3:x", "3:-2", "inf:1"])
    elif isinstance(default, list):
        near = st.lists(st.integers(-3, 80), max_size=5)
    elif isinstance(default, bool) or not isinstance(default, (int, float)):
        near = st.just(default)
    elif isinstance(default, int):
        near = st.integers(-2, 2 * default + 2)
    else:
        near = st.floats(-1.0, 2 * default + 1) | st.sampled_from([float("nan"), 0, 1])
    return near | JUNK


@st.composite
def overrides(draw):
    """An override of one to four values of the defaults."""
    override = {}
    for path, default in draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=4)):
        section = override
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = draw(value_like(path[-1], default))
    return override


def override_paths(override, prefix=""):
    """Every dotted path of ``override`` and each of their prefixes."""
    for key, value in override.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, dict):
            yield from override_paths(value, path + ".")


class TestSchema:
    @settings(max_examples=300, deadline=None)
    @given(overrides())
    def test_loads_whole_or_fails_by_path(self, override):
        """Either the config fails by a dotted path of the override, or
        everything the recipe builds from it builds."""
        constants = {".".join(path) for path, _ in CONSTANTS} & set(override_paths(override))
        try:
            cfg = load_config(overrides=override)
        except ValueError as exc:
            assert any(path in str(exc) for path in override_paths(override)), str(exc)
            assert all(path in str(exc) for path in constants), str(exc)
            return
        assert not constants
        for build in (pipeline.encoder_config, pipeline.corpus_config, pipeline.am_config,
                      pipeline.mdn_config):
            build(cfg)
        pipeline.bottleneck_config(cfg, cfg["encoder"]["d_model"])
        for stage in cfg["finetune"]["stages"]:
            assert stage.keys() == STAGE_DEFAULTS.keys()
            scope_blocks(stage["scope"], cfg["encoder"]["n_blocks"])
        parse_weight_ratio(cfg["decode"]["weights"], 2, "w")


class TestSections:
    """``DEFAULT_CONFIG`` is the one default: the section dataclasses have
    none, and each holds its section's keys, but for the trainers' own
    settings and the derived input width ``d_in``."""

    @pytest.mark.parametrize("section, cls", [
        ("corpus", CorpusConfig), ("encoder", EncoderConfig), ("bottleneck", BottleneckConfig),
        ("am", AmConfig), ("mdn", MdnConfig)])
    def test_fields_are_the_section_keys_without_defaults(self, section, cls):
        assert all(f.default is MISSING and f.default_factory is MISSING for f in fields(cls))
        derived = {"d_in"} if section in ("bottleneck", "mdn") else set()
        keys = (DEFAULT_CONFIG[section].keys() | derived) - {"epochs", "optimizer", "map_noise"}
        assert {f.name for f in fields(cls)} == keys
