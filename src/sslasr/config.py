"""Global JSON configuration: one file with per-module sections; CLI flags
override individual keys. The shipped defaults are desk-scale settings
that train and decode within minutes on a CPU. A section, fine-tuning
stage or repetition table that is not a mapping (the stages not a list),
a key that nothing reads, a repetition count for a condition other than
``corpus.CONDITIONS``, any error in an optimizer mapping
(``params.optimizer_errors``), any fine-tuning scope the encoder does not
have (``encoder.scope_blocks``) and any bad epoch count or N-best depth
are rejected by their dotted paths before anything runs."""

from __future__ import annotations

import copy
import json
from dataclasses import fields

from .bottleneck import BottleneckConfig
from .corpus import CONDITIONS, CorpusConfig
from .encoder import EncoderConfig, scope_blocks
from .params import optimizer_errors


DEFAULT_CONFIG = {
    "seed": 1234,
    "corpus": {
        "n_words": 10,
        "unseen_fraction": 0.4,
        "n_tones": 12,
        "tones_per_word": 3,
        "n_speakers": 4,
        "train_reps": {"source": 2, "target": 1},
        "test_reps": {"source": 2, "target": 2},
        "tone_ms": 120.0,
        "edge_ms": 40.0,
        "amplitude": 0.3,
        "noise_rms": 0.04,
        "target_tilt": 0.5,
        "target_tempo": 0.88,
        "target_noise_rms": 0.12,
    },
    "encoder": {
        "d_model": 64,
        "n_blocks": 2,
        "n_heads": 4,
        "groups": 2,
        "codebook_entries": 8,
        "code_dim": 16,
        "mask_prob": 0.065,
        "mask_span": 10,
        "contrastive_temperature": 0.1,
        "gumbel_temperature": 2.0,
        "gumbel_temperature_min": 0.75,  # linear annealing across pretraining
        "distractors": 5,
        "loss_weight_diversity": 0.1,
    },
    # every training stage uses Adam, each with a rate that converges
    # inside the desk-scale budget
    "pretrain": {
        "epochs": 15,
        "optimizer": {"optimizer": "adam", "lr": 1e-3},
    },
    # CTC head warm-up on frozen features, then the deeper stages; the
    # bottleneck adapter, always trained, is initialized by standalone
    # reconstruction training
    "finetune": {
        "adapter_init_epochs": 30,
        "adapter_init_optimizer": {"optimizer": "adam", "lr": 2e-3},
        "stages": [
            {"epochs": 10, "scope": "head-only",
             "optimizer": {"optimizer": "adam", "lr": 1e-2}},
            {"epochs": 25, "scope": "no-feature-encoder",
             "optimizer": {"optimizer": "adam", "lr": 3e-3}},
            {"epochs": 5, "scope": "first-1-blocks",
             "optimizer": {"optimizer": "adam", "lr": 1e-3}},
        ],
    },
    "bottleneck": {"d_bn": 32, "dropout": 0.1},
    "am": {
        "offsets": [-2, -1, 0, 1, 2],
        "hidden_dims": [64, 64],
        "epochs": 12,
        "optimizer": {"optimizer": "adam", "lr": 2e-3},
    },
    "mdn": {
        "d_artic": 6,
        "mixtures": 2,
        "hidden_dims": [32],
        "epochs": 120,
        "map_noise": 0.05,
        "optimizer": {"optimizer": "adam", "lr": 5e-3},
    },
    "decode": {
        "weights": "3:2",  # fused : fbk-only
        "nbest": 20,  # capped by the lexicon size
    },
    "rescore": {"alpha": 2.0, "beta": 9.0},
}


def merge_config(base, override):
    """Recursive dict merge; override values win, sub-dicts merge."""
    out = copy.deepcopy(base)
    for key, value in (override or {}).items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


# the keys of the sections that build a config dataclass: its fields, but
# the adapter's input width, which is the encoder's d_model
_DATACLASS_KEYS = {key: {f.name for f in fields(cls)} - {"d_in"} for key, cls in (
    ("corpus", CorpusConfig), ("encoder", EncoderConfig), ("bottleneck", BottleneckConfig))}
_STAGE_KEYS = {"epochs", "scope", "optimizer"}
_REPS_KEYS = ("train_reps", "test_reps")


def _structure_errors(cfg):
    """Errors of every section, fine-tuning stage and repetition table
    that is not a mapping and of stages that are not a list: the other
    checks index them."""
    errors = [f"{key}: must be a mapping, got {cfg[key]!r}"
              for key, default in DEFAULT_CONFIG.items()
              if isinstance(default, dict) and not isinstance(cfg[key], dict)]
    if isinstance(cfg["finetune"], dict):
        stages = cfg["finetune"]["stages"]
        if not isinstance(stages, list):
            errors.append(f"finetune.stages: must be a list, got {stages!r}")
        else:
            errors += [f"finetune.stages[{i}]: must be a mapping, got {stage!r}"
                       for i, stage in enumerate(stages) if not isinstance(stage, dict)]
    if isinstance(cfg["corpus"], dict):
        errors += [f"corpus.{key}: must be a mapping, got {cfg['corpus'][key]!r}"
                   for key in _REPS_KEYS if not isinstance(cfg["corpus"][key], dict)]
    return errors


def _condition_errors(cfg):
    """Errors of every repetition count keyed by a name that is not a
    condition, by dotted path."""
    return [f"corpus.{key}.{name}: not a condition (the conditions are "
            f"{', '.join(CONDITIONS)})" for key in _REPS_KEYS
            for name in cfg["corpus"][key] if name not in CONDITIONS]


def _unknown_keys(cfg):
    """Dotted paths of the keys of ``cfg`` that nothing reads."""
    unknown = []
    for key, value in cfg.items():
        if key not in DEFAULT_CONFIG:
            unknown.append(key)
        elif isinstance(value, dict):
            known = _DATACLASS_KEYS.get(key, DEFAULT_CONFIG[key])
            unknown += [f"{key}.{k}" for k in value if k not in known]
    for i, stage in enumerate(cfg["finetune"]["stages"]):
        unknown += [f"finetune.stages[{i}].{k}" for k in stage if k not in _STAGE_KEYS]
    return unknown


def _optimizer_mappings(cfg):
    """(dotted path, mapping) of every optimizer mapping in ``cfg``."""
    for section, key in (("pretrain", "optimizer"), ("finetune", "adapter_init_optimizer"),
                         ("am", "optimizer"), ("mdn", "optimizer")):
        yield f"{section}.{key}", cfg[section][key]
    for i, stage in enumerate(cfg["finetune"]["stages"]):
        if "optimizer" in stage:  # a stage without one gets Adam's defaults
            yield f"finetune.stages[{i}].optimizer", stage["optimizer"]


def _count_errors(cfg):
    """Errors of every epoch count that is not an int >= 0 and of a
    ``decode.nbest`` that is not an int >= 1, by dotted path."""
    counts = [(f"{section}.{key}", cfg[section][key], low) for section, key, low in (
        ("pretrain", "epochs", 0), ("finetune", "adapter_init_epochs", 0), ("am", "epochs", 0),
        ("mdn", "epochs", 0), ("decode", "nbest", 1))]
    counts += [(f"finetune.stages[{i}].epochs", stage["epochs"], 0)
               for i, stage in enumerate(cfg["finetune"]["stages"]) if "epochs" in stage]
    return [f"{path}: must be an int >= {low}, got {value!r}" for path, value, low in counts
            if isinstance(value, bool) or not isinstance(value, int) or value < low]


def load_config(path=None, overrides=None):
    """Defaults, optionally merged with a JSON file and then with explicit
    overrides (highest precedence). Raises one ValueError naming every
    error of the module docstring."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        cfg = merge_config(cfg, loaded)
    if overrides:
        cfg = merge_config(cfg, overrides)
    errors = _structure_errors(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    unknown = _unknown_keys(cfg)
    errors = ["config keys that nothing reads: " + ", ".join(unknown)] if unknown else []
    errors += _condition_errors(cfg)
    errors += [e for path, opt in _optimizer_mappings(cfg) for e in optimizer_errors(opt, path)]
    errors += _count_errors(cfg)
    for i, stage in enumerate(cfg["finetune"]["stages"]):
        try:
            scope_blocks(stage.get("scope", "no-feature-encoder"), cfg["encoder"]["n_blocks"])
        except ValueError as exc:
            errors.append(f"finetune.stages[{i}].scope: {exc}")
    if errors:
        raise ValueError("; ".join(errors))
    return cfg
