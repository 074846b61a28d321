"""Global JSON configuration: one file with per-module sections.
``DEFAULT_CONFIG`` holds the one default of every setting: desk-scale
values that train and decode within minutes on a CPU; a fine-tuning
stage's missing keys come from ``STAGE_DEFAULTS``. The section
dataclasses have no defaults of their own; each is built from a loaded
section by its builder here (``corpus_config`` ... ``mdn_config``).
What no config sets is a module constant, such as the encoder's CNN
stack (``encoder.CONV_LAYERS``) and the corpus's tone range.
``load_config`` names by dotted path, in one ValueError and before
anything runs:

- each key that nothing reads and each repetition count for a name
  outside ``corpus.CONDITIONS``;
- each value unlike its default (``_walk``): a mapping, list, int or
  number of another type (a null too), a number that is NaN or infinite
  (``json.load`` reads ``NaN`` and ``Infinity``), one below its minimum
  (``_MINIMUMS``), an int other than ``seed`` above ``container.MAX_DIM``,
  and an empty ``finetune.stages``;
- each error of an optimizer mapping (``params.optimizer_errors``);
- then each error of the five section dataclasses, of a fine-tuning
  scope (``encoder.scope_blocks``) and of ``decode.weights`` or
  ``rescore.alpha``/``beta`` (``decoder.parse_weight_ratio`` and
  ``check_weights``)."""

from __future__ import annotations

import copy
import json
import math

from .bottleneck import BottleneckConfig
from .container import MAX_DIM
from .corpus import CONDITIONS, CorpusConfig
from .decoder import check_weights, parse_weight_ratio
from .encoder import EncoderConfig, scope_blocks
from .frame_am import AmConfig
from .inversion import MdnConfig
from .params import OPTIMIZER_DEFAULTS, optimizer_errors


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
        "gumbel_temperature_min": 0.75,  # reached linearly by the last pretraining epoch
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
    # reconstruction training. A stage's scope is "head-only",
    # "no-feature-encoder" or "first-N-blocks"
    # (``encoder.trainable_parameters``); none trains the CNN stack
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


# a user's stage list replaces the default one whole; its stages default to
STAGE_DEFAULTS = {"epochs": 10, "scope": "no-feature-encoder", "optimizer": OPTIMIZER_DEFAULTS}

# the least int or number by key (None: any); other ints are >= 1, numbers any
_MINIMUMS = {"seed": 0, "epochs": 0, "adapter_init_epochs": 0, "distractors": 0,
             **dict.fromkeys(CONDITIONS, 0), "offsets": None,
             **dict.fromkeys(("map_noise", "amplitude", "noise_rms", "target_noise_rms"), 0.0)}


def encoder_config(cfg) -> EncoderConfig:
    return EncoderConfig(**cfg["encoder"])


def corpus_config(cfg) -> CorpusConfig:
    return CorpusConfig(**cfg["corpus"])


def bottleneck_config(cfg, d_model) -> BottleneckConfig:
    return BottleneckConfig(d_in=d_model, **cfg["bottleneck"])


def am_config(cfg) -> AmConfig:
    return AmConfig(cfg["am"]["offsets"], cfg["am"]["hidden_dims"])


def mdn_config(cfg) -> MdnConfig:
    mdn = cfg["mdn"]
    return MdnConfig(cfg["bottleneck"]["d_bn"], mdn["d_artic"], mdn["mixtures"], mdn["hidden_dims"])


def _walk(value, default, path, key, errors, unknown):
    """Append to ``errors`` each way ``value``, at dotted ``path`` under
    mapping key ``key``, is unlike ``default``, and to ``unknown`` the path
    of each key below it that nothing reads."""
    if key.endswith("optimizer"):
        errors += optimizer_errors(value, path)
    elif isinstance(default, (dict, list)) and not isinstance(value, type(default)):
        kind = "a mapping" if isinstance(default, dict) else "a list"
        errors.append(f"{path}: must be {kind}, got {value!r}")
    elif isinstance(default, dict):
        for name, item in value.items():
            sub = f"{path}.{name}" if path else name
            if name in default:
                _walk(item, default[name], sub, name, errors, unknown)
            elif key.endswith("_reps"):
                errors.append(f"{sub}: not a condition (the conditions are "
                              f"{', '.join(CONDITIONS)})")
            else:
                unknown.append(sub)
    elif isinstance(default, list):
        if key == "stages" and not value:
            errors.append(f"{path}: need at least one stage (fine-tuning attaches the CTC "
                          "head), got []")
        for i, item in enumerate(value):
            _walk(item, STAGE_DEFAULTS if key == "stages" else default[0], f"{path}[{i}]",
                  key, errors, unknown)
    elif isinstance(default, (int, float)):
        kind, what, low = ((int, "an int", _MINIMUMS.get(key, 1)) if isinstance(default, int)
                           else ((int, float), "a number", _MINIMUMS.get(key)))
        try:  # a number setting is read as a float: an int past its range overflows
            finite = kind is int and isinstance(value, int) or math.isfinite(value)
        except (TypeError, OverflowError):
            finite = False
        if (isinstance(value, bool) or not isinstance(value, kind)
                or finite and low is not None and value < low):
            bound = "" if low is None else f" >= {low}"
            errors.append(f"{path}: must be {what}{bound}, got {value!r}")
        elif not finite:
            shown = "an int too large for a float" if isinstance(value, int) else repr(value)
            errors.append(f"{path}: must be finite, got {shown}")
        elif kind is int and key != "seed" and value > MAX_DIM:
            errors.append(f"{path}: must be an int <= {MAX_DIM}, the largest dim a "
                          f"parameter store holds, got {value!r}")


def _section_errors(cfg):
    """Errors of the checks that read whole sections, in the order of the
    defaults: each dataclass's, each stage's scope and the weight pairs."""
    encoder, rescore = cfg["encoder"], cfg["rescore"]
    checks = [("corpus.", corpus_config, cfg), ("encoder.", encoder_config, cfg)]
    checks += [(f"finetune.stages[{i}].scope: ", scope_blocks, stage["scope"],
                encoder["n_blocks"])
               for i, stage in enumerate(cfg["finetune"]["stages"])]
    checks += [("bottleneck.", bottleneck_config, cfg, encoder["d_model"]),
               ("am.", am_config, cfg), ("mdn.", mdn_config, cfg),
               ("", parse_weight_ratio, cfg["decode"]["weights"], 2,
                "decode.weights (fused:fbk)"),
               ("rescore: ", check_weights, [rescore["alpha"], rescore["beta"]], 2,
                "rescoring weights alpha:beta")]
    errors = []
    for prefix, check, *args in checks:
        try:
            check(*args)
        except ValueError as exc:
            errors.append(prefix + str(exc))
    return errors


def load_config(path=None, overrides=None):
    """Defaults, optionally merged with a JSON file and then with explicit
    overrides (highest precedence), as a plain JSON dict. Raises one
    ValueError naming every error of the module docstring."""
    cfg = DEFAULT_CONFIG
    if path is not None:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        cfg = merge_config(cfg, loaded)
    cfg = merge_config(cfg, overrides)  # a copy, overrides or not
    errors, unknown = [], []
    _walk(cfg, DEFAULT_CONFIG, "", "", errors, unknown)
    if unknown:
        errors.insert(0, "config keys that nothing reads: " + ", ".join(unknown))
    # the section checks read the values the walk checks, each stage filled
    # from STAGE_DEFAULTS
    if not errors:
        stages = cfg["finetune"]["stages"]
        stages[:] = [merge_config(STAGE_DEFAULTS, stage) for stage in stages]
        errors = _section_errors(cfg)
    if errors:
        raise ValueError("; ".join(errors))
    return cfg
