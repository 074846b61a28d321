import json
import re
from pathlib import Path

import pytest

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
    ])
    def test_rejected_by_dotted_path(self, override, path):
        with pytest.raises(ValueError, match=re.escape(f"nothing reads: {path}") + "$"):
            load_config(overrides=override)

    def test_config_file_fails_through_the_cli(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({"finetune": {"use_adapter": True}}))
        assert main(["gen-corpus", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 1
        assert "finetune.use_adapter" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_stage_optimizer_fallback_allowed(self):
        opt = {"optimizer": "adam", "lr": 1e-3}
        cfg = load_config(overrides={"finetune": {"optimizer": opt,
                                                  "stages": [{"scope": "head-only"}]}})
        assert cfg["finetune"]["optimizer"] == opt

    def test_benchmark_configs_load(self):
        specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
        for spec in specs.values():
            if isinstance(spec, dict) and "config" in spec:
                load_config(overrides=spec["config"])
                load_config(overrides=merge_config(spec["config"], spec["tiny"]))
