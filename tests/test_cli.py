import json
import shutil
import wave
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sslasr import cli, pipeline
from sslasr.cli import main
from sslasr.config import load_config
from sslasr.ctc import NBestList, PosteriorStream
from sslasr.decoder import (
    Lexicon,
    decode_stream,
    interpolate_posteriors,
    isolated_nbest,
    parse_weight_ratio,
)
from sslasr.encoder import SslEncoder
from sslasr.features import compute_fbank
from sslasr.rescore import rescore_hypotheses


@pytest.fixture(scope="module")
def cli_config(tmp_path_factory):
    """An ultra-small configuration so CLI runs stay quick."""
    cfg = {
        "seed": 99,
        "corpus": {
            "n_words": 5,
            "unseen_fraction": 0.25,
            "n_speakers": 2,
            "train_reps": {"source": 1, "target": 1},
            "test_reps": {"source": 1},
        },
        "pretrain": {"epochs": 1},
        "finetune": {
            "adapter_init_epochs": 4,
            "stages": [
                {"epochs": 2, "scope": "head-only",
                 "optimizer": {"optimizer": "adam", "lr": 1e-2}},
                {"epochs": 2, "scope": "no-feature-encoder",
                 "optimizer": {"optimizer": "adam", "lr": 3e-3}},
            ],
        },
        "am": {"epochs": 2},
        "mdn": {"epochs": 5},
    }
    path = tmp_path_factory.mktemp("cfg") / "toy.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, cli_config):
    """Corpus plus trained artifacts produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli_work")
    corpus = root / "corpus"
    assert main(["gen-corpus", "--config", cli_config, "--out", str(corpus)]) == 0
    assert main(["pretrain", "--config", cli_config, "--corpus", str(corpus),
                 "--out", str(root / "pre.spm")]) == 0
    assert main(["finetune", "--config", cli_config, "--corpus", str(corpus),
                 "--init", str(root / "pre.spm"), "--out", str(root / "ft.spm"),
                 "--adapter-out", str(root / "adapter.spm")]) == 0
    assert main(["train-am", "--config", cli_config, "--corpus", str(corpus),
                 "--features", "fbk", "--out", str(root / "am_fbk.spm")]) == 0
    return root, corpus, cli_config


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["gen-corpus"])
        assert err.value.code == 2

    def test_missing_file_returns_1(self, tmp_path, cli_config):
        assert main(["pretrain", "--config", cli_config,
                     "--corpus", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "x.spm")]) == 1

    def test_runtime_error_message_not_traceback(self, tmp_path, cli_config, capsys):
        main(["decode", "--config", cli_config, "--lexicon", str(tmp_path / "no.json"),
              "--corpus", str(tmp_path), "--am", str(tmp_path / "no.spm")])
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["finetune", "--corpus", "c", "--init", "i", "--out", "o"],
        ["rescore", "--nbest", "n", "--corpus", "c", "--model", "m"],
        ["rescore", "--nbest", "n", "--corpus", "c", "--model", "m", "--adapter", "a",
         "--alpha", "2"],
        # feature streams are computed from the models, never read from archives
        ["extract-bn", "--corpus", "c", "--model", "m", "--adapter", "a", "--out", "o"],
        ["train-am", "--corpus", "c", "--features", "fbk+w2v-bn", "--bn", "b", "--out", "o"],
        ["decode", "--lexicon", "l", "--corpus", "c", "--am", "a",
         "--features", "fbk+w2v-bn+artic", "--artic", "x"],
        ["invert", "--corpus", "c", "--model", "m", "--adapter", "a", "--mdn-out", "d",
         "--out", "o"],
        # the config's seed key is the one seed setting
        ["gen-corpus", "--out", "o", "--seed", "3"],
    ])
    def test_adapter_flags_required_and_alpha_gone(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["decode", "--lexicon", "l", "--corpus", "c", "--am", "a", "--nbest", "0"],
        ["decode", "--lexicon", "l", "--corpus", "c", "--am", "a", "--nbest", "-3"],
        ["joint-decode", "--lexicon", "l", "--streams", "a,b", "--weights", "1:1",
         "--nbest", "0"],
        ["joint-decode", "--lexicon", "l", "--streams", "a,b", "--weights", "1:1",
         "--nbest", "two"],
    ])
    def test_nbest_below_one_rejected_by_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"N-best depth must be an int >= 1, got {argv[-1]!r}" in capsys.readouterr().err


class TestMissingModels:
    """A computed stream whose model is missing fails by the flag that
    would supply it, before any WAV is read."""

    @pytest.fixture(autouse=True)
    def no_wav_reads(self, monkeypatch):
        def refuse(path):
            raise AssertionError(f"read {path} before checking the models")
        monkeypatch.setattr(pipeline, "read_wav", refuse)

    def test_decode_bn_stream_without_adapter(self, workdir, tmp_path, capsys):
        root, corpus, cfg = workdir
        assert main(["decode", "--config", cfg, "--corpus", str(corpus),
                     "--am", str(root / "am_fbk.spm"), "--features", "fbk+w2v-bn",
                     "--model", str(root / "ft.spm"),
                     "--lexicon", str(corpus / "lexicon.json"),
                     "--out", str(tmp_path / "never.jsonl")]) == 1
        assert "feature stream 'w2v-bn' needs --adapter" in capsys.readouterr().err

    def test_train_am_artic_stream_without_mdn(self, workdir, tmp_path, capsys):
        root, corpus, cfg = workdir
        assert main(["train-am", "--config", cfg, "--corpus", str(corpus),
                     "--features", "fbk+w2v-bn+artic", "--model", str(root / "ft.spm"),
                     "--adapter", str(root / "adapter.spm"),
                     "--out", str(tmp_path / "never.spm")]) == 1
        assert "feature stream 'artic' needs --mdn" in capsys.readouterr().err


    @pytest.mark.parametrize("command, flags", [
        ("train-am", ["--model"]),
        ("decode", ["--adapter", "--mdn"]),
    ])
    def test_fbk_rejects_model_flags_by_name(self, workdir, tmp_path, capsys, command,
                                             flags):
        root, corpus, cfg = workdir
        garbage = tmp_path / "garbage.spm"
        garbage.write_bytes(b"not a parameter store")
        argv = [command, "--config", cfg, "--corpus", str(corpus), "--features", "fbk",
                "--out", str(tmp_path / "never")]
        if command == "decode":
            argv += ["--am", str(root / "am_fbk.spm"), "--lexicon", str(corpus / "lexicon.json")]
        for flag in flags:
            argv += [flag, str(garbage)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"--features fbk computes from no {' or '.join(flags)}" in err
        assert "magic" not in err  # rejected before the store is parsed
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("flags", [["--bn"], ["--artic"], ["--bn", "--artic"]])
    def test_fbk_rejects_archive_flags_by_name(self, workdir, tmp_path, capsys, flags):
        """The archive inputs are gone: the parser names each as unknown."""
        _, corpus, cfg = workdir
        argv = ["train-am", "--config", cfg, "--corpus", str(corpus), "--features", "fbk",
                "--out", str(tmp_path / "never")]
        for flag in flags:
            argv += [flag, str(tmp_path / "garbage.sfa")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert ("unrecognized arguments: " + " ".join(argv[-2 * len(flags):])
                in capsys.readouterr().err)
        assert not (tmp_path / "never").exists()


class TestZeroEpochs:
    """A stage configured for zero epochs saves its initial model and
    says so."""

    @pytest.fixture
    def zero_config(self, workdir, tmp_path):
        _, _, cfg = workdir
        settings = json.loads(Path(cfg).read_text())
        settings["am"]["epochs"] = settings["mdn"]["epochs"] = 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(settings))
        return str(path)

    def test_train_am(self, workdir, zero_config, tmp_path, capsys):
        _, corpus, _ = workdir
        out = tmp_path / "am.spm"
        assert main(["train-am", "--config", zero_config, "--corpus", str(corpus),
                     "--out", str(out)]) == 0
        assert "trained AM on fbk; cross-entropy (0 epochs)" in capsys.readouterr().out
        assert out.exists()

    def test_invert(self, workdir, zero_config, tmp_path, capsys):
        root, corpus, _ = workdir
        assert main(["invert", "--config", zero_config, "--corpus", str(corpus),
                     "--model", str(root / "ft.spm"), "--adapter", str(root / "adapter.spm"),
                     "--mdn-out", str(tmp_path / "mdn.spm")]) == 0
        assert "inversion NLL (0 epochs)" in capsys.readouterr().out
        assert sorted(f.name for f in tmp_path.iterdir()) == ["mdn.spm", "zero.json"]


class TestLoadAm:
    def test_widths_read_from_the_store(self, workdir):
        root, corpus, cfg = workdir
        # train-am writes the parameter store alone
        assert not (root / "am_fbk.json").exists()
        am = pipeline.load_am(load_config(cfg), root / "am_fbk.spm")
        assert (am.d_feat, am.n_classes) == (40, pipeline.Corpus(corpus).vocab.width)

    def test_width_not_a_multiple_of_offsets(self, workdir):
        root, _, cfg = workdir
        three = load_config(cfg, {"am": {"offsets": [-1, 0, 1]}})
        with pytest.raises(ValueError, match="input width 200 is not a multiple of the "
                                             "3 configured am.offsets"):
            pipeline.load_am(three, root / "am_fbk.spm")


class TestDecodeContract:
    def test_decode_emits_json_lines(self, workdir, tmp_path):
        root, corpus, cfg = workdir
        hyp = tmp_path / "hyp.jsonl"
        streams = tmp_path / "streams"
        rc = main(["decode", "--config", cfg, "--corpus", str(corpus),
                   "--am", str(root / "am_fbk.spm"), "--features", "fbk",
                   "--lexicon", str(corpus / "lexicon.json"),
                   "--save-streams", str(streams),
                   "--nbest", "5", "--nbest-out", str(tmp_path / "nb.jsonl"),
                   "--out", str(hyp)])
        assert rc == 0
        lines = [json.loads(line) for line in hyp.read_text().splitlines()]
        assert lines and all({"utt_id", "words", "tokens", "cost"} <= set(d) for d in lines)
        assert sorted(d["utt_id"] for d in lines) == [d["utt_id"] for d in lines]
        assert sorted(pipeline.read_streams(streams)) == [d["utt_id"] for d in lines]

    def test_save_streams_creates_one_file(self, workdir, tmp_path):
        root, corpus, cfg = workdir
        out = tmp_path / "out"
        out.mkdir()
        assert main(["decode", "--config", cfg, "--corpus", str(corpus),
                     "--am", str(root / "am_fbk.spm"), "--features", "fbk",
                     "--lexicon", str(corpus / "lexicon.json"),
                     "--save-streams", str(out / "post"),
                     "--out", str(tmp_path / "hyp.jsonl")]) == 0
        assert [f.name for f in out.iterdir()] == ["post"]
        assert len(pipeline.read_streams(out / "post")) > 1

    def test_decode_single_stream_file(self, workdir, tmp_path):
        root, corpus, cfg = workdir
        streams = tmp_path / "one"
        main(["decode", "--config", cfg, "--corpus", str(corpus),
              "--am", str(root / "am_fbk.spm"), "--features", "fbk",
              "--lexicon", str(corpus / "lexicon.json"),
              "--save-streams", str(streams), "--out", str(tmp_path / "all.jsonl")])
        utt_id, stream = sorted(pipeline.read_streams(streams).items())[0]
        one = tmp_path / "one_utt"
        pipeline.write_streams(one, {utt_id: stream})
        out = tmp_path / "hyp1.jsonl"
        rc = main(["joint-decode", "--config", cfg, "--streams", str(one), "--weights", "1",
                   "--lexicon", str(corpus / "lexicon.json"), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["utt_id"] == utt_id

    def test_byte_identical_reruns(self, workdir, tmp_path):
        """Two runs write the same bytes: the acoustic model's parameter
        store, the saved posterior streams and the hypotheses."""
        root, corpus, cfg = workdir
        outs = []
        for run in ("a", "b"):
            am, streams, hyp = (tmp_path / f"{run}{ext}" for ext in (".spm", ".sfa", ".jsonl"))
            assert main(["train-am", "--config", cfg, "--corpus", str(corpus),
                         "--features", "fbk", "--out", str(am)]) == 0
            assert main(["decode", "--config", cfg, "--corpus", str(corpus),
                         "--am", str(am), "--features", "fbk",
                         "--lexicon", str(corpus / "lexicon.json"),
                         "--save-streams", str(streams), "--out", str(hyp)]) == 0
            outs.append([path.read_bytes() for path in (am, streams, hyp)])
        assert outs[0] == outs[1]
        assert outs[0][0] == (root / "am_fbk.spm").read_bytes()


class TestDecodeErrors:
    @pytest.fixture
    def saved_streams(self, workdir, tmp_path):
        root, corpus, cfg = workdir
        streams = tmp_path / "streams"
        assert main(["decode", "--config", cfg, "--corpus", str(corpus),
                     "--am", str(root / "am_fbk.spm"), "--features", "fbk",
                     "--lexicon", str(corpus / "lexicon.json"),
                     "--save-streams", str(streams), "--out", str(tmp_path / "h.jsonl")]) == 0
        return streams

    def test_two_sources_point_to_joint_decode(self, workdir, saved_streams, tmp_path,
                                               capsys):
        """``decode`` reads no archive: its parser names ``--streams`` as
        unknown, and its help sends saved streams to ``joint-decode``."""
        root, corpus, cfg = workdir
        with pytest.raises(SystemExit) as err:
            main(["decode", "--config", cfg, "--lexicon", str(corpus / "lexicon.json"),
                  "--corpus", str(corpus), "--am", str(root / "am_fbk.spm"),
                  "--streams", f"{saved_streams},{saved_streams}",
                  "--out", str(tmp_path / "never.jsonl")])
        assert err.value.code == 2
        assert (f"unrecognized arguments: --streams {saved_streams},{saved_streams}"
                in capsys.readouterr().err)
        assert not (tmp_path / "never.jsonl").exists()
        with pytest.raises(SystemExit):
            main(["decode", "--help"])
        usage = " ".join(capsys.readouterr().out.split())
        assert "joint-decode --streams" in usage
        assert "--streams" not in usage.replace("joint-decode --streams", "")

    @pytest.mark.parametrize("flags", [["--corpus"], ["--am"], ["--model"], ["--adapter"],
                                       ["--mdn"], ["--corpus", "--am", "--model"]],
                             ids="+".join)
    def test_streams_refuse_model_flags_by_name(self, tmp_path, capsys, flags):
        """``joint-decode`` decodes stored posteriors: its parser names each
        flag of the computed path before any file is read."""
        argv = ["joint-decode", "--lexicon", str(tmp_path / "no-lexicon.json"),
                "--streams", str(tmp_path / "no-streams"), "--weights", "1",
                "--out", str(tmp_path / "never.jsonl")]
        for flag in flags:
            argv += [flag, str(tmp_path / "nonexistent")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert ("unrecognized arguments: " + " ".join(argv[-2 * len(flags):])
                in capsys.readouterr().err)
        assert not (tmp_path / "never.jsonl").exists()

    @pytest.mark.parametrize("features", ["fbk", "fbk+w2v-bn"])
    def test_streams_refuse_features_by_name(self, tmp_path, capsys, features):
        """``--features`` picks the streams ``decode``'s ``--am`` computes;
        ``joint-decode``'s parser names it as unknown."""
        with pytest.raises(SystemExit) as err:
            main(["joint-decode", "--lexicon", str(tmp_path / "no-lexicon.json"),
                  "--streams", str(tmp_path / "no-streams"), "--weights", "1",
                  "--features", features, "--out", str(tmp_path / "never.jsonl")])
        assert err.value.code == 2
        assert (f"unrecognized arguments: --features {features}"
                in capsys.readouterr().err)

    def test_lexicon_with_mode_key_rejected(self, workdir, saved_streams, tmp_path, capsys):
        _, corpus, cfg = workdir
        lexicon = json.loads((corpus / "lexicon.json").read_text())
        lexicon["mode"] = "word-loop"
        (tmp_path / "loop.json").write_text(json.dumps(lexicon))
        rc = main(["joint-decode", "--config", cfg, "--lexicon", str(tmp_path / "loop.json"),
                   "--streams", str(saved_streams), "--weights", "1",
                   "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        assert "lexicon keys that nothing reads: ['mode']" in capsys.readouterr().err
        assert not (tmp_path / "never.jsonl").exists()

    @pytest.mark.parametrize("command", ["decode", "joint-decode"])
    def test_nbest_out_needs_nbest(self, workdir, saved_streams, tmp_path, capsys, command):
        root, corpus, cfg = workdir
        inputs = (["--streams", f"{saved_streams},{saved_streams}", "--weights", "1:1"]
                  if command == "joint-decode"
                  else ["--corpus", str(corpus), "--am", str(root / "am_fbk.spm")])
        argv = [command, "--config", cfg, "--lexicon", str(corpus / "lexicon.json"), *inputs,
                "--nbest-out", str(tmp_path / "nb.jsonl"), "--out", str(tmp_path / "never.jsonl")]
        assert main(argv) == 1
        assert f"--nbest-out {tmp_path / 'nb.jsonl'} needs --nbest N" in (
            capsys.readouterr().err)
        assert not (tmp_path / "never.jsonl").exists()

    def test_directory_source_named(self, workdir, tmp_path, capsys):
        _, corpus, cfg = workdir
        rc = main(["joint-decode", "--config", cfg, "--lexicon", str(corpus / "lexicon.json"),
                   "--streams", str(tmp_path), "--weights", "1",
                   "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"stream source {tmp_path} is a directory" in err and "one archive file" in err

    def test_missing_source_named(self, workdir, saved_streams, tmp_path, capsys):
        _, corpus, cfg = workdir
        rc = main(["joint-decode", "--config", cfg, "--lexicon", str(corpus / "lexicon.json"),
                   "--streams", f"{saved_streams},{tmp_path / 'nowhere'}",
                   "--weights", "1:1", "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        assert f"stream source {tmp_path / 'nowhere'} does not exist" in (
            capsys.readouterr().err)

    def test_joint_sources_must_hold_the_same_utterances(self, workdir, saved_streams,
                                                         tmp_path, capsys):
        _, corpus, cfg = workdir
        streams = pipeline.read_streams(saved_streams)
        part = tmp_path / "part"
        pipeline.write_streams(part, dict(sorted(streams.items())[2:]))
        rc = main(["joint-decode", "--config", cfg, "--lexicon", str(corpus / "lexicon.json"),
                   "--streams", f"{saved_streams},{part}", "--weights", "1:1",
                   "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        assert (f"different utterance sets ({len(streams)} ids in all): "
                f"{saved_streams} lacks 0, {part} lacks 2") in capsys.readouterr().err
        assert not (tmp_path / "never.jsonl").exists()

    def test_joint_length_mismatch_names_the_utterance(self, workdir, saved_streams,
                                                       tmp_path, capsys):
        _, corpus, cfg = workdir
        streams = pipeline.read_streams(saved_streams)
        utt_id = sorted(streams)[1]
        short = streams[utt_id].logp[: len(streams[utt_id].logp) // 2]
        other = tmp_path / "other"
        pipeline.write_streams(other, {**streams, utt_id: PosteriorStream(short)})
        rc = main(["joint-decode", "--config", cfg, "--lexicon", str(corpus / "lexicon.json"),
                   "--streams", f"{saved_streams},{other}", "--weights", "1:1",
                   "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        assert (f"utterance {utt_id!r}: stream shape mismatch: {short.shape} vs "
                f"{streams[utt_id].logp.shape}") in capsys.readouterr().err
        assert not (tmp_path / "never.jsonl").exists()


class TestEmptySubset:
    @pytest.mark.parametrize("command", [["pretrain"], ["train-am", "--features", "fbk"]],
                             ids=["pretrain", "train-am"])
    def test_no_train_records_named(self, workdir, tmp_path, capsys, command):
        _, corpus, cfg = workdir
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        manifest = copy / "manifest.jsonl"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines
                                    if json.loads(line)["subset"] != "train"))
        out = tmp_path / "model.spm"
        assert main([*command, "--config", cfg, "--corpus", str(copy),
                     "--out", str(out)]) == 1
        assert f"{manifest} holds no train records" in capsys.readouterr().err
        assert not out.exists()


class TestAudioRate:
    def test_train_am_names_a_wav_at_another_rate(self, workdir, tmp_path, capsys):
        _, corpus, cfg = workdir
        copy = tmp_path / "corpus"
        shutil.copytree(corpus, copy)
        record = pipeline.Manifest.load(copy / "manifest.jsonl").subset("train")[0]
        wav = copy / record.audio_path
        with wave.open(str(wav), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(np.zeros(8000, dtype="<i2").tobytes())
        out = tmp_path / "am.spm"
        assert main(["train-am", "--config", cfg, "--corpus", str(copy), "--features", "fbk",
                     "--out", str(out)]) == 1
        assert f"{wav}: expected 16000 Hz audio, got 8000 Hz" in capsys.readouterr().err
        assert not out.exists()


class TestMultiModalChain:
    def test_invert_train_am_decode_artic(self, workdir, tmp_path, monkeypatch):
        """The articulatory system end to end: invert encodes each training
        utterance once, and its MDN feeds train-am and decode."""
        root, corpus, cfg = workdir
        models = ["--model", str(root / "ft.spm"), "--adapter", str(root / "adapter.spm")]
        with_corpus = ["--config", cfg, "--corpus", str(corpus)]
        encoded = Counter()
        represent = SslEncoder.represent

        def counted(self, audio, *args):
            encoded.update(a.samples.tobytes() for a in audio)
            return represent(self, audio, *args)

        monkeypatch.setattr(SslEncoder, "represent", counted)
        mdn = ["--mdn", str(tmp_path / "mdn.spm")]
        assert main(["invert", *with_corpus, *models, "--mdn-out", mdn[1]]) == 0
        c = pipeline.Corpus(corpus)
        assert encoded == Counter(c.audio(r).samples.tobytes()
                                  for r in c.manifest.subset("train"))
        monkeypatch.undo()
        spec = ["--features", "fbk+w2v-bn+artic", *models, *mdn]
        am = str(tmp_path / "am.spm")
        assert main(["train-am", *with_corpus, *spec, "--out", am]) == 0
        hyp = tmp_path / "hyp.jsonl"
        assert main(["decode", *with_corpus, *spec, "--am", am,
                     "--lexicon", str(corpus / "lexicon.json"), "--out", str(hyp)]) == 0
        tests = c.manifest.subset("test-seen", "test-unseen")
        assert (sorted(json.loads(line)["utt_id"] for line in hyp.read_text().splitlines())
                == sorted(r.utt_id for r in tests))


class TestJointAndRescore:
    def test_joint_decode_ratio_weights(self, workdir, tmp_path):
        root, corpus, cfg = workdir
        s1 = tmp_path / "s1"
        main(["decode", "--config", cfg, "--corpus", str(corpus),
              "--am", str(root / "am_fbk.spm"), "--features", "fbk",
              "--lexicon", str(corpus / "lexicon.json"),
              "--save-streams", str(s1), "--out", str(tmp_path / "h1.jsonl")])
        out = tmp_path / "joint.jsonl"
        nb = tmp_path / "nb.jsonl"
        rc = main(["joint-decode", "--config", cfg,
                   "--lexicon", str(corpus / "lexicon.json"),
                   "--streams", f"{s1},{s1}", "--weights", "3:2",
                   "--nbest", "5", "--nbest-out", str(nb), "--out", str(out)])
        assert rc == 0
        # identical streams under any weights reproduce the single system
        single = {json.loads(l)["utt_id"]: json.loads(l)["words"]
                  for l in (tmp_path / "h1.jsonl").read_text().splitlines()}
        joint = {json.loads(l)["utt_id"]: json.loads(l)["words"]
                 for l in out.read_text().splitlines()}
        assert joint == single

    def test_bad_ratio_is_error(self, workdir, tmp_path, capsys):
        root, corpus, cfg = workdir
        rc = main(["joint-decode", "--config", cfg,
                   "--lexicon", str(corpus / "lexicon.json"),
                   "--streams", "x,y", "--weights", "3:zebra",
                   "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        assert (capsys.readouterr().err
                == "error: --weights: cannot parse weight ratio '3:zebra'\n")

    def test_rescore_bad_ratio_names_the_flag(self, workdir, tmp_path, capsys):
        _, corpus, cfg = workdir
        rc = main(["rescore", "--config", cfg, "--nbest", str(tmp_path / "none.jsonl"),
                   "--corpus", str(corpus), "--model", str(tmp_path / "none.spm"),
                   "--adapter", str(tmp_path / "none.spm"), "--weights", "2:x",
                   "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        assert (capsys.readouterr().err == "error: rescoring weights alpha:beta (--weights): "
                "cannot parse weight ratio '2:x'\n")

    @pytest.mark.parametrize("weights, error", [
        ("3:-2", " must be nonnegative, got [3.0, -2.0]"),
        ("0:0", ": at least one weight must be positive"),
        ("1:1:1", ": need 2 weights, got shape (3,)"),
    ], ids=["negative", "all-zero", "three-weights"])
    def test_bad_weights_named_before_any_archive(self, workdir, tmp_path, capsys, weights,
                                                  error):
        _, corpus, cfg = workdir
        rc = main(["joint-decode", "--config", cfg, "--lexicon", str(corpus / "lexicon.json"),
                   "--streams", f"{tmp_path / 'x'},{tmp_path / 'y'}", "--weights", weights,
                   "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --weights{error}\n"

    @pytest.mark.parametrize("weights, error", [
        ("-2:9", "must be nonnegative"),
        ("nan:9", "must be finite"),
        ("0:0", "at least one weight must be positive"),
    ])
    def test_rescore_weights_checked_before_models(self, workdir, tmp_path, capsys,
                                                   weights, error):
        _, corpus, cfg = workdir
        garbage = tmp_path / "garbage.spm"
        garbage.write_bytes(b"not a parameter store")
        rc = main(["rescore", "--config", cfg, "--nbest", str(tmp_path / "none.jsonl"),
                   "--corpus", str(corpus), "--model", str(garbage), "--adapter", str(garbage),
                   f"--weights={weights}", "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "rescoring weights alpha:beta" in err and error in err

    def test_rescore_flow(self, workdir, tmp_path):
        root, corpus, cfg = workdir
        s1 = tmp_path / "s1"
        nb = tmp_path / "nb.jsonl"
        main(["decode", "--config", cfg, "--corpus", str(corpus),
              "--am", str(root / "am_fbk.spm"), "--features", "fbk",
              "--lexicon", str(corpus / "lexicon.json"),
              "--save-streams", str(s1), "--nbest", "5", "--nbest-out", str(nb),
              "--out", str(tmp_path / "h1.jsonl")])
        out = tmp_path / "rescored.jsonl"
        rc = main(["rescore", "--config", cfg, "--nbest", str(nb),
                   "--corpus", str(corpus), "--model", str(root / "ft.spm"),
                   "--adapter", str(root / "adapter.spm"),
                   "--weights", "2:9", "--out", str(out)])
        assert rc == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines and all(d["words"] for d in lines)


class TestRescoreWindows:
    """``rescore`` reads, encodes and rescores its N-best file one window of
    lists at a time (four lists here, so the file spans several)."""

    @pytest.fixture
    def nbest_file(self, workdir, tmp_path, monkeypatch):
        root, corpus, cfg = workdir
        nb = tmp_path / "nb.jsonl"
        assert main(["decode", "--config", cfg, "--corpus", str(corpus),
                     "--am", str(root / "am_fbk.spm"), "--features", "fbk",
                     "--lexicon", str(corpus / "lexicon.json"), "--nbest", "4",
                     "--nbest-out", str(nb), "--out", str(tmp_path / "h.jsonl")]) == 0
        monkeypatch.setattr(cli, "LATTICE_WINDOW", 4)
        return nb

    def _rescore(self, workdir, nbest_file, out):
        root, corpus, cfg = workdir
        return main(["rescore", "--config", cfg, "--nbest", str(nbest_file),
                     "--corpus", str(corpus), "--model", str(root / "ft.spm"),
                     "--adapter", str(root / "adapter.spm"), "--weights", "2:9",
                     "--out", str(out)])

    def test_windows_equal_one_call(self, workdir, nbest_file, tmp_path, monkeypatch):
        root, corpus, cfg = workdir
        sizes = []

        def counted(nbests, *args):
            sizes.append(len(nbests))
            return rescore_hypotheses(nbests, *args)

        monkeypatch.setattr(cli, "rescore_hypotheses", counted)
        out = tmp_path / "rescored.jsonl"
        assert self._rescore(workdir, nbest_file, out) == 0
        assert max(sizes) == cli.LATTICE_WINDOW and len(sizes) > 2
        loaded, c = load_config(cfg), pipeline.Corpus(corpus)
        model = pipeline.load_encoder(loaded, root / "ft.spm")
        adapter = pipeline.load_adapter(loaded, model.cfg.d_model, root / "adapter.spm")
        nbests = [NBestList.from_json_dict(json.loads(line))
                  for line in nbest_file.read_text().splitlines()]
        by_id = c.manifest.by_id()
        ssl = [s for _, _, _, h in pipeline.record_batches(
            c, [by_id[nb.utt_id] for nb in nbests], model, adapter)
            for s in model.head_posteriors(h)]
        assert out.read_text() == _json_lines(
            rescore_hypotheses(nbests, ssl, c.vocab, 2.0, 9.0))

    def test_unknown_id_in_last_window(self, workdir, nbest_file, tmp_path, capsys):
        lines = nbest_file.read_text().splitlines()
        assert len(lines) > cli.LATTICE_WINDOW
        last = json.loads(lines[-1])
        last["utt_id"] = "nobody"
        nbest_file.write_text("\n".join(lines[:-1] + [json.dumps(last)]) + "\n")
        out = tmp_path / "never.jsonl"
        assert self._rescore(workdir, nbest_file, out) == 1
        assert "utterance 'nobody' not in the corpus manifest" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, bad, error", [
        (0, lambda d: {"utt_id": d["utt_id"]},
         'an n-best list is an object of exactly a string "utt_id" and a list "entries"'),
        (1, lambda d: {**d, "entries": [
            {"tokens": e["tokens"], "words": e["words"], "costs": {"tdnn": e["cost"]},
             "combined": e["cost"]} for e in d["entries"]]},
         "an n-best entry holds exactly \"cost\", \"tokens\" and \"words\", "
         "got ['combined', 'costs', 'tokens', 'words']"),
        (2, lambda d: {**d, "entries": [{**d["entries"][0], "tokens": [1]}]},
         "an n-best entry's \"tokens\" and \"words\" are lists of strings"),
        (-1, lambda d: {**d, "entries": [{**d["entries"][0], "cost": "1.5"}]},
         "an n-best entry's \"cost\" is a number, got '1.5'"),
    ])
    def test_malformed_line_named_by_file_and_line(self, workdir, nbest_file, tmp_path,
                                                   capsys, line, bad, error):
        lines = nbest_file.read_text().splitlines()
        assert len(lines) > cli.LATTICE_WINDOW
        lines[line] = json.dumps(bad(json.loads(lines[line])))
        nbest_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "never.jsonl"
        assert self._rescore(workdir, nbest_file, out) == 1
        number = line % len(lines) + 1
        assert f"error: {nbest_file}:{number}: {error}\n" == capsys.readouterr().err
        assert not out.exists()


def _json_lines(objs):
    return "".join(json.dumps(asdict(o)) + "\n" for o in objs)


class TestBatchedDecodeOutputs:
    """The batched CLI decodes write exactly what decoding each utterance
    on its own gives."""

    def test_decode_matches_per_utterance(self, workdir, tmp_path):
        root, corpus, cfg = workdir
        lexicon = Lexicon.load(corpus / "lexicon.json")
        vocab = lexicon.vocab()
        s1, hyp = tmp_path / "s1", tmp_path / "hyp.jsonl"
        assert main(["decode", "--config", cfg, "--corpus", str(corpus),
                     "--am", str(root / "am_fbk.spm"), "--features", "fbk",
                     "--lexicon", str(corpus / "lexicon.json"),
                     "--save-streams", str(s1), "--out", str(hyp)]) == 0
        am = pipeline.load_am(load_config(cfg), root / "am_fbk.spm")
        c = pipeline.Corpus(corpus)
        records = sorted(c.manifest.subset("test-seen", "test-unseen"), key=lambda r: r.utt_id)
        expected = [decode_stream(am.posteriors([compute_fbank(c.audio(r))])[0], lexicon, vocab,
                                  r.utt_id) for r in records]
        assert hyp.read_text() == _json_lines(expected)

        streams = dict(sorted(pipeline.read_streams(s1).items()))
        hyp, nb = tmp_path / "hyp_nb.jsonl", tmp_path / "nb.jsonl"
        assert main(["joint-decode", "--config", cfg, "--streams", str(s1), "--weights", "1",
                     "--lexicon", str(corpus / "lexicon.json"), "--nbest", "3",
                     "--nbest-out", str(nb), "--out", str(hyp)]) == 0
        assert hyp.read_text() == _json_lines(
            decode_stream(s, lexicon, vocab, u) for u, s in streams.items())
        assert nb.read_text() == _json_lines(
            isolated_nbest(s, lexicon, vocab, 3, utt_id=u)
            for u, s in streams.items())

    def test_joint_decode_nbest_matches_per_utterance(self, workdir, tmp_path):
        root, corpus, cfg = workdir
        lexicon = Lexicon.load(corpus / "lexicon.json")
        vocab = lexicon.vocab()
        s1, s2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["decode", "--config", cfg, "--corpus", str(corpus),
                     "--am", str(root / "am_fbk.spm"), "--features", "fbk",
                     "--lexicon", str(corpus / "lexicon.json"), "--save-streams", str(s1),
                     "--out", str(tmp_path / "h1.jsonl")]) == 0
        # a second system: the first one's posteriors flattened
        flat = {}
        for utt_id, stream in pipeline.read_streams(s1).items():
            logp = 0.5 * stream.logp
            logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
            flat[utt_id] = PosteriorStream(logp)
        pipeline.write_streams(s2, flat)
        hyp, nb = tmp_path / "joint.jsonl", tmp_path / "nb.jsonl"
        assert main(["joint-decode", "--config", cfg,
                     "--lexicon", str(corpus / "lexicon.json"),
                     "--streams", f"{s1},{s2}", "--weights", "3:2", "--nbest", "4",
                     "--nbest-out", str(nb), "--out", str(hyp)]) == 0
        weights = parse_weight_ratio("3:2", 2, "--weights")
        streams1, streams2 = pipeline.read_streams(s1), pipeline.read_streams(s2)
        mixed = {u: interpolate_posteriors([streams1[u], streams2[u]], weights)
                 for u in sorted(streams1)}
        assert hyp.read_text() == _json_lines(
            decode_stream(s, lexicon, vocab, u) for u, s in mixed.items())
        nbests = [isolated_nbest(s, lexicon, vocab, 4, utt_id=u)
                  for u, s in mixed.items()]
        assert nb.read_text() == _json_lines(nbests)
        for line, nbest in zip(hyp.read_text().splitlines(), nbests):
            head, d = nbest.entries[0], json.loads(line)
            assert (d["utt_id"], d["words"], d["tokens"], d["cost"]) == (
                nbest.utt_id, head.words, head.tokens, head.cost)


class TestScore:
    def test_score_reports_partitions(self, workdir, tmp_path, capsys):
        root, corpus, cfg = workdir
        hyp = tmp_path / "h.jsonl"
        main(["decode", "--config", cfg, "--corpus", str(corpus),
              "--am", str(root / "am_fbk.spm"), "--features", "fbk",
              "--lexicon", str(corpus / "lexicon.json"), "--out", str(hyp)])
        report = tmp_path / "report.json"
        rc = main(["score", "--hyp", str(hyp), "--corpus", str(corpus),
                   "--out", str(report)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "overall" in table
        data = json.loads(report.read_text())
        assert "by_subset" in data and "overall" in data

    @pytest.mark.parametrize("bad, error", [
        (lambda d: json.dumps({**d, "words": " ".join(d["words"])}),
         'a hypothesis is an object with a string "utt_id" and a list of strings "words"'),
        (lambda d: json.dumps({"utt_id": d["utt_id"]}),
         'a hypothesis is an object with a string "utt_id" and a list of strings "words"'),
        (lambda d: json.dumps(d)[:-1], "Expecting ',' delimiter"),
    ], ids=["words-a-string", "no-words", "not-json"])
    def test_bad_line_named_by_file_and_line(self, workdir, tmp_path, capsys, bad, error):
        _, corpus, cfg = workdir
        records = pipeline.Corpus(corpus).manifest.subset("test-seen", "test-unseen")
        hyp = tmp_path / "h.jsonl"
        lines = [json.dumps({"utt_id": r.utt_id, "words": r.transcript.split()})
                 for r in records]
        lines[-1] = bad(json.loads(lines[-1]))
        hyp.write_text("\n".join(lines) + "\n")
        report = tmp_path / "never.json"
        assert main(["score", "--hyp", str(hyp), "--corpus", str(corpus),
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {hyp}:{len(lines)}: {error}")
        assert not report.exists()

    def test_missing_test_utterances_named(self, workdir, tmp_path, capsys):
        """A hypothesis file must cover every test utterance of the
        manifest; a filtered --manifest scores a subset."""
        _, corpus, cfg = workdir
        lines = (corpus / "manifest.jsonl").read_text().splitlines()
        tests = [json.loads(line) for line in lines
                 if json.loads(line)["subset"] in ("test-seen", "test-unseen")]
        hyp = tmp_path / "h.jsonl"
        hyp.write_text(json.dumps({"utt_id": tests[0]["id"],
                                   "words": tests[0]["transcript"].split()}) + "\n")
        report = tmp_path / "never.json"
        assert main(["score", "--hyp", str(hyp), "--corpus", str(corpus),
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: {len(tests) - 1} test-seen/test-unseen utterances have no hypothesis, "
            f"the first {tests[1]['id']!r}\n")
        assert not report.exists()
        one = tmp_path / "manifest.jsonl"
        one.write_text(json.dumps(tests[0]) + "\n")
        assert main(["score", "--hyp", str(hyp), "--manifest", str(one),
                     "--out", str(report)]) == 0
        assert json.loads(report.read_text())["overall"]["wer_percent"] == 0.0

    def test_bad_manifest_named_by_file_and_line(self, workdir, tmp_path, capsys):
        _, corpus, cfg = workdir
        lines = (corpus / "manifest.jsonl").read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "subset": "tset-seen"})
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        report = tmp_path / "never.json"
        assert main(["score", "--hyp", str(tmp_path / "h.jsonl"), "--manifest", str(manifest),
                     "--out", str(report)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {manifest}:1: subset 'tset-seen' is not one of")
        assert not report.exists()
