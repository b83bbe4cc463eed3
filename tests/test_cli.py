import json
import shutil

import numpy as np
import pytest

from conftest import build_toy_corpus, build_toy_vectors

from capsnlu.cli import main


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_toy")
    vectors = build_toy_vectors(root / "vectors.txt")
    corpus = build_toy_corpus(root / "corpus.tsv")
    return root, vectors, corpus


def write_config(path, vectors, corpus, out_dir, **extra):
    keys = {
        "word_dim": 8,
        "hidden_dim": 8,
        "attn_dim": 6,
        "heads": 2,
        "caps_dim": 4,
        "sigma": 0.1,
        "penalty_weight": 0.0001,
        "dropout_keep": 1.0,
        "learning_rate": 0.02,
        "batch_size": 8,
        "epochs": 10,
        "seed": 7,
        "existing_labels": "Music,Weather",
        "emerging_labels": "Tunes,Sports",
        "restrict_vocab": "false",
        "dataset_path": str(corpus),
        "embeddings_path": str(vectors),
        "output_dir": str(out_dir),
    }
    keys.update(extra)
    path.write_text("\n".join(f"{k} = {v}" for k, v in keys.items()) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained_run(toy_files, tmp_path_factory):
    root, vectors, corpus = toy_files
    out_dir = tmp_path_factory.mktemp("cli_out")
    cfg_path = write_config(root / "run.cfg", vectors, corpus, out_dir)
    code = main(["train", "--config", str(cfg_path)])
    assert code == 0
    return cfg_path, out_dir


class TestTrainCommand:
    def test_outputs_exist(self, trained_run):
        _, out_dir = trained_run
        assert (out_dir / "model" / "params.npz").exists()
        assert (out_dir / "model" / "meta.json").exists()
        assert (out_dir / "loss_curve.tsv").exists()
        assert (out_dir / "train_report.txt").exists()
        summary = (out_dir / "summary.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(summary[0])
        assert record["mode"] == "train"
        assert 0.0 <= record["metrics"]["accuracy"] <= 1.0

    def test_loss_curve_has_all_epochs(self, trained_run):
        _, out_dir = trained_run
        lines = (out_dir / "loss_curve.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch\tloss\tval_accuracy"
        assert len(lines) == 11


class TestEvalCommand:
    def test_eval_prints_metrics(self, trained_run, capsys):
        cfg_path, out_dir = trained_run
        code = main(["eval", "--config", str(cfg_path), "--split", "test"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert (out_dir / "eval_test_report.txt").exists()

    def test_zsl_eval(self, trained_run, capsys):
        cfg_path, out_dir = trained_run
        code = main(["zsl-eval", "--config", str(cfg_path)])
        assert code == 0
        assert "zero-shot accuracy" in capsys.readouterr().out
        variance = (out_dir / "zsl_intent_variance.tsv").read_text(encoding="utf-8").splitlines()
        assert variance[0] == "intent\taccuracy\tsimilarity_variance"
        assert len(variance) == 3


class TestExportcommands:
    def test_export_attention(self, trained_run, tmp_path):
        cfg_path, _ = trained_run
        out = tmp_path / "attn.tsv"
        code = main([
            "export-attention", "--config", str(cfg_path),
            "--domain", "emerging", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "utterance\tposition\ttoken\thead\tscore"
        assert len(lines) > 1

    def test_export_activations_existing(self, trained_run, tmp_path):
        cfg_path, _ = trained_run
        out = tmp_path / "act.tsv"
        code = main([
            "export-activations", "--config", str(cfg_path),
            "--domain", "existing", "--split", "test", "--out", str(out),
        ])
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("utterance\ttrue_intent\tintent\tnorm")

    def test_export_activations_emerging(self, trained_run, tmp_path):
        cfg_path, _ = trained_run
        out = tmp_path / "em.tsv"
        code = main([
            "export-activations", "--config", str(cfg_path),
            "--domain", "emerging", "--out", str(out),
        ])
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("utterance\ttrue_intent\tpredicted_intent")


class TestGradcheckCommand:
    def test_exit_zero_and_report(self, capsys):
        code = main(["gradcheck", "--seed", "7"])
        out = capsys.readouterr().out
        assert "max relative gradient error" in out
        assert ("PASS" in out) == (code == 0)
        assert code == 0


class TestDiagnostics:
    def test_missing_embeddings_named(self, toy_files, tmp_path, capsys):
        root, vectors, corpus = toy_files
        cfg_path = write_config(
            tmp_path / "bad.cfg", tmp_path / "nope.txt", corpus, tmp_path / "out"
        )
        code = main(["train", "--config", str(cfg_path)])
        assert code != 0
        err = capsys.readouterr().err
        assert "nope.txt" in err

    def test_missing_dataset_config(self, toy_files, tmp_path, capsys):
        root, vectors, corpus = toy_files
        cfg_path = write_config(tmp_path / "bad2.cfg", vectors, corpus, tmp_path / "out",
                                dataset_path="")
        code = main(["train", "--config", str(cfg_path)])
        assert code != 0
        assert "dataset" in capsys.readouterr().err

    def test_truncated_model_named(self, trained_run, tmp_path, capsys):
        cfg_path, out_dir = trained_run
        bad = shutil.copytree(out_dir / "model", tmp_path / "model")
        with np.load(bad / "params.npz") as npz:
            arrays = dict(npz)
        arrays["detect__w"] = arrays["detect__w"][:1]
        np.savez(bad / "params.npz", **arrays)
        code = main(["eval", "--config", str(cfg_path), "--model", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "detect.w" in err

    @pytest.mark.parametrize(
        "damage", ["truncated", "vocab", "oov_id", "pad_id", "config", "bogus_key", "hidden_dim"]
    )
    def test_damaged_meta_named(self, trained_run, tmp_path, capsys, damage):
        """Truncated JSON, a missing top-level entry, a missing config key
        (hidden_dim) and an unknown one (bogus_key) each exit 2, named."""
        cfg_path, out_dir = trained_run
        bad = shutil.copytree(out_dir / "model", tmp_path / "model")
        text = (bad / "meta.json").read_text(encoding="utf-8")
        meta = json.loads(text)
        if damage == "truncated":
            text = text[: len(text) // 2]
        elif damage in meta:
            del meta[damage]
        elif damage in meta["config"]:
            del meta["config"][damage]
        else:
            meta["config"][damage] = 1
        if damage != "truncated":
            text = json.dumps(meta)
        (bad / "meta.json").write_text(text, encoding="utf-8")
        code = main(["eval", "--config", str(cfg_path), "--model", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "meta.json" in err
        assert damage == "truncated" or repr(damage) in err

    def test_unknown_flag_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--no-such-flag"])
        assert exc.value.code != 0

    def test_bad_set_key(self, toy_files, tmp_path, capsys):
        root, vectors, corpus = toy_files
        cfg_path = write_config(tmp_path / "ok.cfg", vectors, corpus, tmp_path / "out")
        code = main(["train", "--config", str(cfg_path), "--set", "bogus_key=1"])
        assert code != 0
        assert "bogus_key" in capsys.readouterr().err

    def test_set_override_applies(self, toy_files, tmp_path):
        root, vectors, corpus = toy_files
        out_dir = tmp_path / "out_override"
        cfg_path = write_config(tmp_path / "ok2.cfg", vectors, corpus, out_dir)
        code = main(["train", "--config", str(cfg_path), "--set", "epochs=2"])
        assert code == 0
        lines = (out_dir / "loss_curve.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3  # header + 2 epochs

    def test_output_dir_env_var_honored(self, toy_files, tmp_path, monkeypatch):
        root, vectors, corpus = toy_files
        env_out = tmp_path / "from_env"
        cfg_path = write_config(tmp_path / "env.cfg", vectors, corpus, "", output_dir="")
        monkeypatch.setenv("CAPSNLU_OUTPUT_DIR", str(env_out))
        code = main(["train", "--config", str(cfg_path), "--set", "epochs=1"])
        assert code == 0
        assert (env_out / "model" / "params.npz").exists()
