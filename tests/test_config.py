import pytest

from capsnlu.autodiff import ContractError
from capsnlu.config import RunConfig, apply_overrides, config_hash, load_config


class TestRunConfig:
    def test_defaults_are_valid_benchmark_settings(self):
        cfg = RunConfig().validate()
        assert cfg.word_dim == 300
        assert cfg.hidden_dim == 32
        assert cfg.attn_dim == 20
        assert cfg.heads == 3
        assert cfg.caps_dim == 10
        assert cfg.sigma == 4.0
        assert cfg.penalty_weight == 0.0001
        assert cfg.downweight == 0.5
        assert (cfg.margin_pos, cfg.margin_neg) == (0.9, 0.1)
        assert cfg.routing_iterations == 3
        assert cfg.dropout_keep == 0.8
        assert len(cfg.existing_labels) == 5 and len(cfg.emerging_labels) == 2

    def test_bad_margins(self):
        with pytest.raises(ContractError):
            RunConfig(margin_pos=0.1, margin_neg=0.9).validate()

    def test_bad_dropout(self):
        with pytest.raises(ContractError):
            RunConfig(dropout_keep=0.0).validate()

    def test_overlapping_labels(self):
        with pytest.raises(ContractError):
            RunConfig(existing_labels=("A",), emerging_labels=("A",)).validate()

    def test_bad_dimension(self):
        with pytest.raises(ContractError):
            RunConfig(heads=0).validate()

    @pytest.mark.parametrize(
        "key, value",
        [("batch_size", 2.5), ("routing_iterations", 1.5), ("heads", True), ("epochs", "3"), ("seed", 13.0)],
    )
    def test_non_integer_int_field_is_named(self, key, value):
        # harness.train would fail later with a bare TypeError
        with pytest.raises(ContractError, match=f"{key} must be an int"):
            RunConfig(**{key: value}).validate()

    @pytest.mark.parametrize("key", ["sigma", "downweight", "penalty_weight", "learning_rate", "margin_pos"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_is_named(self, key, value):
        # NaN passes every ordered comparison's negation, so a range check
        # alone lets it through
        with pytest.raises(ContractError, match=f"{key} must be finite"):
            RunConfig(**{key: value}).validate()


class TestConfigFile:
    def test_load_and_types(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# toy settings\n"
            "word_dim = 8\n"
            "sigma = 0.5\n"
            "existing_labels = A,B\n"
            "emerging_labels = C\n"
            "restrict_vocab = false\n"
            "dataset_path = data.tsv\n",
            encoding="utf-8",
        )
        cfg = load_config(p)
        assert cfg.word_dim == 8
        assert cfg.sigma == 0.5
        assert cfg.existing_labels == ("A", "B")
        assert cfg.emerging_labels == ("C",)
        assert cfg.restrict_vocab is False
        assert cfg.dataset_path == "data.tsv"

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("no_such_key = 3\n", encoding="utf-8")
        with pytest.raises(ContractError):
            load_config(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("word_dim 8\n", encoding="utf-8")
        with pytest.raises(ContractError):
            load_config(p)

    @pytest.mark.parametrize("line, key", [("epochs = abc", "epochs"), ("sigma = 4,0", "sigma")])
    def test_non_numeric_value_is_named(self, tmp_path, line, key):
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n", encoding="utf-8")
        raw = line.split("=", 1)[1].strip()
        with pytest.raises(ContractError, match=f"config key {key} expects .*{raw!r}"):
            load_config(p)

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), {"epochs": "3", "sigma": "2.5"})
        assert cfg.epochs == 3 and cfg.sigma == 2.5

    def test_hash_changes_with_values(self):
        a = config_hash(RunConfig())
        b = config_hash(RunConfig(seed=99))
        assert a != b and len(a) == 12

    def test_hash_stable(self):
        assert config_hash(RunConfig()) == config_hash(RunConfig())
