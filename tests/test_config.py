import re

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

    def test_dropout_keep_without_float32_reciprocal_is_named(self):
        # float32 rounds 1e-50 to 0, so encode_tokens' keep /= dropout_keep
        # would divide 0 by 0 and feed NaN into the loss
        with pytest.raises(ContractError, match="dropout_keep must be in \\(0, 1\\] with a finite float32 reciprocal, got 1e-50"):
            RunConfig(dropout_keep=1e-50).validate()
        RunConfig(dropout_keep=3e-39).validate()  # a subnormal whose reciprocal float32 holds

    @pytest.mark.parametrize("keep", [1e-45, 2e-39])
    def test_dropout_keep_whose_float32_reciprocal_overflows_is_named(self, keep):
        # float32 holds these keeps, but not 1 / keep: the kept positions
        # would be scaled to inf
        with pytest.raises(ContractError, match=f"dropout_keep must be in .* finite float32 reciprocal, got {keep!r}"):
            RunConfig(dropout_keep=keep).validate()

    def test_sigma_whose_square_underflows_is_named(self):
        # sigma * sigma = 0 would make every similarity row all NaN
        with pytest.raises(ContractError, match="sigma must be positive with a positive, finite square, got 1e-200"):
            RunConfig(sigma=1e-200).validate()

    def test_sigma_whose_square_overflows_is_named(self):
        # sigma * sigma = inf would make every similarity row uniform
        with pytest.raises(ContractError, match="sigma must be positive with a positive, finite square, got 1e\\+200"):
            RunConfig(sigma=1e200).validate()

    def test_overlapping_labels(self):
        with pytest.raises(ContractError):
            RunConfig(existing_labels=("A",), emerging_labels=("A",)).validate()

    def test_no_existing_labels_is_named(self):
        # a model with no existing intent has nothing to route into
        with pytest.raises(ContractError, match="existing_labels must name at least one intent"):
            RunConfig(existing_labels=()).validate()

    @pytest.mark.parametrize(
        "key, labels",
        [
            ("existing_labels", ("GetWeather", "GetWeather", "PlayMusic")),
            ("emerging_labels", ("RateBook", "AddToPlaylist", "RateBook")),
        ],
    )
    def test_repeated_label_is_named(self, key, labels):
        # a repeated intent passed and gave the model two capsules, or two
        # zero-shot rows, for one label
        with pytest.raises(ContractError, match=f"{key} names {labels[0]!r} twice"):
            RunConfig(**{key: labels}).validate()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("routing_iterations", 0, "routing_iterations must be at least 1"),
            ("batch_size", 0, "batch_size, epochs and learning_rate must be non-negative"),
            ("epochs", -1, "batch_size, epochs and learning_rate must be non-negative"),
            ("learning_rate", -0.1, "batch_size, epochs and learning_rate must be non-negative"),
            ("downweight", -0.5, "downweight and penalty_weight must be non-negative"),
            ("penalty_weight", -1.0, "downweight and penalty_weight must be non-negative"),
            ("intent_embedding_mode", "max", "intent_embedding_mode must be 'mean' or 'sum'"),
        ],
    )
    def test_setting_out_of_range_is_named(self, key, value, message):
        with pytest.raises(ContractError, match=re.escape(message)):
            RunConfig(**{key: value}).validate()

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

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("sigma", "4", "a number"),
            ("learning_rate", [1], "a number"),
            ("dropout_keep", True, "a number"),
            ("restrict_vocab", "no", "a bool"),
            ("restrict_vocab", 1, "a bool"),
            ("output_dir", None, "a string"),
            ("existing_labels", "GetWeather", "a tuple of strings"),
            ("emerging_labels", ("RateBook", 3), "a tuple of strings"),
        ],
    )
    def test_wrong_type_in_any_field_is_named(self, key, value, kind):
        # a string sigma escaped as a bare TypeError from its range check,
        # and a string label set or a truthy string flag passed
        with pytest.raises(ContractError, match=f"{key} must be {kind}, got"):
            RunConfig(**{key: value}).validate()

    def test_int_in_float_field_passes(self):
        RunConfig(sigma=4, learning_rate=1, margin_neg=0).validate()

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

    @pytest.mark.parametrize(
        "line, key", [("epochs = abc", "epochs"), ("sigma = 4,0", "sigma"), ("restrict_vocab = maybe", "restrict_vocab")]
    )
    def test_non_numeric_value_is_named(self, tmp_path, line, key):
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n", encoding="utf-8")
        raw = line.split("=", 1)[1].strip()
        with pytest.raises(ContractError, match=f"config key {key} expects .*{raw!r}"):
            load_config(p)

    def test_not_utf8_is_named(self, tmp_path):
        # escaped as a bare UnicodeDecodeError
        p = tmp_path / "run.cfg"
        p.write_bytes(b"epochs = 3\nexisting_labels = Caf\xe9\n")
        with pytest.raises(ContractError, match=f"{p}: not UTF-8 text"):
            load_config(p)

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        # the mark made the first key '\ufeffepochs', an unknown key
        p = tmp_path / "run.cfg"
        p.write_bytes(b"\xef\xbb\xbfepochs = 3\nseed = 5\n")
        cfg = load_config(p)
        assert (cfg.epochs, cfg.seed) == (3, 5)

    @pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x85", "\u2028"], ids=["ff", "fs", "nel", "ls"])
    def test_separator_in_a_comment_keeps_line_numbers(self, tmp_path, sep):
        # str.splitlines broke the comment in two, so its second half
        # failed as line 2 and every later line number shifted by one
        p = tmp_path / "run.cfg"
        p.write_text(f"# a comment{sep}that goes on\nepochs = 3\n", encoding="utf-8")
        assert load_config(p).epochs == 3
        p.write_text(f"# a comment{sep}that goes on\nepochs = 3\nseed 5\n", encoding="utf-8")
        with pytest.raises(ContractError, match=f"{p}:3: expected key=value"):
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
