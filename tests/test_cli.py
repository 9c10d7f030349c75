"""Tests for the ``qcapsnets`` command-line interface."""

import json

import numpy as np
import pytest

from repro.api import QuantSpec
from repro.cli import (
    build_model,
    build_parser,
    main,
    parse_tenant,
    resolve_spec,
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults_resolve_to_spec_defaults(self):
        args = build_parser().parse_args(["train", "--out", "x.npz"])
        spec = resolve_spec(args)
        assert spec.model == "shallow-small"
        assert spec.dataset == "digits"
        assert spec == QuantSpec()
        assert args.epochs == 6

    def test_quantize_scheme_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["quantize", "--weights", "w.npz", "--scheme", "FOO"]
            )

    def test_quantize_workers_flag(self):
        """One search never forks, so ``quantize`` has no ``--workers``
        (``select`` keeps it for its scheme branches)."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["quantize", "--weights", "w.npz", "--workers", "3"]
            )
        default = build_parser().parse_args(["quantize", "--weights", "w.npz"])
        assert resolve_spec(default).workers == 1

    def test_select_defaults(self):
        args = build_parser().parse_args(["select", "--weights", "w.npz"])
        spec = resolve_spec(args)
        assert set(spec.schemes) == {"TRN", "RTN", "SR"}
        assert spec.workers == 1
        assert spec.tolerance == 0.015

    def test_select_scheme_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["select", "--weights", "w.npz", "--schemes", "TRN", "FOO"]
            )

    def test_select_duplicate_schemes_clean_error(self):
        with pytest.raises(SystemExit, match="duplicate"):
            main(["select", "--weights", "w.npz",
                  "--schemes", "TRN", "TRN"])

    def test_shared_search_options_land_in_both(self):
        """The factored option group keeps quantize and select in sync."""
        for command, extra in (("quantize", []),
                               ("select", ["--workers", "2"])):
            args = build_parser().parse_args([
                command, "--weights", "w.npz", "--tolerance", "0.05",
                "--budget-mbit", "0.25", *extra,
            ])
            spec = resolve_spec(args)
            assert spec.tolerance == 0.05
            assert spec.budget_mbit == 0.25
            assert spec.workers == (2 if extra else 1)
            assert spec.weights == "w.npz"

    def test_spec_file_with_flag_overrides(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        QuantSpec(model="shallow-tiny", tolerance=0.1, seed=7).save(spec_path)
        for command in ("quantize", "select"):
            args = build_parser().parse_args(
                [command, "--spec", str(spec_path), "--tolerance", "0.2"]
            )
            spec = resolve_spec(args)
            assert spec.model == "shallow-tiny"  # from the file
            assert spec.seed == 7                # from the file
            assert spec.tolerance == 0.2         # explicit flag wins

    def test_bad_spec_file_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text('{"modle": "shallow-tiny"}')
        with pytest.raises(SystemExit, match="unknown spec field"):
            main(["quantize", "--spec", str(bad), "--weights", "w.npz"])

    def test_quantize_requires_weights(self):
        with pytest.raises(SystemExit, match="trained weights"):
            main(["quantize", "--model", "shallow-tiny"])

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--artifact", "a.npz", "--artifact", "alt=b.npz"]
        )
        assert args.artifact == ["a.npz", "alt=b.npz"]
        assert args.port == 8080
        assert args.max_batch == 64
        assert args.max_wait_ms == 2.0
        assert args.max_warm == 4
        assert args.batch_size is None

    def test_serve_workers_flag_is_gone(self):
        """The daemon runs one in-process dispatcher: ``--workers`` is
        an argparse error, as for ``quantize``."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--artifact", "a.npz", "--workers", "2"]
            )

    def test_serve_requires_an_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    @pytest.mark.parametrize("spec, expected", [
        ("model.qcn.npz", ("model", "model.qcn.npz")),
        ("dir/sub/model.npz", ("model", "dir/sub/model.npz")),
        ("alt=weird name.npz", ("alt", "weird name.npz")),
        ("plain", ("plain", "plain")),
    ])
    def test_serve_tenant_naming(self, spec, expected):
        assert parse_tenant(spec) == expected


class TestBuildModel:
    def test_dataset_shapes_respected(self):
        model = build_model("deep-small", "cifar")
        assert model.config.input_channels == 3
        assert model.config.input_size == 32
        gray = build_model("shallow-small", "fashion")
        assert gray.config.input_channels == 1

    def test_tiny_rejects_cifar(self):
        with pytest.raises(SystemExit):
            build_model("shallow-tiny", "cifar")

    def test_unknown_model(self):
        with pytest.raises(SystemExit):
            build_model("nope", "digits")


class TestEndToEndCli:
    """Full pipeline through the CLI with tiny settings (seconds)."""

    def test_train_quantize_evaluate_predict_roundtrip(self, tmp_path, capsys):
        weights = tmp_path / "weights.npz"
        artifact = tmp_path / "artifact.npz"
        predictions = tmp_path / "predictions.json"
        base = [
            "--model", "shallow-tiny", "--dataset", "digits",
            "--test-size", "128", "--seed", "1",
        ]
        assert main([
            "train", *base, "--train-size", "600", "--epochs", "6",
            "--batch-size", "32", "--out", str(weights),
        ]) == 0
        assert weights.exists()

        assert main([
            "quantize", *base, "--weights", str(weights),
            "--tolerance", "0.1", "--budget-divisor", "4",
            "--out", str(artifact),
        ]) == 0
        assert artifact.exists()
        # The artifact ships with a JSON sidecar report (spec provenance
        # + accuracy/memory summary) for dashboards and CI uploads.
        sidecar = tmp_path / "artifact.json"
        assert sidecar.exists()
        meta = json.loads(sidecar.read_text())
        assert meta["format"] == "qcapsnets/model-artifact"
        assert meta["spec"]["model"] == "shallow-tiny"
        out = capsys.readouterr().out
        assert "Q-CapsNets result" in out

        assert main(["evaluate", *base, "--artifact", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "quantized accuracy" in out

        # predict needs no --model/--dataset: the artifact's embedded
        # spec provenance rebuilds the session.
        assert main([
            "predict", "--artifact", str(artifact),
            "--num", "4", "--out", str(predictions),
        ]) == 0
        out = capsys.readouterr().out
        assert "served accuracy" in out
        payload = json.loads(predictions.read_text())
        assert len(payload["predictions"]) == 128
        assert payload["accuracy"] == pytest.approx(
            100.0 * np.mean(
                np.array(payload["predictions"])
                == np.array(payload["labels"])
            )
        )

        assert main([
            "select", *base, "--weights", str(weights),
            "--tolerance", "0.1", "--budget-divisor", "4",
            "--schemes", "TRN", "RTN", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Rounding-scheme selection" in out

    def test_hw_report(self, capsys):
        assert main([
            "hw-report", "--model", "shallow-paper",
            "--qw", "7", "--qa", "5", "--qdr", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "MAC unit sweep" in out
        assert "energy reduction" in out
        assert "speedup" in out
