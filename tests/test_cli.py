"""CLI behavior: flags, exit codes, output files, reproducibility headers."""

import json
import os
import shlex
import stat
from dataclasses import asdict

import numpy as np
import pytest

import flycap.cli as cli
import flycap.verify as verify
from flycap.cli import main, parse_int_grid
from flycap.data import SplitSpec, load_csv, save_csv, synth_blobs
from flycap.experiments import GridPoint, SweepSpec, SynthSpec, run_sweep
from flycap.svm import TrainSpec


class TestParsing:
    def test_range_syntax(self):
        assert parse_int_grid("1:5") == [1, 2, 3, 4, 5]
        assert parse_int_grid("2:10:3") == [2, 5, 8]
        assert parse_int_grid("4,7,9") == [4, 7, 9]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            parse_int_grid("5:1")
        with pytest.raises(ValueError):
            parse_int_grid("1:5:0")

    def test_unknown_flag_is_an_error(self, capsys):
        assert main(["bounds", "jl", "--epsilon", "0.5", "--n", "10",
                     "--p", "0.1", "--bogus", "1"]) == 1

    def test_unknown_subcommand(self):
        assert main(["explode"]) == 1


class TestBounds:
    def test_jl_prints_reference_value(self, capsys):
        code = main(["bounds", "jl", "--epsilon", "0.5", "--n", "2000", "--p", "0.05"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("0.99998")

    def test_moments(self, capsys):
        assert main(["bounds", "moments", "--p", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "zero_prob=0.905" in out and "variance=0.095" in out

    def test_cap_bound(self, capsys):
        assert main(["bounds", "cap", "--norm", "10", "--k", "3", "--p-norm", "1"]) == 0
        assert capsys.readouterr().out.strip() == "5.0"

    def test_det_threshold(self, capsys):
        assert main(["bounds", "det", "--m", "1", "--p", "0.5", "--epsilon", "0.5"]) == 0
        assert capsys.readouterr().out.strip().startswith("-1.34657")

    def test_domain_error_exit_code(self, capsys):
        code = main(["bounds", "jl", "--epsilon", "1.5", "--n", "10", "--p", "0.1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["det", "--m", "8", "--p", "0.3", "--epsilon", "nan"],
        ["det", "--m", "8", "--p", "0.3", "--epsilon", "inf"],
        ["cap", "--norm", "nan", "--k", "3", "--p-norm", "1"],
        ["cap", "--norm", "inf", "--k", "3", "--p-norm", "1"],
    ])
    def test_non_finite_input_exits_1(self, capsys, argv):
        assert main(["bounds", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err


class TestVerifyCommand:
    @pytest.mark.parametrize("suite, flags, trials", [
        ("invertibility", ["--p", "0.1", "--m", "1:2"], 10000),
        ("jl", ["--p", "0.1", "--m", "5", "--n", "50"], 1000),
        ("opnorm", ["--p", "0.1", "--m", "5", "--n", "10,20"], 1000),
        ("det", ["--p", "0.1", "--m", "5"], 1000),
        ("cap", ["--length", "50"], 1000),
    ])
    def test_parser_defaults(self, suite, flags, trials):
        args = cli.build_parser().parse_args(["verify", suite, *flags, "--out", "x.csv"])
        assert (args.trials, args.seed) == (trials, 42)

    def test_invertibility_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "inv.csv"
        code = main([
            "verify", "invertibility", "--p", "0.1", "--m", "1:2",
            "--trials", "150", "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        assert "seed=42" in capsys.readouterr().out
        text = out.read_text().splitlines()
        assert text[0].startswith("# flycap verify invertibility")
        assert text[1] == "m,p,trials,estimate,stderr,bound,passed"
        summary = json.loads((tmp_path / "inv.json").read_text().split("\n", 1)[1])
        assert summary["suite"] == "invertibility"
        assert len(summary["records"]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        argv = [
            "verify", "cap", "--length", "50", "--trials", "20",
            "--seed", "9", "--out", str(tmp_path / "cap.csv"),
        ]
        main(argv)
        first = (tmp_path / "cap.csv").read_bytes(), (tmp_path / "cap.json").read_bytes()
        main(argv)
        second = (tmp_path / "cap.csv").read_bytes(), (tmp_path / "cap.json").read_bytes()
        assert first == second

    def test_suite_failure_exits_2(self, tmp_path, monkeypatch):
        failing = verify.SuiteResult(
            "jl_preservation",
            [{"estimate": 0.0, "bound": 1.0, "passed": False}],
        )
        monkeypatch.setattr(verify, "jl_preservation", lambda *a, **k: failing)
        monkeypatch.setattr(cli.verify, "jl_preservation", lambda *a, **k: failing)
        code = main([
            "verify", "jl", "--p", "0.05", "--m", "5", "--n", "50",
            "--trials", "10", "--out", str(tmp_path / "jl.csv"),
        ])
        assert code == 2

    def test_validation_error_exits_1(self, tmp_path, capsys):
        code = main([
            "verify", "jl", "--p", "1.5", "--m", "5", "--n", "50",
            "--out", str(tmp_path / "jl.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 74.5 GiB"), "Unable to allocate 74.5 GiB"),
        (MemoryError(), "MemoryError"),
    ])
    def test_memory_error_exits_1(self, tmp_path, capsys, monkeypatch, exc, message):
        """The callee raises at once, so nothing large is allocated."""

        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli.verify, "invertibility_curve", out_of_memory)
        code = main([
            "verify", "invertibility", "--p", "0.05", "--m", "100000",
            "--trials", "1", "--out", str(tmp_path / "inv.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "inv.csv").exists()

    def test_non_finite_det_epsilon_exits_1_and_writes_nothing(self, tmp_path, capsys):
        code = main([
            "verify", "det", "--p", "0.3", "--m", "8", "--epsilon", "nan",
            "--trials", "10", "--out", str(tmp_path / "det.csv"),
        ])
        assert code == 1
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_out_without_csv_suffix_exits_1_and_writes_nothing(self, tmp_path, capsys):
        code = main([
            "verify", "cap", "--length", "10", "--trials", "5",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "must end in .csv" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestTransformCommand:
    def make_input(self, tmp_path, rows=8):
        d = synth_blobs(2, rows // 2, 12, 1.0, 0.2, 3)
        path = tmp_path / "in.csv"
        save_csv(d, path)
        return path, d

    def test_transform_file(self, tmp_path):
        path, d = self.make_input(tmp_path)
        out = tmp_path / "out.csv"
        code = main([
            "transform", "--input", str(path), "--output", str(out),
            "--n", "40", "--p", "0.1", "--k", "10", "--seed", "5",
        ])
        assert code == 0
        result = load_csv(out)
        assert result.features.shape == (8, 40)
        assert np.array_equal(result.labels, d.labels)
        assert np.all((result.features != 0).sum(axis=1) <= 10)

    def test_k_equal_n_keeps_projection(self, tmp_path):
        path, _ = self.make_input(tmp_path)
        out = tmp_path / "out.csv"
        main([
            "transform", "--input", str(path), "--output", str(out),
            "--n", "20", "--p", "0.3", "--k", "20", "--seed", "5",
        ])
        result = load_csv(out)
        # dense input through a 20-dim projection: almost surely no zeros
        assert np.mean(result.features != 0) > 0.5

    def test_deterministic_output(self, tmp_path):
        path, _ = self.make_input(tmp_path)
        out = tmp_path / "out.csv"
        argv = [
            "transform", "--input", str(path), "--output", str(out),
            "--n", "30", "--p", "0.1", "--k", "6", "--seed", "7",
        ]
        main(argv)
        first = out.read_bytes()
        main(argv)
        assert out.read_bytes() == first


class TestSynthCommand:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code = main([
            "synth", "--classes", "3", "--per-class", "4", "--dim", "6",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        assert "seed=11" in capsys.readouterr().out
        d = load_csv(out)
        assert d.features.shape == (12, 6)
        assert out.read_text().startswith("# flycap synth")

    def test_file_mode_as_plain_open(self, tmp_path):
        """Outputs get the mode open(path, "w") would give: 0o666 less
        the umask for a new file, the old mode for an overwritten one."""
        out = tmp_path / "synth.csv"
        argv = [
            "synth", "--classes", "2", "--per-class", "2", "--dim", "3",
            "--seed", "1", "--out", str(out),
        ]
        saved = os.umask(0o027)
        try:
            assert main(argv) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o640
            out.chmod(0o604)
            assert main(argv) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o604
        finally:
            os.umask(saved)
        assert os.listdir(tmp_path) == ["synth.csv"]

    @pytest.mark.parametrize("spelling", [["--seed=9"], ["--se", "9"]])
    def test_header_records_given_seed_once(self, tmp_path, spelling):
        """Any spelling of --seed is recorded once, as typed; the data
        is that of `--seed 9`, whose header is the argv alone."""
        flags = ["synth", "--classes", "2", "--per-class", "2", "--dim", "3"]
        outputs = {}
        for form in (spelling, ["--seed", "9"]):
            out = tmp_path / "synth.csv"
            argv = [*flags, *form, "--out", str(out)]
            assert main(argv) == 0
            header, body = out.read_text().split("\n", 1)
            assert header == "# " + shlex.join(["flycap", *argv])
            outputs[tuple(form)] = body
        assert len(set(outputs.values())) == 1

    def test_header_appends_defaulted_seed(self, tmp_path):
        out = tmp_path / "synth.csv"
        argv = ["synth", "--classes", "2", "--per-class", "2", "--dim", "3", "--out", str(out)]
        assert main(argv) == 0
        header = out.read_text().split("\n", 1)[0]
        assert header == "# " + shlex.join(["flycap", *argv]) + " --seed 42"

    @pytest.mark.parametrize("flag", ["--noise-sigma", "--center-scale"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_exits_1_and_writes_nothing(self, tmp_path, capsys, flag, value):
        code = main(["synth", flag, value, "--out", str(tmp_path / "synth.csv")])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestSweepCommand:
    def synth_csv(self, tmp_path, *extra):
        path = tmp_path / "synth.csv"
        assert main([
            "synth", "--classes", "3", "--per-class", "8", "--dim", "10",
            *extra, "--seed", "7", "--out", str(path),
        ]) == 0
        return str(path)

    def test_noise_sweep_tiny(self, tmp_path):
        out = tmp_path / "fig6.json"
        code = main([
            "sweep", "--dataset", self.synth_csv(tmp_path), "--grid", "noise",
            "--axis", "0.0,0.4", "--repeats", "1",
            "--n", "20", "--k", "5", "--epochs", "3",
            "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text().split("\n", 1)[1])
        assert set(report.keys()) == {"spec", "baseline", "records"}
        assert len(report["records"]) == 6  # 2 sigmas x 3 variants
        table = (tmp_path / "fig6.csv").read_text().splitlines()
        assert table[0].startswith("# flycap sweep")
        assert table[1] == "noise,variant,acc_mean,acc_std,repeats"
        assert len(table) == 2 + 6

    def test_csv_dataset_matches_synth_spec(self, tmp_path):
        """A synthetic set written by `flycap synth` and swept from its
        CSV gives the records and baseline of run_sweep over the same
        SynthSpec: the CSV round trip is bit-exact."""
        dataset = self.synth_csv(
            tmp_path, "--center-scale", "1.5", "--noise-sigma", "0.3"
        )
        out = tmp_path / "sweep.json"
        assert main([
            "sweep", "--dataset", dataset, "--grid", "noise",
            "--axis", "0.0,0.4", "--repeats", "1",
            "--n", "20", "--k", "5", "--epochs", "3",
            "--seed", "4", "--out", str(out),
        ]) == 0
        from_csv = json.loads(out.read_text().split("\n", 1)[1])
        grid = []
        for sigma in (0.0, 0.4):
            grid += [
                GridPoint(variant="baseline", noise_sigma=sigma),
                GridPoint(variant="project", p=0.05, n=20, noise_sigma=sigma),
                GridPoint(variant="cap", p=0.05, n=20, k=5, noise_sigma=sigma),
            ]
        direct = run_sweep(SweepSpec(
            grid=grid,
            synth=SynthSpec(num_classes=3, per_class=8, dim=10),
            repeats=1,
            split=SplitSpec(train_fraction=0.8, seed=4),
            train=TrainSpec(lambda_=1e-4, epochs=3, seed=4),
            seed=4,
        ))
        assert from_csv["records"] == direct.records
        assert from_csv["baseline"] == direct.baseline

    def test_dataset_synth_is_default_synth_spec(self, tmp_path):
        out = tmp_path / "n.json"
        assert main([
            "sweep", "--dataset", "synth", "--grid", "n", "--axis", "8",
            "--repeats", "1", "--epochs", "1", "--seed", "4", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text().split("\n", 1)[1])
        assert report["spec"]["synth"] == asdict(SynthSpec())

    @pytest.mark.parametrize("axis", ["nan", "0,inf", "-0.5"])
    def test_bad_noise_axis_exits_1_and_writes_nothing(self, tmp_path, capsys, axis):
        code = main([
            "sweep", "--dataset", "synth", "--grid", "noise", "--axis", axis,
            "--out", str(tmp_path / "noise.json"),
        ])
        assert code == 1
        assert "noise_sigma must be finite and >= 0" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("out", ["synth.json", "synth.csv"])
    def test_output_onto_dataset_exits_1_and_keeps_it(self, tmp_path, capsys, out):
        """The report or its table sitting on the dataset path would
        overwrite the input; the sweep refuses before running."""
        dataset = self.synth_csv(tmp_path)
        before = (tmp_path / "synth.csv").read_bytes()
        code = main([
            "sweep", "--dataset", dataset, "--grid", "n", "--axis", "8",
            "--repeats", "1", "--epochs", "1", "--out", str(tmp_path / out),
        ])
        assert code == 1
        assert "would overwrite --dataset" in capsys.readouterr().err
        assert (tmp_path / "synth.csv").read_bytes() == before
        assert os.listdir(tmp_path) == ["synth.csv"]

    def test_out_without_json_suffix_exits_1_and_writes_nothing(self, tmp_path, capsys):
        code = main([
            "sweep", "--dataset", "synth", "--grid", "n", "--axis", "8",
            "--repeats", "1", "--epochs", "1", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1
        assert "must end in .json" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_noise_axis_with_several_dims_exits_1(self, tmp_path, capsys):
        code = main([
            "sweep", "--dataset", self.synth_csv(tmp_path), "--grid", "noise",
            "--axis", "0", "--n", "16,24", "--repeats", "1", "--epochs", "1",
            "--out", str(tmp_path / "noise.json"),
        ])
        assert code == 1
        assert "the noise axis takes a single n" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["synth.csv"]

    def test_n_axis_with_fixed_dims_exits_1(self, tmp_path, capsys):
        code = main([
            "sweep", "--dataset", self.synth_csv(tmp_path), "--grid", "n",
            "--axis", "16", "--n", "500", "--repeats", "1", "--epochs", "1",
            "--out", str(tmp_path / "n.json"),
        ])
        assert code == 1
        assert "the n axis takes its dims as values" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["synth.csv"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "sweep", "--dataset", self.synth_csv(tmp_path), "--grid", "k",
            "--axis", "0,4", "--repeats", "1",
            "--n", "16", "--epochs", "2", "--seed", "4",
            "--out", str(tmp_path / "k.json"),
        ]
        outputs = []
        for _ in range(2):
            assert main(args) == 0
            outputs.append(
                ((tmp_path / "k.json").read_bytes(), (tmp_path / "k.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_p_sweep_tiny(self, tmp_path):
        out = tmp_path / "fig3.json"
        code = main([
            "sweep", "--dataset", self.synth_csv(tmp_path), "--grid", "p",
            "--axis", "0.05,0.2", "--repeats", "1",
            "--n", "16,24", "--epochs", "3", "--seed", "4",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text().split("\n", 1)[1])
        assert len(report["records"]) == 4  # 2 p values x 2 dims
        assert all(rec["k"] is None for rec in report["records"])
