"""Sweep orchestration: seeding, report schema, figure tables."""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from flycap import experiments
from flycap.data import SplitSpec, save_csv, synth_blobs
from flycap.experiments import (
    ExperimentReport,
    GridPoint,
    SweepSpec,
    SynthSpec,
    fig_tables,
    preset_grid,
    run_sweep,
)
from flycap.svm import TrainSpec


def tiny_spec(grid, repeats=2, **overrides):
    """Small synthetic sweep that runs in well under a second per cell."""
    fields = dict(
        grid=tuple(grid),
        synth=SynthSpec(
            num_classes=3, per_class=12, dim=16, center_scale=2.0,
            noise_sigma=0.3, seed=5,
        ),
        repeats=repeats,
        split=SplitSpec(train_fraction=0.75, seed=1),
        train=TrainSpec(lambda_=1e-3, epochs=4, seed=2),
        seed=99,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestGridPoint:
    def test_baseline_ignores_transform_params(self):
        GridPoint(variant="baseline")

    def test_project_requires_p_and_n(self):
        with pytest.raises(ValueError):
            GridPoint(variant="project", p=0.05)
        with pytest.raises(ValueError):
            GridPoint(variant="project", n=100)

    def test_cap_requires_k(self):
        with pytest.raises(ValueError):
            GridPoint(variant="cap", p=0.05, n=100)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            GridPoint(variant="mystery")

    def test_noise_sigma_finite_and_non_negative(self):
        for sigma in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_sigma"):
                GridPoint(variant="baseline", noise_sigma=sigma)


class TestSweepSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            SweepSpec(grid=(GridPoint(variant="baseline"),))
        with pytest.raises(ValueError):
            SweepSpec(
                grid=(GridPoint(variant="baseline"),),
                dataset_path="x.csv",
                synth=SynthSpec(),
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(grid=(), synth=SynthSpec())


class TestRunSweep:
    def test_baseline_grid_point_matches_report_baseline(self):
        """A grid holding only the no-transform point reproduces the
        canonical baseline protocol."""
        report = run_sweep(tiny_spec([GridPoint(variant="baseline")]))
        rec = report.records[0]
        assert rec["variant"] == "baseline"
        assert rec["acc_mean"] == pytest.approx(report.baseline["acc_mean"], abs=1e-12)
        assert rec["acc_std"] == pytest.approx(report.baseline["acc_std"], abs=1e-12)

    def test_deterministic_modulo_timing(self):
        spec = tiny_spec(
            [GridPoint(variant="project", p=0.1, n=32),
             GridPoint(variant="cap", p=0.1, n=32, k=8)]
        )
        a, b = run_sweep(spec), run_sweep(spec)
        assert a.to_json_obj() == b.to_json_obj()

    def test_record_schema(self):
        report = run_sweep(tiny_spec([GridPoint(variant="cap", p=0.1, n=32, k=8)]))
        rec = report.records[0]
        assert list(rec.keys()) == [
            "p", "n", "k", "sigma", "variant",
            "acc_mean", "acc_std", "sparsity",
        ]
        assert 0.0 <= rec["acc_mean"] <= 1.0

    def test_cap_sparsity_is_k_over_n(self):
        report = run_sweep(tiny_spec([GridPoint(variant="cap", p=0.1, n=32, k=8)]))
        assert report.records[0]["sparsity"] == pytest.approx(8 / 32)

    def test_k_zero_sparsity_and_chance_accuracy(self):
        report = run_sweep(tiny_spec([GridPoint(variant="cap", p=0.1, n=32, k=0)]))
        rec = report.records[0]
        assert rec["sparsity"] == 0.0
        assert rec["acc_mean"] == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_csv_source(self, tmp_path):
        d = synth_blobs(3, 10, 8, 2.0, 0.2, 3)
        path = tmp_path / "d.csv"
        save_csv(d, path)
        spec = tiny_spec([GridPoint(variant="baseline")], synth=None,
                         dataset_path=str(path))
        report = run_sweep(spec)
        assert report.spec_echo["dataset"] == str(path)

    def test_missing_dataset_rejected(self, tmp_path):
        missing = SweepSpec(
            grid=(GridPoint(variant="baseline"),),
            dataset_path=str(tmp_path / "missing.csv"),
        )
        with pytest.raises(FileNotFoundError):
            run_sweep(missing)

    def test_seeded_k_sweep_regression(self):
        """Pinned seeded results of a small k sweep. Many of its cells
        have features that are constant in train (zero matrix rows, or
        coordinates the cap zeroes in every row), which standardize drops."""
        spec = SweepSpec(
            grid=preset_grid("k", (0, 1, 2, 4, 8), p=0.05, k=0, n_fixed=(16, 64)),
            synth=SynthSpec(num_classes=3, per_class=8, dim=10),
            repeats=3,
        )
        report = run_sweep(spec)
        assert (report.baseline["acc_mean"], report.baseline["acc_std"]) == (1.0, 0.0)
        expected = [
            (16, 0, 0.3333333333333333, 0.0, 0.0),
            (64, 0, 0.3333333333333333, 0.0, 0.0),
            (16, 1, 0.7222222222222222, 0.20786985482077452, 0.0625),
            (64, 1, 0.7222222222222222, 0.07856742013183865, 0.015625),
            (16, 2, 0.8888888888888888, 0.15713484026367724, 0.125),
            (64, 2, 0.6666666666666666, 0.0, 0.03125),
            (16, 4, 0.8333333333333334, 0.23570226039551584, 0.25),
            (64, 4, 0.888888888888889, 0.0785674201318386, 0.0625),
            (16, 8, 0.8888888888888888, 0.15713484026367724, 0.4791666666666667),
            (64, 8, 1.0, 0.0, 0.125),
        ]
        keys = ("n", "k", "acc_mean", "acc_std", "sparsity")
        assert [tuple(rec[key] for key in keys) for rec in report.records] == expected

    def test_seeded_noise_sweep_regression(self):
        """Pinned seeded results of a small noise sweep over two repeats:
        baseline, projection and cap at sigma 0 and 0.75, and k=0."""
        spec = SweepSpec(
            grid=preset_grid("noise", (0.0, 0.75), p=0.1, k=4, n_fixed=(32,))
            + [GridPoint(variant="cap", p=0.1, n=32, k=0, noise_sigma=0.75)],
            synth=SynthSpec(num_classes=3, per_class=8, dim=10),
            repeats=2,
        )
        report = run_sweep(spec)
        assert (report.baseline["acc_mean"], report.baseline["acc_std"]) == (1.0, 0.0)
        expected = [
            ("baseline", 0.0, None, 1.0, 0.0, 1.0),
            ("project", 0.0, None, 1.0, 0.0, 0.78125),
            ("cap", 0.0, 4, 0.8333333333333333, 0.16666666666666669, 0.125),
            ("baseline", 0.75, None, 0.8333333333333334, 0.0, 1.0),
            ("project", 0.75, None, 0.5, 0.16666666666666666, 0.875),
            ("cap", 0.75, 4, 0.8333333333333334, 0.0, 0.125),
            ("cap", 0.75, 0, 0.3333333333333333, 0.0, 0.0),
        ]
        keys = ("variant", "sigma", "k", "acc_mean", "acc_std", "sparsity")
        assert [tuple(rec[key] for key in keys) for rec in report.records] == expected

    def test_cap_cell_holds_no_dense_block(self):
        """A cap cell carries each set as its k (column, value) pairs per
        row, so at n=20000 its traced peak stays under half of one dense
        (train + test) x n float64 block. The small set at k=20 measured
        0.28 blocks, mostly the projection's 32-row scratch, and
        SynthSpec() at k=200 measured 0.15; dense sets held about 1.8."""
        cells = [(SynthSpec(num_classes=10, per_class=40, dim=50), 20), (SynthSpec(), 200)]
        for synth, k in cells:
            point = GridPoint(variant="cap", p=0.05, n=20000, k=k)
            spec = SweepSpec(grid=(point,), synth=synth, repeats=1, train=TrainSpec(epochs=1))
            base = synth_blobs(**asdict(synth))
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                entry, _ = tracemalloc.get_traced_memory()
                experiments._run_cell(base, point, spec, 1, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            block = base.n_samples * point.n * 8
            assert peak - entry <= 0.5 * block, f"{(peak - entry) / block:.2f} blocks at k={k}"

    def test_oversized_k_is_clamped_to_n(self):
        report = run_sweep(
            tiny_spec([GridPoint(variant="cap", p=0.1, n=4, k=100)], repeats=1)
        )
        assert report.records[0]["sparsity"] == pytest.approx(1.0)

    def test_failed_grid_point_carries_context(self, monkeypatch):
        """A failure inside one grid point aborts the sweep and names
        the point."""
        from flycap.experiments import SweepError

        original = experiments._run_cell

        def explode(base, point, spec, slot, repeat):
            if slot == 1:  # first real grid point; baseline uses slot 0
                raise ValueError("injected failure")
            return original(base, point, spec, slot, repeat)

        monkeypatch.setattr(experiments, "_run_cell", explode)
        with pytest.raises(SweepError, match="grid point 0"):
            run_sweep(tiny_spec([GridPoint(variant="baseline")], repeats=1))

    def test_noise_grid_three_variants(self):
        points = []
        for sigma in (0.0, 0.5):
            points.append(GridPoint(variant="baseline", noise_sigma=sigma))
            points.append(GridPoint(variant="project", p=0.1, n=32, noise_sigma=sigma))
            points.append(
                GridPoint(variant="cap", p=0.1, n=32, k=8, noise_sigma=sigma)
            )
        report = run_sweep(tiny_spec(points, repeats=1))
        rows = fig_tables(report, "noise")
        assert len(rows) == 6
        by_sigma = {}
        for row in rows:
            by_sigma.setdefault(row["noise"], []).append(row["variant"])
        assert all(len(v) == 3 for v in by_sigma.values())

    def test_noise_reaches_repeated_rows(self):
        """On a noiseless blob set every class is one repeated row. Noise
        drawn per sample makes the baseline fall below 1.0 at a large
        sigma; noise shared by equal rows would leave it at 1.0."""
        spec = tiny_spec(
            [GridPoint(variant="baseline", noise_sigma=s) for s in (0.0, 8.0)],
            synth=SynthSpec(
                num_classes=5, per_class=20, dim=10, center_scale=1.5,
                noise_sigma=0.0, seed=7,
            ),
        )
        clean, noisy = run_sweep(spec).records
        assert clean["acc_mean"] == 1.0
        assert noisy["acc_mean"] < 1.0


class TestPresetGrid:
    def test_noise_presets(self):
        grid = preset_grid("noise", p=0.05, k=200)
        assert len(grid) == 21  # 7 sigmas x 3 variants
        assert {g.n for g in grid if g.variant != "baseline"} == {2000}
        assert [g.variant for g in grid[:3]] == ["baseline", "project", "cap"]

    def test_k_clamped_to_n(self):
        grid = preset_grid("k", (0, 500), p=0.05, k=200, n_fixed=(433,))
        assert [(g.variant, g.n, g.k) for g in grid] == [("cap", 433, 0), ("cap", 433, 433)]

    def test_p_and_n_presets(self):
        assert len(preset_grid("p", p=0.05, k=200)) == 8 * 2  # 8 p values x (433, 2000)
        assert [g.n for g in preset_grid("n", p=0.05, k=200)] == list(range(433, 2834, 100))

    def test_noise_takes_a_single_n(self):
        assert {g.n for g in preset_grid("noise", (0.5,), p=0.1, k=4, n_fixed=(16,))} == {None, 16}
        with pytest.raises(ValueError, match="single n"):
            preset_grid("noise", (0.5,), p=0.1, k=4, n_fixed=(16, 24))

    def test_n_axis_refuses_fixed_dims(self):
        """The n axis varies n itself, so a fixed n would be ignored."""
        with pytest.raises(ValueError, match="n axis"):
            preset_grid("n", (16, 24), p=0.1, k=4, n_fixed=(500,))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            preset_grid("sigma", p=0.1, k=4)


class TestFigTables:
    def make_report(self):
        points = [
            GridPoint(variant="project", p=p, n=n)
            for p in (0.05, 0.2)
            for n in (16, 32)
        ]
        return run_sweep(tiny_spec(points, repeats=1))

    def test_row_count_is_axis_times_variants(self):
        rows = fig_tables(self.make_report(), "p")
        assert len(rows) == 4  # 2 p values x 2 curves
        assert {row["variant"] for row in rows} == {"project,n=16", "project,n=32"}

    def test_axis_values_echoed(self):
        rows = fig_tables(self.make_report(), "p")
        assert sorted({row["p"] for row in rows}) == [0.05, 0.2]
        assert all(row["repeats"] == 1 for row in rows)

    def test_absent_axis_rejected(self):
        report = self.make_report()
        with pytest.raises(ValueError, match="absent"):
            fig_tables(report, "k")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            fig_tables(self.make_report(), "sigma")

    def test_empty_report_rejected(self):
        empty = ExperimentReport(spec_echo={}, baseline={}, records=[])
        with pytest.raises(ValueError, match="no records"):
            fig_tables(empty, "p")


class TestReportJson:
    def test_schema_keys(self):
        report = run_sweep(tiny_spec([GridPoint(variant="cap", p=0.1, n=32, k=4)]))
        obj = report.to_json_obj()
        assert set(obj.keys()) == {"spec", "baseline", "records"}
        assert set(obj["baseline"].keys()) == {"acc_mean", "acc_std"}
        assert set(obj["records"][0].keys()) == {
            "p", "n", "k", "sigma", "variant",
            "acc_mean", "acc_std", "sparsity",
        }
