"""End-to-end tests for the command-line front end."""

import numpy as np
import pytest

from inductionfd import Grid2D, MagneticField
from inductionfd.cli import main, parse_args, write_error_table, write_field_dump
from inductionfd.diagnostics import ErrorRecord


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParseArgs:
    def test_defaults(self):
        config = parse_args(["--experiment", "1"])
        assert config.experiment == 1
        assert config.scheme == "sbp2"
        assert config.nx == 100 and config.ny == 100
        assert config.cfl == pytest.approx(0.45)
        assert config.t_final is None
        assert config.integrator == "rk2"
        assert config.dissipation is None
        assert config.theta == 1.0
        assert config.dump_every == 0
        assert not config.study

    def test_all_flags(self, tmp_path):
        config = parse_args([
            "--experiment", "2", "--scheme", "sbp3", "--nx", "32", "--ny", "48",
            "--cfl", "0.3", "--tfinal", "1.5", "--integrator", "rk4",
            "--theta", "0.5", "--out", str(tmp_path), "--dump-every", "7",
        ])
        assert config.experiment == 2
        assert config.scheme == "sbp3"
        assert (config.nx, config.ny) == (32, 48)
        assert config.t_final == pytest.approx(1.5)
        assert config.integrator == "rk4"
        assert config.theta == pytest.approx(0.5)
        assert config.out == tmp_path
        assert config.dump_every == 7

    def test_sbp4_defaults_to_its_own_integrator_and_cfl(self):
        config = parse_args(["--experiment", "1", "--scheme", "sbp4"])
        assert config.integrator == "rk4"
        assert config.cfl == pytest.approx(0.9)

    def test_explicit_flags_override_scheme_defaults(self):
        config = parse_args(["--experiment", "1", "--scheme", "sbp4",
                             "--integrator", "rk2", "--cfl", "0.45"])
        assert config.integrator == "rk2"
        assert config.cfl == pytest.approx(0.45)
        config = parse_args(["--experiment", "1", "--scheme", "sbp2",
                             "--integrator", "rk4", "--cfl", "0.9"])
        assert config.integrator == "rk4"
        assert config.cfl == pytest.approx(0.9)

    def test_missing_experiment_raises(self):
        with pytest.raises(SystemExit):
            parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--experiment", "4"],
            ["--experiment", "1", "--scheme", "sbp9"],
            ["--experiment", "1", "--scheme", "sbp1", "--dissipation", "accurate"],
            ["--experiment", "1", "--scheme", "sbp4", "--nx", "5"],
            ["--experiment", "1", "--cfl", "0"],
            ["--experiment", "1", "--cfl", "1.5"],
            ["--experiment", "1", "--theta", "0.2"],
            ["--experiment", "1", "--tfinal", "-1"],
            ["--experiment", "1", "--dump-every", "-2"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err != ""

    def test_upwind_scheme_conflict_names_alternative(self, capsys):
        assert main(["--experiment", "1", "--scheme", "sbp3",
                     "--dissipation", "none"]) == 1
        assert "sbp2/sbp4" in capsys.readouterr().err

    def test_redundant_upwind_flag_accepted(self):
        config = parse_args(["--experiment", "1", "--scheme", "sbp1",
                             "--dissipation", "upwind"])
        assert config.dissipation == "upwind"

    def test_study_skips_grid_size_check(self):
        config = parse_args(["--experiment", "1", "--scheme", "sbp4",
                             "--nx", "5", "--study"])
        assert config.study

    def test_too_small_grid_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--experiment", "1", "--scheme", "sbp4", "--nx", "12",
                     "--ny", "7", "--out", str(out)]) == 1
        assert "needs at least 8 points, got 7" in capsys.readouterr().err
        assert not out.exists()


class TestSingleRun:
    def test_initial_data_run_writes_outputs(self, tmp_path):
        code = main([
            "--experiment", "1", "--scheme", "sbp2", "--nx", "21", "--ny", "21",
            "--tfinal", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        header, rows = _read_csv(tmp_path / "fields_final.csv")
        assert header == ["x", "y", "B1", "B2", "Bmag", "divP"]
        assert len(rows) == 21 * 21

        # rows are x-major, y-inner: the first block shares x = -1
        first_block = rows[:21]
        assert {r[0] for r in first_block} == {"-1"}
        ys = [float(r[1]) for r in first_block]
        assert ys == sorted(ys)

        # |B| peaks on the ring of radius 1/sqrt(40) around (1/2, 0)
        best = max(rows, key=lambda r: float(r[4]))
        assert abs(float(best[0]) - 0.5) < 0.25
        assert abs(float(best[1])) < 0.25

        # at t = 0 the sampled state equals the exact one
        header, rows = _read_csv(tmp_path / "error_table.csv")
        assert header == ["grid", "error_percent", "error_rate", "div_l2",
                          "div_rate", "energy", "time"]
        assert len(rows) == 1
        assert rows[0][0] == "21x21"
        assert float(rows[0][1]) == 0.0

        meta = (tmp_path / "fields_final.csv.meta").read_text()
        assert meta.startswith("# ")
        assert "experiment=1" in meta and "scheme=sbp2" in meta
        assert "grid=21x21" in meta

    def test_short_run_reports_error(self, tmp_path, capsys):
        code = main([
            "--experiment", "3", "--scheme", "sbp1", "--nx", "12", "--ny", "12",
            "--tfinal", "0.05", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment 3 sbp1 12x12" in out
        _, rows = _read_csv(tmp_path / "error_table.csv")
        assert float(rows[0][1]) > 0.0
        assert np.isfinite(float(rows[0][5]))

    def test_runs_are_byte_deterministic(self, tmp_path):
        argv = ["--experiment", "3", "--scheme", "sbp1", "--nx", "12",
                "--ny", "12", "--tfinal", "0.05"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("fields_final.csv", "error_table.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_dump_every_writes_step_files(self, tmp_path):
        code = main([
            "--experiment", "3", "--scheme", "sbp1", "--nx", "12", "--ny", "12",
            "--tfinal", "0.05", "--dump-every", "5", "--out", str(tmp_path),
        ])
        assert code == 0
        dumps = sorted(tmp_path.glob("fields_step*.csv"))
        assert dumps[0].name == "fields_step000000.csv"
        assert len(dumps) >= 2  # the initial state plus at least the final step
        meta = (dumps[0].with_suffix(".csv.meta")).read_text()
        assert "t=0" in meta

    def test_instability_exits_2(self, tmp_path, capsys):
        with np.errstate(over="ignore"):
            code = main([
                "--experiment", "3", "--scheme", "sbp4", "--nx", "100",
                "--ny", "100", "--cfl", "1.0", "--tfinal", "8.0",
                "--integrator", "rk2", "--out", str(tmp_path),
            ])
        assert code == 2
        assert "instability" in capsys.readouterr().err


    def test_overflowing_error_exits_2(self, tmp_path, capsys):
        """A run that stays finite but whose error and P-energy overflow has
        blown up; it must not exit 0 reporting ``error inf%``."""
        with np.errstate(over="ignore"):
            code = main([
                "--experiment", "3", "--scheme", "sbp4", "--nx", "60", "--ny", "60",
                "--cfl", "0.8", "--tfinal", "20", "--dissipation", "none",
                "--integrator", "rk2", "--out", str(tmp_path),
            ])
        assert code == 2
        captured = capsys.readouterr()
        assert "instability" in captured.err and "inf" in captured.err
        assert "error inf%" not in captured.out
        assert not (tmp_path / "error_table.csv").exists()

    def test_finite_blow_up_exits_2(self, tmp_path, capsys):
        """The run ends finite with error 1.5e139 percent: its P-energy is far
        above the limit, so it is an instability, not exit 0."""
        with np.errstate(over="ignore"):
            code = main([
                "--experiment", "3", "--scheme", "sbp4", "--nx", "30", "--ny", "30",
                "--cfl", "0.8", "--tfinal", "20", "--dissipation", "none",
                "--integrator", "rk2", "--out", str(tmp_path),
            ])
        assert code == 2
        captured = capsys.readouterr()
        assert "instability" in captured.err and "times the larger" in captured.err
        assert "error" not in captured.out
        assert not (tmp_path / "error_table.csv").exists()


class TestWriteFieldDump:
    @staticmethod
    def _per_node(x, y, data, mag, div, meta):
        """CSV and sidecar as a node-by-node writer formats them."""
        lines = ["x,y,B1,B2,Bmag,divP\n"]
        for i in range(len(x)):
            for j in range(len(y)):
                lines.append(
                    f"{x[i]:.6g},{y[j]:.6g},{data[0, i, j]:.6g},{data[1, i, j]:.6g},"
                    f"{mag[i, j]:.6g},{div[i, j]:.6g}\n"
                )
        meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"
        return "".join(lines), meta_line

    @pytest.mark.parametrize("npx, npy", [(13, 7), (2, 31)])
    def test_matches_per_node_writer(self, tmp_path, npx, npy):
        rng = np.random.default_rng(npx + npy)
        grid = Grid2D(-1.0, 0.3, 1e-7, 2.0, npx, npy)
        scale = 10.0 ** rng.integers(-320, 150, size=(2, npx, npy))
        data = rng.standard_normal((2, npx, npy)) * scale
        data.flat[::5] = -0.0
        data.flat[1::9] = 5e-324
        div = rng.standard_normal((npx, npy)) * 1e-9
        div[0] = -0.0
        field = MagneticField(grid, data)
        meta = {"experiment": 3, "scheme": "sbp1", "t": "0.5"}
        path = tmp_path / "dump.csv"
        write_field_dump(field, div, path, meta)
        csv, sidecar = self._per_node(grid.x, grid.y, data, field.magnitude(), div, meta)
        assert path.read_text() == csv
        assert (tmp_path / "dump.csv.meta").read_text() == sidecar
        assert "-0," in csv and "4.94066e-324" in csv


class TestStudyRun:
    def test_single_grid_study_writes_table(self, tmp_path, capsys):
        code = main([
            "--experiment", "3", "--scheme", "sbp1", "--study",
            "--tfinal", "0.05", "--out", str(tmp_path),
        ])
        assert code == 0
        table = tmp_path / "table_exp3_sbp1.csv"
        assert f"wrote {table}" in capsys.readouterr().out
        header, rows = _read_csv(table)
        assert header[0] == "grid"
        assert len(rows) == 1  # the experiment defines a single grid
        assert rows[0][0] == "100x100"
        assert rows[0][2] == ""  # no rate without a refinement pair

    def test_failed_study_exits_2(self, tmp_path, capsys):
        with np.errstate(over="ignore"):
            code = main([
                "--experiment", "3", "--scheme", "sbp4", "--study",
                "--dissipation", "none", "--cfl", "1.0", "--tfinal", "8.0",
                "--integrator", "rk2", "--out", str(tmp_path),
            ])
        assert code == 2
        assert "FAILED" in capsys.readouterr().out
        assert (tmp_path / "table_exp3_sbp4.csv").exists()


class TestWriteErrorTable:
    def test_rates_with_failed_row_stay_blank(self, tmp_path):
        records = [
            ErrorRecord("10x10", 4.0, 0.4, 1.0, 1.0),
            ErrorRecord("20x20", np.nan, np.nan, np.nan, 1.0, failed=True),
            ErrorRecord("40x40", 0.25, 0.025, 1.0, 1.0),
        ]
        path = tmp_path / "table.csv"
        write_error_table(records, path)
        _, rows = _read_csv(path)
        assert [r[2] for r in rows] == ["", "", ""]
        assert rows[1][1] == "nan"

    def test_rates_reported_per_pair(self, tmp_path):
        records = [
            ErrorRecord("10x10", 4.0, 0.8, 1.0, 1.0),
            ErrorRecord("20x20", 1.0, 0.4, 1.0, 1.0),
        ]
        path = tmp_path / "table.csv"
        write_error_table(records, path)
        _, rows = _read_csv(path)
        assert rows[1][2] == "2"
        assert rows[1][4] == "1"

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_error_table([], tmp_path / "table.csv")
