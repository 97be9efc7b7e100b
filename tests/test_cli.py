"""End-to-end tests for the command-line front end."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from inductionfd import Grid2D, MagneticField, cli
from inductionfd.cli import main, parse_args, write_error_table, write_field_dump
from inductionfd.diagnostics import ErrorRecord
from inductionfd.dumpformat import _format_values
from inductionfd.experiments import (
    COURANT_PER_CFL, EXPERIMENTS, SCHEMES, experiment3, study_config,
)

from reference_dump import reference_dump


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParseArgs:
    def test_defaults(self):
        config = parse_args(["--experiment", "1"])
        assert config.experiment == 1
        assert config.scheme.name == "sbp2"
        assert config.nx == 100 and config.ny == 100
        assert config.scheme.cfl == pytest.approx(0.9)
        assert config.t_final is None
        assert config.scheme.integrator == "rk4"
        assert config.scheme.dissipation == "none"
        assert config.scheme.theta == 1.0
        assert config.dump_every == 0
        assert not config.study

    def test_all_flags(self, tmp_path):
        config = parse_args([
            "--experiment", "2", "--scheme", "sbp3", "--nx", "32", "--ny", "48",
            "--cfl", "0.3", "--tfinal", "1.5", "--integrator", "rk4",
            "--theta", "0.5", "--out", str(tmp_path), "--dump-every", "7",
        ])
        assert config.experiment == 2
        assert config.scheme.name == "sbp3"
        assert (config.nx, config.ny) == (32, 48)
        assert config.scheme.cfl == pytest.approx(0.3)
        assert config.t_final == pytest.approx(1.5)
        assert config.scheme.integrator == "rk4"
        assert config.scheme.theta == pytest.approx(0.5)
        assert config.out == tmp_path
        assert config.dump_every == 7

    def test_sbp4_defaults_to_its_own_integrator_and_cfl(self):
        config = parse_args(["--experiment", "1", "--scheme", "sbp4"])
        assert config.scheme.integrator == "rk4"
        assert config.scheme.cfl == pytest.approx(0.9)

    def test_explicit_flags_override_scheme_defaults(self):
        config = parse_args(["--experiment", "1", "--scheme", "sbp4",
                             "--integrator", "rk2", "--cfl", "0.45"])
        assert config.scheme.integrator == "rk2"
        assert config.scheme.cfl == pytest.approx(0.45)
        config = parse_args(["--experiment", "1", "--scheme", "sbp1",
                             "--integrator", "rk4", "--cfl", "0.3"])
        assert config.scheme.integrator == "rk4"
        assert config.scheme.cfl == pytest.approx(0.3)

    def test_integrator_override_without_cfl_exits_1(self, capsys, tmp_path, monkeypatch):
        """Another integrator under the scheme's cfl would step outside its
        limit (sbp2 under RK2 at Courant 0.9 blows up), so it needs --cfl;
        the scheme's own integrator does not."""
        monkeypatch.chdir(tmp_path)  # the default output directory is ./out
        for argv in (["--nx", "80", "--ny", "80", "--tfinal", "20"], ["--study"]):
            assert main(["--experiment", "3", "--integrator", "rk2"] + argv) == 1
            err = capsys.readouterr().err
            assert "--cfl" in err and "sbp2" in err and "rk4 at cfl 0.9" in err
        assert not (tmp_path / "out").exists()
        config = parse_args(["--experiment", "3", "--integrator", "rk4"])
        assert config.scheme.integrator == "rk4"
        assert config.scheme.cfl == pytest.approx(0.9)

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
            ["--experiment", "1", "--study", "--cfl", "1.5"],
            ["--experiment", "1", "--study", "--theta", "0.2"],
            ["--experiment", "2", "--nx", "20", "--ny", "20", "--tfinal", "nan"],
            ["--experiment", "2", "--nx", "20", "--ny", "20", "--tfinal", "inf"],
            ["--experiment", "2", "--study", "--tfinal", "inf"],
            ["--experiment", "2", "--nx", "20", "--ny", "20", "--theta", "nan"],
            ["--experiment", "2", "--nx", "20", "--ny", "20", "--theta", "inf"],
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default output directory is ./out
        assert main(argv) == 1
        assert capsys.readouterr().err != ""
        assert not (tmp_path / "out").exists()

    def test_upwind_scheme_conflict_names_alternative(self, capsys):
        assert main(["--experiment", "1", "--scheme", "sbp3",
                     "--dissipation", "none"]) == 1
        assert "sbp2/sbp4" in capsys.readouterr().err

    def test_redundant_upwind_flag_accepted(self):
        config = parse_args(["--experiment", "1", "--scheme", "sbp1",
                             "--dissipation", "upwind"])
        assert config.scheme.dissipation == "upwind"

    def test_study_skips_grid_size_check(self):
        config = parse_args(["--experiment", "1", "--scheme", "sbp4",
                             "--nx", "5", "--study"])
        assert config.study
        assert config.scheme == study_config("sbp4")

    def test_help_names_each_schemes_integrator_and_cfl(self, capsys, monkeypatch):
        """The help is built from the registry, so a changed scheme shows."""
        monkeypatch.setitem(SCHEMES, "sbp1",
                            replace(SCHEMES["sbp1"], integrator="ssp32", cfl=0.6))
        assert main(["--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for name, scheme in SCHEMES.items():
            assert f"{name} {scheme.integrator}" in text
            assert f"{name} {scheme.cfl}" in text

    def test_help_names_each_courant_factor(self, capsys, monkeypatch):
        """The --cfl help lists ``COURANT_PER_CFL``, so an added entry shows."""
        monkeypatch.setitem(COURANT_PER_CFL, ("rk2", "accurate"), 1.5)
        assert main(["--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for (integrator, mode), factor in COURANT_PER_CFL.items():
            assert f"{factor:g} for {integrator} with dissipation {mode}" in text
        assert "1.5 for rk2 with dissipation accurate" in text

    def test_too_small_grid_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--experiment", "1", "--scheme", "sbp4", "--nx", "12",
                     "--ny", "7", "--out", str(out)]) == 1
        assert "needs at least 8 points, got 7" in capsys.readouterr().err
        assert not out.exists()


class TestRejectedRuns:
    """A run the library rejects with a ValueError exits 1 with the
    library's message, not a traceback, and makes no output directory."""

    @pytest.mark.parametrize("argv, message", [
        (["--experiment", "1", "--tfinal", "-1"], "t_final -1.0 lies before the start time 0.0"),
        (["--experiment", "2", "--nx", "20", "--ny", "20", "--tfinal", "nan"],
         "t_final must be finite, got nan"),
        (["--experiment", "2", "--nx", "20", "--ny", "20", "--tfinal", "inf"],
         "t_final must be finite, got inf"),
        (["--experiment", "2", "--study", "--tfinal", "inf"],
         "t_final must be finite, got inf"),
    ], ids=["negative", "nan", "inf", "study-inf"])
    def test_bad_final_time_exits_1(self, argv, message, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the default output directory is ./out
        assert main(argv) == 1
        assert capsys.readouterr().err == f"inductionfd: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["--nx", "12", "--ny", "12"], ["--study"]],
                             ids=["single", "study"])
    def test_zero_velocity_exits_1(self, argv, capsys, tmp_path, monkeypatch):
        """``compute_dt`` finds no advective step for a velocity that
        vanishes everywhere."""
        monkeypatch.setitem(EXPERIMENTS, 3, lambda: replace(
            experiment3(), velocity=lambda x, y: (0.0, 0.0)))
        out = tmp_path / "out"
        assert main(["--experiment", "3", "--out", str(out), *argv]) == 1
        assert capsys.readouterr().err.startswith(
            "inductionfd: error: velocity vanishes everywhere")
        assert not out.exists()


class TestProcess:
    """``python -m inductionfd.cli`` exits with ``main``'s code."""

    @staticmethod
    def _run(tmp_path, *argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        return subprocess.run([sys.executable, "-m", "inductionfd.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)

    def test_help_exits_0(self, tmp_path):
        proc = self._run(tmp_path, "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: inductionfd ")

    def test_usage_error_exits_1(self, tmp_path):
        proc = self._run(tmp_path, "--experiment", "1", "--cfl", "2")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert errors == ["inductionfd: error: cfl must lie in (0, 1], got 2.0"]
        assert proc.stderr.startswith("usage: inductionfd ")
        assert not (tmp_path / "out").exists()


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
        # the last periodic dump is the final state, and fields_final its copy
        final = tmp_path / "fields_final.csv"
        assert dumps[-1].read_bytes() == final.read_bytes()
        assert (dumps[-1].with_suffix(".csv.meta").read_bytes()
                == final.with_suffix(".csv.meta").read_bytes())

    @pytest.mark.parametrize("argv", [[], ["--dump-every", "5"]], ids=["final", "periodic"])
    def test_final_state_is_formatted_once(self, tmp_path, monkeypatch, argv):
        """One ``write_field_dump`` call per dump the hook makes and none
        more for ``fields_final.csv``, which copies the last of them; with
        no periodic dumps, the final state is formatted once."""
        written = []

        def counting(field, div, path, meta):
            written.append(Path(path).name)
            write_field_dump(field, div, path, meta)

        monkeypatch.setattr(cli, "write_field_dump", counting)
        assert main(["--experiment", "3", "--scheme", "sbp1", "--nx", "12", "--ny", "12",
                     "--tfinal", "0.05", "--out", str(tmp_path), *argv]) == 0
        steps = sorted(path.name for path in tmp_path.glob("fields_step*.csv"))
        assert written == (steps if argv else ["fields_final.csv"])
        if argv:
            assert len(steps) >= 2
            for suffix in ("", ".meta"):
                assert ((tmp_path / f"{steps[-1]}{suffix}").read_bytes()
                        == (tmp_path / f"fields_final.csv{suffix}").read_bytes())

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
        """A run whose error and P-energy would overflow by t = 20 has blown
        up; it exits 2 at the step whose P-energy crosses the limit, and
        never exits 0 reporting ``error inf%``."""
        with np.errstate(over="ignore"):
            code = main([
                "--experiment", "3", "--scheme", "sbp4", "--nx", "60", "--ny", "60",
                "--cfl", "0.8", "--tfinal", "20", "--dissipation", "none",
                "--integrator", "rk2", "--out", str(tmp_path),
            ])
        assert code == 2
        captured = capsys.readouterr()
        assert "instability" in captured.err and "times the limit" in captured.err
        assert "error inf%" not in captured.out
        assert not (tmp_path / "error_table.csv").exists()

    def test_finite_blow_up_exits_2(self, tmp_path, capsys):
        """The run would end finite with error 1.5e139 percent: its P-energy
        crosses the limit on the way, so it is an instability, not exit 0."""
        with np.errstate(over="ignore"):
            code = main([
                "--experiment", "3", "--scheme", "sbp4", "--nx", "30", "--ny", "30",
                "--cfl", "0.8", "--tfinal", "20", "--dissipation", "none",
                "--integrator", "rk2", "--out", str(tmp_path),
            ])
        assert code == 2
        captured = capsys.readouterr()
        assert "instability" in captured.err and "times the limit" in captured.err
        assert "error" not in captured.out
        assert not (tmp_path / "error_table.csv").exists()


class TestFailedWrites:
    """An output file that cannot be written ends the run with a one-line
    error naming it and exit code 1, not a traceback."""

    @pytest.mark.parametrize("target, argv", [
        ("fields_step000000.csv", ["--dump-every", "5"]),
        ("fields_final.csv", []),
        ("error_table.csv", []),
        ("table_exp3_sbp1.csv", ["--study"]),
        ("fields_final.csv", ["--dump-every", "5"]),
    ], ids=["dump", "fields-final", "error-table", "study-table", "fields-final-copy"])
    def test_directory_at_target_exits_1(self, tmp_path, capsys, target, argv):
        (tmp_path / target).mkdir()
        code = main(["--experiment", "3", "--scheme", "sbp1", "--nx", "12", "--ny", "12",
                     "--tfinal", "0.05", "--out", str(tmp_path), *argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"inductionfd: error: cannot write {tmp_path / target}: Is a directory\n"

    def test_file_at_output_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main(["--experiment", "3", "--nx", "12", "--ny", "12", "--tfinal", "0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"inductionfd: error: cannot write {out}: ")


class TestWriteFieldDump:
    # blocks of whole rows (dumpformat._DUMP_NODES): one block; more, the last one
    # partial; a row each, shorter and longer than a block
    @pytest.mark.parametrize("npx, npy", [(13, 7), (2, 31), (60, 50), (3, 1500), (2, 2100)])
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
        csv, sidecar = reference_dump(grid.x, grid.y, data, field.magnitude(), div, meta)
        got, want = path.read_text().split("\n"), csv.split("\n")
        assert len(got) == len(want)
        assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []
        assert (tmp_path / "dump.csv.meta").read_text() == sidecar
        assert "-0," in csv and "4.94066e-324" in csv

    def test_formatter_loaded_by_the_first_dump_only(self):
        """Importing the CLI leaves the bulk formatter unloaded, so a
        process that writes no dump does not compile it."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        code = ("import sys, inductionfd.cli; "
                "print('inductionfd.dumpformat' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout.strip() == "False", proc.stderr


class TestFormatValues:
    """The bulk formatter prints every value as ``format(v, ".6g")`` does."""

    @staticmethod
    def _fallbacks(values):
        """Format ``values`` in bulk, check every one against ``format``,
        and return the mask of those that took the fallback."""
        values = np.asarray(values, dtype=float)
        words = np.empty(values.shape + (3,), np.uint64)
        keep = np.empty_like(words)
        fallback = _format_values(values, words, keep)
        text = np.compress(keep.view(bool).ravel(), words.view(np.uint8).ravel())
        got = text.tobytes().decode().split(",")[1:]
        want = [format(v, ".6g") for v in values.tolist()]
        assert len(got) == len(want)
        wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert not wrong, f"{len(wrong)} values misprinted, first {wrong[:5]}"
        return fallback

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(24)
        self._fallbacks(rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float))

    def test_power_of_ten_boundaries(self):
        """10**k, and the values that round up to it, within 3 ulps."""
        edges = np.array([float(f"{m}e{k}") for k in range(-300, 301)
                          for m in ("1", "0.9999995", "9.999995")])
        near = (edges.view(np.int64)[:, None] + np.arange(-3, 4)).view(float)
        self._fallbacks(np.concatenate([near.ravel(), -near.ravel()]))

    def test_exact_ties_fall_back(self):
        m = np.random.default_rng(5).integers(100_000, 1_000_000, 20_000)
        ties = np.concatenate([(10 * m + 5) * 10.0 ** (m % 9), m + 0.5, -(m + 0.5)])
        assert self._fallbacks(ties).all()

    def test_usual_values_take_the_fast_path(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(100_000) * 10.0 ** rng.integers(-280, 280, 100_000)
        assert not self._fallbacks(values).any()

    @pytest.mark.parametrize("bias", [-1e-5, 1e-5])
    def test_exponent_one_off_still_exact(self, monkeypatch, bias):
        """Where log10 puts e one off, next to a power of ten, the value
        falls back or rounds to the same digits."""
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + bias)
        near = 10.0 ** np.arange(-280, 281)[:, None] * (1 + np.linspace(-2e-5, 2e-5, 41))
        self._fallbacks(near.ravel())

    def test_special_values(self):
        big = sys.float_info.max
        values = [0.0, -0.0, 5e-324, -5e-324, big, -big, np.inf, -np.inf, np.nan, 1e-5, 1e16]
        assert self._fallbacks(values).tolist() == [False, False] + [True] * 7 + [False] * 2


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
