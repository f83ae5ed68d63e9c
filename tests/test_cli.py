"""End-to-end tests of the command line, driven in process."""

import json
import re

import numpy as np
import pytest

from lpmhd import (
    Field,
    SuiteResult,
    ball_field,
    build_filter_bank,
    interior_field,
    leray_project,
    lp_norm,
    make_grid,
    read_diagnostics,
    read_field,
    read_uniqueness_report,
    sample_rng,
    taylor_green_data,
    to_physical,
    to_spectral,
    write_field,
)
from lpmhd import cli, mhd
from lpmhd.io_config import CONFIG_KEYS, RunConfig


def _write_initial(tmp_path, n=32, name="f0.field", components=1):
    grid = make_grid(2, n, 2.0 * np.pi)
    bank = build_filter_bank(grid)
    f = interior_field(grid, bank, sample_rng(50, 0), components=components)
    path = tmp_path / name
    from lpmhd import write_field

    write_field(path, f)
    return grid, f, str(path)


def _write_cellular(tmp_path, amplitude, n=32):
    """Taylor-Green u0 and B0 files at the given amplitude; returns the --u0/--B0 flags."""
    data = taylor_green_data(make_grid(2, n, 2.0 * np.pi), amplitude=amplitude)
    paths = [tmp_path / "u0.field", tmp_path / "B0.field"]
    for path, f in zip(paths, (data.u0, data.b0)):
        write_field(path, f)
    return ["--u0", str(paths[0]), "--B0", str(paths[1])]


class TestVerifyCommand:
    def test_bony_suite_passes(self, capsys):
        code = cli.main(["verify", "bony", "--samples", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[pass] bony" in out

    def test_products_violating_indices_exit_2(self, capsys):
        code = cli.main(
            ["verify", "products", "--samples", "2", "--s2", "3.0", "--variant", "T"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "variant T requires s2 <= d/p" in err

    def test_threads_flag_is_gone(self, capsys):
        code = cli.main(["verify", "bony", "--threads", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments: --threads" in err

    @pytest.mark.parametrize("suite", sorted(cli.SUITES))
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exit_2(self, capsys, suite, samples):
        # Used to run the suite's fixed checks, then fail in a reduction
        # over the empty corpus.
        code = cli.main(["verify", suite, "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: n_samples must be >= 1, got {samples}" in captured.err
        assert captured.out == ""

    def test_unknown_suite_exit_2(self, capsys):
        code = cli.main(["verify", "nosuch"])
        assert code == 2

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        def fake(**kwargs):
            return SuiteResult(
                name="bony",
                passed=False,
                n_samples=1,
                failures=["synthetic failure"],
                stats={},
                reports=[],
            )

        monkeypatch.setitem(cli.SUITES, "bony", fake)
        code = cli.main(["verify", "bony"])
        captured = capsys.readouterr()
        assert code == 1
        assert "[FAIL] bony" in captured.out
        assert "synthetic failure" in captured.err

    # The products suite runs on the default 2-D N=64 grid only, where its
    # windows were measured.
    @pytest.mark.parametrize("suite, n", [("bernstein", "32"), ("products", "64"),
                                          ("loginterp", "32"), ("heat", "32"),
                                          ("transport", "32")])
    def test_report_csv_written(self, capsys, tmp_path, suite, n):
        # The bernstein suite used to die writing its CSV, after its [pass] line.
        code = cli.main(
            [
                "verify", suite, "--N", n, "--samples", "1",
                "--output_dir", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / f"verify_{suite}.csv").read_text().splitlines()
        assert lines[0] == "variant,indices,lhs,factors,ratio,degenerate,seed"
        assert len(lines) > 1

    def test_products_off_its_grid_exit_2(self, capsys, tmp_path):
        # Used to run and exit 1: at N=32 the corpus leaves the windows that
        # were measured at N=64.
        code = cli.main(["verify", "products", "--N", "32", "--samples", "1",
                         "--output_dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert ("error: products windows hold on the 2-D N=64, L=2*pi grid only; "
                "got FrequencyGrid(d=2, N=32, L=6.283185307179586)") in captured.err
        assert captured.out == ""
        assert not (tmp_path / "verify_products.csv").exists()

    @pytest.mark.parametrize("suite", ["bernstein", "bony", "loginterp", "heat", "transport"])
    def test_products_flags_rejected_by_other_suites(self, capsys, suite):
        # Used to exit 0 with the flags silently ignored.
        code = cli.main(["verify", suite, "--variant", "T", "--s1", "9"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: only the products suite takes --s1, --variant" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("suite", ["bernstein", "bony", "heat", "transport"])
    def test_p_rejected_by_suites_that_fix_it(self, capsys, tmp_path, suite):
        # verify transport --p 3 used to run at p = 2.
        code = cli.main(["verify", suite, "--p", "3", "--samples", "1",
                         "--output_dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: only the products and loginterp suites take --p" in captured.err
        assert captured.out == ""


class TestSolveCommand:
    def test_heat_solve_writes_verified_snapshots(self, capsys, tmp_path):
        grid, f0, path = _write_initial(tmp_path)
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "solve", "heat", "--initial", path,
                "--N", "32", "--T_max", "0.02", "--dt", "0.01",
                "--output_dir", str(out_dir),
            ]
        )
        assert code == 0
        manifest = json.loads((out_dir / "heat_manifest.json").read_text())
        assert manifest["problem"] == "heat"
        assert len(manifest["snapshots"]) == 3
        final = read_field(out_dir / manifest["snapshots"][-1], grid)
        expected = grid.ifft(grid.fft(f0.samples) * np.exp(-grid.k_sq * 0.02))
        np.testing.assert_allclose(final.samples, expected, atol=1e-12)
        assert (out_dir / "heat_estimate.csv").exists()

    def _solve_heat(self, tmp_path, path, cadence):
        out_dir = tmp_path / f"cadence_{cadence}"
        code = cli.main(
            [
                "solve", "heat", "--initial", path, "--N", "32", "--T_max", "0.1",
                "--dt", "0.01", "--cadence", str(cadence), "--output_dir", str(out_dir),
            ]
        )
        assert code == 0
        return out_dir

    def test_cadence_thins_snapshots(self, capsys, tmp_path):
        grid, _, path = _write_initial(tmp_path)
        full = self._solve_heat(tmp_path, path, 1)
        thin = self._solve_heat(tmp_path, path, 3)
        manifest = json.loads((thin / "heat_manifest.json").read_text())
        # Steps 0, 3, 6, 9 and the last one, 10: not 4 * 3 * dt = 0.12.
        np.testing.assert_allclose(manifest["times"], [0.0, 0.03, 0.06, 0.09, 0.1],
                                   rtol=0.0, atol=1e-15)
        assert manifest["snapshots"] == [f"heat_snapshot_{i:06d}.field" for i in range(5)]
        for name, step in zip(manifest["snapshots"], (0, 3, 6, 9, 10)):
            kept = (thin / name).read_bytes()
            assert kept == (full / f"heat_snapshot_{step:06d}.field").read_bytes()
        full_manifest = json.loads((full / "heat_manifest.json").read_text())
        assert full_manifest["times"] == [n * 0.01 for n in range(11)]

    def test_cadence_leaves_the_estimate_unchanged(self, capsys, tmp_path):
        _, _, path = _write_initial(tmp_path)
        full = self._solve_heat(tmp_path, path, 1)
        thin = self._solve_heat(tmp_path, path, 3)
        want = (full / "heat_estimate.csv").read_bytes()
        assert (thin / "heat_estimate.csv").read_bytes() == want

    def test_transport_needs_velocity(self, capsys, tmp_path):
        _, _, path = _write_initial(tmp_path)
        code = cli.main(
            ["solve", "transport", "--initial", path, "--N", "32",
             "--T_max", "0.02", "--dt", "0.01"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--velocity" in err

    def test_transport_solve_runs(self, capsys, tmp_path):
        grid, _, path = _write_initial(tmp_path)
        from lpmhd import divergence_free_field, write_field

        bank = build_filter_bank(grid)
        v = divergence_free_field(grid, bank, sample_rng(51, 0))
        vpath = tmp_path / "v.field"
        write_field(vpath, v)
        out_dir = tmp_path / "out_t"
        code = cli.main(
            [
                "solve", "transport", "--initial", path, "--velocity", str(vpath),
                "--N", "32", "--T_max", "0.02", "--dt", "0.002",
                "--output_dir", str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "transport_manifest.json").exists()
        assert (out_dir / "transport_estimate.csv").exists()

    def test_cfl_failure_of_the_march_exit_1(self, capsys, tmp_path):
        grid, _, path = _write_initial(tmp_path)
        x2 = grid.coords()[1]
        vpath = tmp_path / "v.field"
        write_field(vpath, Field(grid, 200.0 * np.stack([np.sin(x2), np.zeros_like(x2)])))
        out_dir = tmp_path / "out_cfl"
        code = cli.main(["solve", "transport", "--initial", path, "--velocity", str(vpath),
                         "--N", "32", "--T_max", "0.01", "--dt", "0.002",
                         "--output_dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: CFL violation: dt*max|v|*N/L = 2.037 > 0.5" in err
        assert not (out_dir / "transport_manifest.json").exists()

    def test_problem_construction_errors_exit_2(self, capsys, tmp_path):
        grid, _, path = _write_initial(tmp_path)
        x1 = grid.coords()[0]
        vpath = tmp_path / "v.field"
        write_field(vpath, Field(grid, np.stack([np.sin(x1), np.zeros_like(x1)])))
        code = cli.main(["solve", "transport", "--initial", path, "--velocity", str(vpath),
                         "--N", "32", "--T_max", "0.01", "--dt", "0.002"])
        assert code == 2
        assert "velocity is not divergence-free" in capsys.readouterr().err
        code = cli.main(["solve", "heat", "--initial", path, "--N", "32",
                         "--T_max", "0.015", "--dt", "0.01"])
        assert code == 2
        assert "is not a multiple of dt" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["heat", "transport"])
    def test_data_off_the_cube_exit_2(self, capsys, tmp_path, problem):
        # White noise fills every mode, but series and marches hold only the
        # 2/3-rule cube |m_a| <= 10: the file is refused before any work.
        grid, _, path = _write_initial(tmp_path)
        white = Field(grid, np.random.default_rng(0).standard_normal((2,) + grid.shape))
        white = to_physical(leray_project(to_spectral(white)))  # divergence-free
        wpath = tmp_path / "white.field"
        write_field(wpath, Field(grid, white.samples[:1]) if problem == "heat" else white)
        flags = (["--initial", str(wpath)] if problem == "heat"
                 else ["--initial", path, "--velocity", str(wpath)])
        out_dir = tmp_path / "out_white"
        code = cli.main(["solve", problem, *flags, "--N", "32", "--T_max", "0.01",
                         "--dt", "0.002", "--output_dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert re.search(r"error: field must vanish off the 2/3-rule cube \|m_a\| <= 10: "
                         r"component \d has \|coefficient\| \S+ at m = \(-?\d+, \d+\), ", err)
        assert not (out_dir / f"{problem}_manifest.json").exists()

    def test_missing_initial_file_exit_2(self, capsys, tmp_path):
        code = cli.main(
            ["solve", "heat", "--initial", str(tmp_path / "absent.field"), "--N", "32"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "not found" in err


class TestIterateCommand:
    _FLAGS = ["--N", "32", "--T_max", "0.01", "--max_iterations", "1",
              "--tolerance", "0"]

    def test_builds_one_filter_bank(self, capsys, tmp_path, count_banks):
        # The unseen-share check's bank is the run's.
        built = count_banks()
        assert cli.main(["iterate", *self._FLAGS, "--output_dir", str(tmp_path)]) == 0
        assert len(built) == 1

    def test_taylor_green_on_a_box_of_side_pi(self, capsys, tmp_path):
        # Taylor-Green data take the box's lowest mode; sin x on [0, pi) used
        # to fail its own divergence check and exit 2.
        code = cli.main(["iterate", "--N", "32", "--L", str(np.pi), "--output_dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.out.startswith("T=0.014 ")

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        # p = 3 takes the shell norms through BLAS products, p = 2 by Parseval.
        for p in ("2", "3"):
            dirs = [tmp_path / p / "a", tmp_path / p / "b"]
            for d in dirs:
                code = cli.main(["iterate", *self._FLAGS, "--p", p, "--output_dir", str(d)])
                assert code == 0
            for name in ("diagnostics.csv", "final_u.field", "final_B.field",
                         "filter_bank.json"):
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_outputs_parse(self, capsys, tmp_path):
        code = cli.main(["iterate", *self._FLAGS, "--output_dir", str(tmp_path)])
        assert code == 0
        rows = read_diagnostics(tmp_path / "diagnostics.csv")
        assert [r["n"] for r in rows] == [0, 1]
        bank_doc = json.loads((tmp_path / "filter_bank.json").read_text())
        assert "phi_sha256" in bank_doc
        u = read_field(tmp_path / "final_u.field")
        assert u.grid.N == 32
        out = capsys.readouterr().out
        assert "converged=" in out

    def test_uncertified_horizon_exit_1(self, capsys, tmp_path):
        code = cli.main(
            ["iterate", *self._FLAGS, "--eta", "0.01", "--output_dir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "horizon not certified" in err
        assert (tmp_path / "diagnostics.csv").exists()

    def test_cadence_flag_rejected(self, capsys, tmp_path):
        code = cli.main(["iterate", *self._FLAGS, "--cadence", "2",
                         "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cadence" in err
        assert not (tmp_path / "diagnostics.csv").exists()

    def test_cadence_in_config_file_rejected(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("cadence = 2\n")
        code = cli.main(["iterate", "--config", str(cfg_file), *self._FLAGS,
                         "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cadence" in err

    @pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--T_max", "nan"),
                                             ("--T_max", "inf"), ("--tolerance", "nan"),
                                             ("--C0", "inf")])
    def test_non_finite_setting_exit_2(self, capsys, tmp_path, flag, value):
        code = cli.main(["iterate", *self._FLAGS, flag, value, "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{flag[2:]} must be finite, got {value}" in err
        assert not (tmp_path / "diagnostics.csv").exists()

    def test_too_many_steps_exit_2(self, capsys, tmp_path):
        # Used to die with an _ArrayMemoryError traceback and exit 1, as the
        # horizon search allocated T_max/dt + 1 times before its first norm.
        code = cli.main(["iterate", "--T_max", "1e9", "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert ("error: T_max must lie in [dt, 1000000 dt], "
                "got T_max=1000000000.0, dt=0.002") in err
        assert "Traceback" not in err
        assert not (tmp_path / "diagnostics.csv").exists()

    def test_bad_config_file_exit_2(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("bogus = 1\n")
        code = cli.main(["iterate", "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown key 'bogus'" in err

    def test_flag_overrides_config_file(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("eta = 0.2\n")
        code = cli.main(["iterate", "--config", str(cfg_file), "--eta", "1.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "eta must lie in (0, 1), got 1.5" in err

    def test_cfl_failure_of_the_run_exit_1(self, capsys, tmp_path):
        # Iterate 1 is advected by level-0 data, which holds no cellular mode.
        flags = _write_cellular(tmp_path, 200.0)
        code = cli.main(["iterate", *self._FLAGS, "--max_iterations", "2", *flags,
                         "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: CFL violation: dt*max|v|*N/L = 2.037 > 0.5" in err

    def test_generic_field_files_accepted(self, capsys, tmp_path):
        # Raw fields with a mean, a divergence and white noise on both Nyquist
        # planes: preparation removes all three, and the rest lies where S_3 = 1.
        grid = make_grid(2, 32, 2.0 * np.pi)
        rng = np.random.default_rng(3)
        sign = (-1.0) ** np.arange(grid.N)
        flags = []
        for name in ("u0", "B0"):
            low = np.concatenate([ball_field(grid, 4.0, rng).samples for _ in range(2)])
            nyquist = (sign[:, None] * rng.standard_normal((2, 1, grid.N))
                       + sign * rng.standard_normal((2, grid.N, 1)))
            path = tmp_path / f"{name}.field"
            write_field(path, Field(grid, 1e-3 * (low + 0.5 + nyquist)))
            flags += [f"--{name}", str(path)]
        code = cli.main(["iterate", *self._FLAGS, "--max_iterations", "2", *flags,
                         "--output_dir", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        assert [r["n"] for r in read_diagnostics(tmp_path / "diagnostics.csv")] == [0, 1, 2]

    @pytest.mark.parametrize("command", [["iterate"], ["unique", "--perturbation", "1e-3"]])
    def test_data_the_run_cannot_see_exit_2(self, capsys, tmp_path, command):
        # Taylor-Green plus (0.05 sin 28 x2, 0) in both fields: S_4 vanishes at
        # |k| = 28, so a run would drop the added mode, half the data's energy.
        grid = make_grid(2, 64, 2.0 * np.pi)
        data = taylor_green_data(grid)
        x2 = grid.coords()[1]
        mode = np.stack([0.05 * np.sin(28.0 * x2), np.zeros_like(x2)])
        flags = []
        for name, f in (("u0", data.u0), ("B0", data.b0)):
            path = tmp_path / f"{name}.field"
            write_field(path, Field(grid, f.samples + mode))
            flags += [f"--{name}", str(path)]
        code = cli.main([*command, "--N", "64", *flags, "--output_dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("error: a run would drop 0.707 of the L2 norm of (u0, B0), where S_4 < 1; "
                       "the largest unseen coefficient is at m = (0, 28)\n")
        assert not (tmp_path / "out").exists()

    def test_white_noise_files_exit_2(self, capsys, tmp_path):
        # White noise fills the whole lattice; most of it lies where S_3 < 1.
        grid = make_grid(2, 32, 2.0 * np.pi)
        rng = np.random.default_rng(3)
        flags = []
        for name in ("u0", "B0"):
            raw = Field(grid, rng.standard_normal((2,) + grid.shape))
            path = tmp_path / f"{name}.field"
            write_field(path, Field(grid, raw.samples * (1e-3 / lp_norm(raw, 2.0))))
            flags += [f"--{name}", str(path)]
        code = cli.main(["iterate", *self._FLAGS, *flags, "--output_dir", str(tmp_path / "out")])
        assert code == 2
        assert "drop 0.845 of the L2 norm of (u0, B0), where S_3 < 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_run_exit_1(self, capsys, tmp_path):
        data = taylor_green_data(make_grid(2, 32, 2.0 * np.pi))
        paths = [tmp_path / "u0.field", tmp_path / "B0.field"]
        write_field(paths[0], data.u0)
        write_field(paths[1], Field(data.grid, 1e160 * data.b0.samples))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["iterate", *self._FLAGS, "--u0", str(paths[0]),
                             "--B0", str(paths[1]), "--output_dir", str(tmp_path)])
        assert code == 1
        assert "error: field samples must be finite" in capsys.readouterr().err

    def test_field_file_on_another_grid_exit_2(self, capsys, tmp_path):
        flags = _write_cellular(tmp_path, 0.05, n=16)
        code = cli.main(["iterate", *self._FLAGS, *flags, "--output_dir", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "diagnostics.csv").exists()

    def test_custom_data_needs_both_files(self, capsys, tmp_path):
        _, _, path = _write_initial(tmp_path, components=2)
        code = cli.main(["iterate", *self._FLAGS, "--u0", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "both --u0 and --B0" in err


class TestUniqueCommand:
    _FLAGS = ["--N", "32", "--T_max", "0.01", "--max_iterations", "2",
              "--tolerance", "0"]

    def test_builds_one_filter_bank(self, capsys, tmp_path, count_banks):
        # The check's bank serves the base run and its twin.
        built = count_banks()
        code = cli.main(["unique", "--perturbation", "1e-3", *self._FLAGS,
                         "--output_dir", str(tmp_path)])
        assert code == 0 and len(built) == 1

    def test_zero_perturbation_gauge_passes(self, capsys, tmp_path):
        code = cli.main(
            ["unique", "--perturbation", "0", *self._FLAGS,
             "--output_dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "osgood=pass" in out
        rep = read_uniqueness_report(tmp_path / "uniqueness.json")
        assert rep.perturbation_size == 0.0
        assert np.all(rep.rho == 0.0)

    def test_uncertified_horizon_exit_1(self, capsys, tmp_path):
        code = cli.main(
            ["unique", "--perturbation", "1e-4", *self._FLAGS, "--eta", "0.01",
             "--output_dir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "horizon not certified" in err
        assert (tmp_path / "uniqueness.json").exists()

    def test_cadence_flag_rejected(self, capsys, tmp_path):
        code = cli.main(["unique", "--perturbation", "0", *self._FLAGS,
                         "--cadence", "2", "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "cadence" in err
        assert not (tmp_path / "uniqueness.json").exists()

    def test_cfl_failure_of_the_run_exit_1(self, capsys, tmp_path):
        flags = _write_cellular(tmp_path, 200.0)
        code = cli.main(["unique", "--perturbation", "1e-3", *self._FLAGS, *flags,
                         "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: CFL violation: dt*max|v|*N/L = 2.037 > 0.5" in err
        assert not (tmp_path / "uniqueness.json").exists()

    @pytest.mark.parametrize("eta, code", [("0.1", 0), ("0.01", 1)])
    def test_builds_two_free_evolution_traces(self, capsys, tmp_path, monkeypatch, eta, code):
        # The base run and the twin each build one; the verdict reuses the base horizon.
        calls = []
        original = mhd._free_evolution_traces

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(mhd, "_free_evolution_traces", counted)
        got = cli.main(["unique", "--perturbation", "1e-3", *self._FLAGS, "--max_iterations",
                        "1", "--eta", eta, "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert got == code
        assert len(calls) == 2
        assert ("horizon not certified" in err) == (code == 1)
        rep = read_uniqueness_report(tmp_path / "uniqueness.json")
        assert rep.horizon.condition_met == (code == 0)

    def test_negative_perturbation_exit_2(self, capsys, tmp_path):
        code = cli.main(["unique", "--perturbation", "-1", *self._FLAGS])
        err = capsys.readouterr().err
        assert code == 2
        assert ">= 0" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_perturbation_exit_2(self, capsys, tmp_path, value):
        code = cli.main(["unique", "--perturbation", value, *self._FLAGS,
                         "--output_dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"perturbation must be finite and >= 0, got {value}" in err
        assert not (tmp_path / "uniqueness.json").exists()


class TestNormsCommand:
    def test_prints_shell_norms(self, capsys, tmp_path):
        _, _, p1 = _write_initial(tmp_path, n=16, name="a.field")
        _, _, p2 = _write_initial(tmp_path, n=16, name="b.field")
        code = cli.main(["norms", p1, p2, "--N", "16", "--q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "a.field" in out and "b.field" in out
        assert "besov(s=1," in out
        assert "mixed(q=1)" in out

    def test_mixed_norm_needs_two_files(self, capsys, tmp_path):
        _, _, p1 = _write_initial(tmp_path, n=16, name="a.field")
        code = cli.main(["norms", p1, "--N", "16", "--q", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "at least two" in err

    @pytest.mark.parametrize("names, q", [(["a.field"], "1"), (["a.field", "b.field"], "0.5")])
    def test_bad_mixed_norm_prints_nothing(self, capsys, tmp_path, names, q):
        # One file or q < 1: both used to print each file's Besov line first.
        paths = [_write_initial(tmp_path, n=32, name=name)[2] for name in names]
        code = cli.main(["norms", *paths, "--N", "32", "--q", q])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_mixed_norm_of_white_noise_files(self, capsys, tmp_path):
        # Any field file is accepted: every shell lies in the 2/3 cube, so
        # its series drops nothing the norm reads.  The value is pinned.
        grid = make_grid(2, 32, 2.0 * np.pi)
        f = Field(grid, np.random.default_rng(0).standard_normal((1, 32, 32)))
        paths = [str(tmp_path / name) for name in ("a.field", "b.field")]
        for path in paths:
            write_field(path, f)
        code = cli.main(["norms", *paths, "--N", "32", "--q", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "series: mixed(q=1) over dt=0.002 spacing = 0.00434558174919468\n" in out

    @pytest.mark.parametrize("dt", ["1e-8", "0.6"])
    def test_any_positive_spacing(self, capsys, tmp_path, dt):
        # norms reads no T_max: dt = 1e-8 used to fail the step cap and dt = 0.6
        # the check T_max >= dt, both against the default T_max = 0.5.
        _, _, p1 = _write_initial(tmp_path, n=16, name="a.field")
        code = cli.main(["norms", p1, p1, "--N", "16", "--dt", dt, "--q", "1"])
        assert code == 0
        assert f"series: mixed(q=1) over dt={float(dt):g} spacing" in capsys.readouterr().out

    def test_grid_mismatch_reported(self, capsys, tmp_path):
        _, _, p1 = _write_initial(tmp_path, n=16, name="a.field")
        code = cli.main(["norms", p1, "--N", "32"])
        err = capsys.readouterr().err
        assert code == 2
        assert "dimension mismatch" in err


# One non-default value per config key, as it is written on the command
# line and in a config file, and the attribute value it must produce.
_NON_DEFAULT = {
    "d": ("3", 3),
    "N": ("32", 32),
    "L": ("3.5", 3.5),
    "p": ("1.5", 1.5),
    "dt": ("0.001", 1e-3),
    "T_max": ("0.25", 0.25),
    "cadence": ("2", 2),
    "eta": ("0.05", 0.05),
    "C0": ("8", 8.0),
    "max_iterations": ("3", 3),
    "tolerance": ("1e-6", 1e-6),
    "seed": ("7", 7),
    "output_dir": (None, None),
}


# The config keys each subcommand reads, and the rest of a command line that
# parses; a subcommand has no flag for any other key.
_READS = {
    "verify": ({"d", "N", "L", "seed", "output_dir", "p"}, ["verify", "bony"]),
    "solve": ({"d", "N", "L", "p", "dt", "T_max", "cadence", "seed", "output_dir"},
              ["solve", "heat", "--initial", "f0.field"]),
    "iterate": (set(CONFIG_KEYS) - {"seed", "cadence"}, ["iterate"]),
    "unique": (set(CONFIG_KEYS) - {"cadence"}, ["unique", "--perturbation", "0"]),
    "norms": ({"d", "N", "L", "p", "dt"}, ["norms", "f0.field"]),
}


def _argv_reading(key):
    """A command line, short of its flags, whose subcommand reads ``key``."""
    return _READS["solve" if key == "cadence" else "unique"][1]


class TestConfigKeyTable:
    def test_table_is_the_file_grammar(self):
        assert set(CONFIG_KEYS) == set(_NON_DEFAULT)

    @pytest.mark.parametrize("key", sorted(_NON_DEFAULT))
    def test_flag_and_file_agree(self, key, tmp_path):
        raw, expected = _NON_DEFAULT[key]
        if key == "output_dir":
            raw = expected = str(tmp_path / "out")
        attr, _ = CONFIG_KEYS[key]
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {raw}\n")
        parser = cli.build_parser()
        argv = _argv_reading(key)
        from_flag = cli._build_config(parser.parse_args([*argv, f"--{key}", raw]))
        from_file = cli._build_config(parser.parse_args([*argv, "--config", str(cfg_file)]))
        assert from_flag == from_file
        assert getattr(from_flag, attr) == expected
        assert from_flag != RunConfig()

    @pytest.mark.parametrize("command", sorted(_READS))
    def test_subcommand_flags_are_the_keys_it_reads(self, capsys, tmp_path, command):
        # verify heat --dt 0.5 used to exit 0 with the same CSV as without the flag.
        keys, argv = _READS[command]
        parser = cli.build_parser()
        # A config file may still set every key: one file can serve every command.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("".join(f"{key} = {raw}\n" for key, (raw, _) in _NON_DEFAULT.items()
                                    if raw is not None))
        cli._build_config(parser.parse_args([*argv, "--config", str(cfg_file)]))
        for key in CONFIG_KEYS:
            flag = [f"--{key}", _NON_DEFAULT[key][0] or str(tmp_path)]
            if key in keys:
                assert getattr(parser.parse_args([*argv, *flag]), CONFIG_KEYS[key][0]) is not None
            else:
                assert cli.main([*argv, *flag]) == 2
                assert f"unrecognized arguments: --{key}" in capsys.readouterr().err

    def test_flag_repairs_bad_config_file_value(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("eta = 1.5\n")
        args = cli.build_parser().parse_args(
            ["iterate", "--config", str(cfg_file), "--eta", "0.2"]
        )
        assert cli._build_config(args).eta == 0.2

    def test_bad_config_file_value_alone_exit_2(self, capsys, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("eta = 1.5\n")
        code = cli.main(["verify", "bony", "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "eta must lie in (0, 1), got 1.5" in err
