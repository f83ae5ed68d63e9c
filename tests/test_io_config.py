"""Tests for the config grammar and the on-disk formats."""

import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from lpmhd import (
    ConfigError,
    EstimateReport,
    Field,
    FormatError,
    Horizon,
    IterationDiagnostics,
    IterationRecord,
    RunConfig,
    build_filter_bank,
    load_config,
    make_grid,
    read_diagnostics,
    read_field,
    read_uniqueness_report,
    write_diagnostics,
    write_estimate_reports,
    write_field,
    write_filter_bank,
    write_run_manifest,
    write_uniqueness_report,
)
from lpmhd.io_config import FIELD_MAGIC
from lpmhd.mhd import Horizon, UniquenessReport


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        cfg = load_config("")
        assert cfg.eta == 0.1
        assert cfg.c0 == 16.0
        assert cfg.N == 64
        assert cfg.output_dir == "."

    def test_full_document(self):
        text = """
        # run parameters
        d = 2
        N = 32
        dt = 1e-3          # fine step
        T_max = 0.25
        eta = 0.05
        C0 = 8
        max_iterations = 6
        seed = 11
        """
        cfg = load_config(text)
        assert cfg.N == 32
        assert cfg.dt == 1e-3
        assert cfg.t_max == 0.25
        assert cfg.eta == 0.05
        assert cfg.c0 == 8.0
        assert cfg.max_iterations == 6
        assert cfg.seed == 11

    def test_duplicate_key_cites_both_lines(self):
        with pytest.raises(ConfigError, match="line 2: duplicate key 'd' \\(first set on line 1\\)"):
            load_config("d = 2\nd = 3\n")

    def test_unknown_key_cites_line(self):
        with pytest.raises(ConfigError, match="line 3: unknown key 'dx'"):
            load_config("d = 2\n\ndx = 0.1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            load_config("d 2\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="has no value"):
            load_config("eta =\n")

    def test_integer_key_rejects_fraction(self):
        with pytest.raises(ConfigError, match="key 'N' expects a integer"):
            load_config("N = 64.5\n")

    def test_integer_key_accepts_whole_float(self):
        assert load_config("N = 64.0\n").N == 64

    def test_number_key_rejects_text(self):
        with pytest.raises(ConfigError, match="key 'eta' expects a number"):
            load_config("eta = small\n")

    def test_index_bound_names_dimension(self):
        with pytest.raises(ConfigError, match=r"\[1, 4\]"):
            load_config("p = 5\n")

    def test_grid_invariants(self):
        with pytest.raises(ConfigError, match="d must be 2 or 3"):
            load_config("d = 4\n")
        with pytest.raises(ConfigError, match="power of two"):
            load_config("N = 48\n")
        with pytest.raises(ConfigError, match="L must be positive"):
            load_config("L = -1\n")

    def test_cadence_must_be_positive(self):
        with pytest.raises(ConfigError, match="cadence"):
            load_config("cadence = 0\n")

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            load_config("seed = -1\n")
        assert load_config("seed = 0\n").seed == 0

    def test_output_dir_must_not_be_a_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("x")
        with pytest.raises(ConfigError, match="not a directory"):
            load_config(f"output_dir = {target}\n")

    def test_output_dir_may_be_missing_under_writable_parent(self, tmp_path):
        cfg = load_config(f"output_dir = {tmp_path}/new/deep\n")
        assert cfg.output_dir.endswith("new/deep")


class TestFieldFormat:
    def test_round_trip_is_exact(self, grid, tmp_path):
        rng = np.random.default_rng(40)
        f = Field(grid, rng.standard_normal((2,) + grid.shape))
        path = tmp_path / "f.field"
        write_field(path, f)
        back = read_field(path, grid)
        np.testing.assert_array_equal(back.samples, f.samples)
        assert back.grid == grid

    def test_grid_reconstructed_from_header(self, grid, tmp_path):
        f = Field(grid, np.ones((1,) + grid.shape))
        path = tmp_path / "f.field"
        write_field(path, f)
        back = read_field(path)
        assert back.grid == grid

    def test_header_layout(self, tmp_path):
        g = make_grid(2, 8, 2.0 * math.pi)
        samples = np.arange(64.0).reshape((1, 8, 8))
        path = tmp_path / "tiny.field"
        write_field(path, Field(g, samples))
        blob = path.read_bytes()
        expected_header = FIELD_MAGIC + struct.pack("<IIdI", 2, 8, 2.0 * math.pi, 1)
        assert blob[: len(expected_header)] == expected_header
        assert blob[len(expected_header):] == samples.astype("<f8").tobytes()

    def test_magic_mismatch(self, grid, tmp_path):
        path = tmp_path / "bad.field"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(FormatError, match="magic mismatch"):
            read_field(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.field"
        path.write_bytes(FIELD_MAGIC[:4])
        with pytest.raises(FormatError, match="truncated header"):
            read_field(path)

    def test_truncated_payload(self, grid, tmp_path):
        f = Field(grid, np.ones((1,) + grid.shape))
        path = tmp_path / "cut.field"
        write_field(path, f)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(FormatError, match="truncated payload"):
            read_field(path)

    def test_dimension_mismatch_against_expected_grid(self, grid, tmp_path):
        f = Field(grid, np.ones((1,) + grid.shape))
        path = tmp_path / "f.field"
        write_field(path, f)
        other = make_grid(2, 32, grid.L)
        with pytest.raises(FormatError, match="dimension mismatch"):
            read_field(path, other)


def _fake_diagnostics():
    records = [
        IterationRecord(0, 0.5, 1.6, 0.01, 0.1, 0.125, 0.25),
        IterationRecord(1, 0.5, 1.6, 0.01, 0.1, math.nan, 0.5),
    ]
    horizon = Horizon(T=0.02, condition_met=True, lhs=0.005, threshold=0.01)
    return IterationDiagnostics(
        T=0.02,
        e0=0.1,
        horizon=horizon,
        records=records,
        converged=False,
        decay_ratio=0.25,
        final_state=None,
    )


_DIAGNOSTICS_HEADER = "n,T,E0,H1_lhs,H1_rhs,H2_lhs,H2_rhs,D_n\n"


class TestDiagnosticsFormat:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_diagnostics(_fake_diagnostics(), path)
        expected = (
            "n,T,E0,H1_lhs,H1_rhs,H2_lhs,H2_rhs,D_n\n"
            "0,0.02,0.1,0.5,1.6,0.01,0.1,0.125\n"
            "1,0.02,0.1,0.5,1.6,0.01,0.1,nan\n"
        )
        assert path.read_text() == expected

    def test_wallclock_sidecar(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_diagnostics(_fake_diagnostics(), path)
        sidecar = tmp_path / "diag.wallclock.log"
        assert sidecar.read_text() == (
            "n=0 wallclock_s=0.250000\nn=1 wallclock_s=0.500000\n"
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "diag.csv"
        write_diagnostics(_fake_diagnostics(), path)
        rows = read_diagnostics(path)
        assert len(rows) == 2
        assert rows[0]["n"] == 0
        assert rows[0]["D_n"] == 0.125
        assert math.isnan(rows[1]["D_n"])
        assert rows[1]["H1_rhs"] == 1.6

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "diag.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError, match="unexpected columns"):
            read_diagnostics(path)

    def test_empty_records(self, tmp_path):
        diag = _fake_diagnostics()
        diag.records = []
        path = tmp_path / "diag.csv"
        write_diagnostics(diag, path)
        assert read_diagnostics(path) == []

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        (_DIAGNOSTICS_HEADER + "0,0.1\n", "line 2: 2 cells, header has 8"),
        (_DIAGNOSTICS_HEADER + "x,0.02,0.1,0.5,1.6,0.01,0.1,0.125\n", "line 2: invalid literal"),
    ], ids=["empty", "short_row", "non_numeric"])
    def test_malformed_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "diag.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=r"diag\.csv: " + message):
            read_diagnostics(path)


class TestUniquenessJson:
    def _report(self):
        return UniquenessReport(
            perturbation_size=1e-4,
            T=0.02,
            times=np.array([0.0, 0.01, 0.02]),
            rho=np.array([0.0, 1e-6, 2.5e-6]),
            delta_b_trace=np.array([1e-4, 1.1e-4, 1.2e-4]),
            a_t=0.0025,
            c_t=1.8e-5,
            c_emp=1.0,
            offset=4e-5,
            solution_scale=0.14,
            osgood_passed=True,
            worst_margin=3.2e-5,
            horizon=Horizon(T=0.02, condition_met=True, lhs=4e-3, threshold=0.01),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "unique.json"
        rep = self._report()
        write_uniqueness_report(rep, path)
        back = read_uniqueness_report(path)
        assert back.perturbation_size == rep.perturbation_size
        assert back.a_t == rep.a_t
        assert back.c_t == rep.c_t
        assert back.c_emp == rep.c_emp
        assert back.offset == rep.offset
        assert back.osgood_passed == rep.osgood_passed
        assert back.worst_margin == rep.worst_margin
        np.testing.assert_array_equal(back.times, rep.times)
        np.testing.assert_array_equal(back.rho, rep.rho)
        np.testing.assert_array_equal(back.delta_b_trace, rep.delta_b_trace)
        assert back.horizon == rep.horizon

    def test_keys_spelled_out(self, tmp_path):
        path = tmp_path / "unique.json"
        write_uniqueness_report(self._report(), path)
        doc = json.loads(path.read_text())
        for key in ("A_T", "C_T", "C_emp", "osgood_passed", "solution_scale", "horizon"):
            assert key in doc

    def test_keys_are_the_documented_ones(self, tmp_path):
        path = tmp_path / "unique.json"
        write_uniqueness_report(self._report(), path)
        text = (Path(__file__).resolve().parents[1] / "FORMATS.md").read_text()
        table = text.split("## Uniqueness report JSON", 1)[1].split("\n## ", 1)[0]
        documented = {key for row in table.splitlines() if row.startswith("| `")
                      for key in re.findall(r"`(\w+)`", row.split("|")[1])}
        assert len(documented) == 13
        assert set(json.loads(path.read_text())) == documented

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "unique.json"
        write_uniqueness_report(self._report(), path)
        doc = json.loads(path.read_text())
        del doc["A_T"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="missing field"):
            read_uniqueness_report(path)


class TestEstimateCsv:
    def test_golden_layout(self, tmp_path):
        reports = [
            EstimateReport(
                variant="heat",
                indices={"s": 1.0, "p": 2.0},
                lhs=0.5,
                factors=[("a", 2.0)],
                ratio=0.25,
                degenerate=False,
                seed=3,
            ),
            EstimateReport(
                variant="full",
                indices={"s1": 1.0},
                lhs=0.0,
                factors=[("f", 0.0), ("g", 0.0)],
                ratio=0.0,
                degenerate=True,
                seed=None,
            ),
        ]
        path = tmp_path / "est.csv"
        write_estimate_reports(reports, path)
        assert path.read_text() == (
            "variant,indices,lhs,factors,ratio,degenerate,seed\n"
            "heat,p=2.0;s=1.0,0.5,a=2.0,0.25,0,3\n"
            "full,s1=1.0,0.0,f=0.0;g=0.0,0.0,1,\n"
        )


class TestManifestAndBankFiles:
    def test_filter_bank_fingerprint_file(self, grid, tmp_path):
        bank = build_filter_bank(grid)
        path = tmp_path / "bank.json"
        write_filter_bank(bank, path)
        doc = json.loads(path.read_text())
        assert doc == bank.fingerprint()
        assert doc["grid"]["N"] == 64
        assert len(doc["phi_sha256"]) == 64

    def test_run_manifest(self, grid, tmp_path):
        path = tmp_path / "manifest.json"
        write_run_manifest(path, "heat", grid, 1e-3, 0.1, 2, 7, ["a.field", "b.field"],
                           np.array([0.0, 0.1]))
        doc = json.loads(path.read_text())
        assert doc["problem"] == "heat"
        assert doc["grid"] == {"d": 2, "N": 64, "L": grid.L}
        assert doc["snapshots"] == ["a.field", "b.field"]
        assert doc["times"] == [0.0, 0.1]
        assert doc["cadence"] == 2
        assert doc["seed"] == 7


class TestRunConfigBridge:
    def test_iteration_conversion(self):
        cfg = RunConfig(N=32, dt=1e-3, t_max=0.1, eta=0.2)
        it = cfg.iteration()
        assert it.N == 32
        assert it.dt == 1e-3
        assert it.t_max == 0.1
        assert it.eta == 0.2

    def test_grid_construction(self):
        cfg = RunConfig(N=16)
        g = cfg.grid()
        assert g.N == 16 and g.d == 2
