"""Run configuration and on-disk formats.

Three artifact families share this module: the run-config text format
(flat ``key = value`` lines), the binary field snapshot format, and the
diagnostics outputs (CSV and JSON).  All of them are deterministic: given
identical inputs the bytes are identical, floats are written as their
shortest round-trip decimals, and wallclock timings never enter a data
file (they go to a ``.wallclock.log`` sidecar).  FORMATS.md in the repo
root documents every layout byte by byte.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .littlewood_paley import FilterBank
from .mhd import Horizon, IterationConfig, IterationDiagnostics, UniquenessReport
from .spectral import Field, FrequencyGrid, make_grid

__all__ = [
    "ConfigError",
    "FormatError",
    "RunConfig",
    "load_config",
    "write_field",
    "read_field",
    "write_diagnostics",
    "read_diagnostics",
    "write_uniqueness_report",
    "read_uniqueness_report",
    "write_estimate_reports",
    "write_filter_bank",
    "write_run_manifest",
]


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


class FormatError(ValueError):
    """Malformed binary or structured data file."""


FIELD_MAGIC = b"LPMHD001"


# Config-file key -> (attribute, parser).  Key names are the file grammar and
# the ``--key`` flags of the CLI; attribute names are the dataclass fields.
CONFIG_KEYS = {
    "d": ("d", int),
    "N": ("N", int),
    "L": ("L", float),
    "p": ("p", float),
    "dt": ("dt", float),
    "T_max": ("t_max", float),
    "cadence": ("cadence", int),
    "eta": ("eta", float),
    "C0": ("c0", float),
    "max_iterations": ("max_iterations", int),
    "tolerance": ("tolerance", float),
    "seed": ("seed", int),
    "output_dir": ("output_dir", str),
}


@dataclass
class RunConfig(IterationConfig):
    """Iteration parameters plus the two keys only the CLI reads.

    ``cadence`` thins the snapshot files that ``solve`` writes (its
    estimate still sees every step); the coupled iteration keeps every
    step, so ``iteration()`` requires it to be 1.  Construction
    (and ``dataclasses.replace``) validates the iteration invariants, the
    grid and the writability of ``output_dir``, raising ``ConfigError``.
    """

    cadence: int = 1
    output_dir: str = "."

    def __post_init__(self):
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.cadence < 1:
            raise ConfigError(f"cadence must be >= 1, got {self.cadence}")
        _check_writable(self.output_dir)

    def iteration(self) -> IterationConfig:
        if self.cadence != 1:
            raise ConfigError(
                f"cadence thins solve snapshots only; the coupled iteration "
                f"needs cadence = 1, got {self.cadence}"
            )
        return self


def _parse_value(raw: str, caster, key: str, lineno: int):
    if caster is str:
        return raw
    try:
        if caster is int:
            as_float = float(raw)
            if as_float != int(as_float):
                raise ValueError
            return int(as_float)
        return float(raw)
    except ValueError:
        kind = "integer" if caster is int else "number"
        raise ConfigError(f"line {lineno}: key '{key}' expects a {kind}, got '{raw}'") from None


def _check_writable(path: str):
    """Require the deepest existing ancestor of ``path`` to be writable."""
    probe = os.path.abspath(path)
    while probe and not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    if not os.path.exists(probe) or not os.access(probe, os.W_OK):
        raise ConfigError(f"output_dir '{path}' is not writable (checked '{probe}')")
    if os.path.exists(os.path.abspath(path)) and not os.path.isdir(os.path.abspath(path)):
        raise ConfigError(f"output_dir '{path}' exists and is not a directory")


def load_config(text: str) -> RunConfig:
    """Parse and validate a flat ``key = value`` document.

    Grammar: one assignment per line; blank lines skipped; '#' starts a
    comment.  Unknown and duplicate keys are rejected with their line
    number; value validation reuses the iteration invariants and names the
    violated bound.
    """
    return RunConfig(**_config_values(text))


def _config_values(text: str) -> dict:
    """The typed values of a config document keyed by attribute, unvalidated."""
    values = {}
    seen_lines = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{raw_line.strip()}'")
        key, _, raw_val = line.partition("=")
        key = key.strip()
        raw_val = raw_val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in seen_lines:
            raise ConfigError(
                f"line {lineno}: duplicate key '{key}' (first set on line {seen_lines[key]})"
            )
        if not raw_val:
            raise ConfigError(f"line {lineno}: key '{key}' has no value")
        seen_lines[key] = lineno
        attr, caster = CONFIG_KEYS[key]
        values[attr] = _parse_value(raw_val, caster, key, lineno)
    return values


# ---------------------------------------------------------------------------
# Binary field snapshots


def write_field(path, field: Field):
    """Write one field: magic, little-endian u32 d, u32 N, f64 L, u32 c,
    then c * N^d float64 samples in row-major axis order."""
    grid = field.grid
    header = FIELD_MAGIC + struct.pack(
        "<IIdI", grid.d, grid.N, grid.L, field.components
    )
    payload = np.ascontiguousarray(field.samples, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field(path, grid: FrequencyGrid | None = None) -> Field:
    """Read a field written by ``write_field``.

    If ``grid`` is given, the header must match it exactly; otherwise the
    grid is reconstructed from the header.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head_len = len(FIELD_MAGIC) + struct.calcsize("<IIdI")
    if len(blob) < head_len:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes, need {head_len})")
    if blob[: len(FIELD_MAGIC)] != FIELD_MAGIC:
        raise FormatError(
            f"{path}: magic mismatch, expected {FIELD_MAGIC!r}, got {blob[:len(FIELD_MAGIC)]!r}"
        )
    d, n, box, c = struct.unpack_from("<IIdI", blob, len(FIELD_MAGIC))
    expected = head_len + c * n**d * 8
    if len(blob) != expected:
        raise FormatError(f"{path}: truncated payload ({len(blob)} bytes, need {expected})")
    if grid is not None and (grid.d != d or grid.N != n or grid.L != box):
        raise FormatError(
            f"{path}: dimension mismatch, file has (d={d}, N={n}, L={box}), "
            f"expected (d={grid.d}, N={grid.N}, L={grid.L})"
        )
    if grid is None:
        grid = make_grid(int(d), int(n), float(box))
    samples = np.frombuffer(blob, dtype="<f8", offset=head_len).astype(np.float64)
    return Field(grid, samples.reshape((c,) + (n,) * d))


# ---------------------------------------------------------------------------
# Diagnostics CSV and JSON

DIAGNOSTIC_COLUMNS = ("n", "T", "E0", "H1_lhs", "H1_rhs", "H2_lhs", "H2_rhs", "D_n")


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_diagnostics(diag: IterationDiagnostics, path):
    """Per-iterate CSV plus a wallclock sidecar.

    The CSV is byte-deterministic for a fixed config and seed; timing goes
    to ``<stem>.wallclock.log`` so reruns diff clean.
    """
    lines = [",".join(DIAGNOSTIC_COLUMNS)]
    for rec in diag.records:
        lines.append(
            ",".join(
                [
                    str(rec.n),
                    _fmt(diag.T),
                    _fmt(diag.e0),
                    _fmt(rec.h1_lhs),
                    _fmt(rec.h1_rhs),
                    _fmt(rec.h2_lhs),
                    _fmt(rec.h2_rhs),
                    _fmt(rec.d_n),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = os.path.splitext(str(path))[0] + ".wallclock.log"
    with open(sidecar, "w") as fh:
        for rec in diag.records:
            fh.write(f"n={rec.n} wallclock_s={rec.wallclock_s:.6f}\n")


def read_diagnostics(path) -> list:
    """Rows of a diagnostics CSV as dicts keyed by column name; FormatError if malformed."""
    with open(path) as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: line 1: empty file, expected the header")
    header = lines[0][1].split(",")
    if tuple(header) != DIAGNOSTIC_COLUMNS:
        raise FormatError(f"{path}: unexpected columns {header}")
    rows = []
    for no, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise FormatError(f"{path}: line {no}: {len(cells)} cells, header has {len(header)}")
        try:
            rows.append({"n": int(cells[0]), **dict(zip(header[1:], map(float, cells[1:])))})
        except ValueError as exc:
            raise FormatError(f"{path}: line {no}: {exc}") from None
    return rows


def write_uniqueness_report(report: UniquenessReport, path):
    """JSON with every field; arrays become lists, floats keep full
    round-trip precision."""
    doc = {
        "perturbation_size": report.perturbation_size,
        "T": report.T,
        "times": [float(t) for t in report.times],
        "rho": [float(r) for r in report.rho],
        "delta_b_trace": [float(b) for b in report.delta_b_trace],
        "A_T": report.a_t,
        "C_T": report.c_t,
        "C_emp": report.c_emp,
        "offset": report.offset,
        "solution_scale": report.solution_scale,
        "osgood_passed": report.osgood_passed,
        "worst_margin": report.worst_margin,
        "horizon": asdict(report.horizon),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_uniqueness_report(path) -> UniquenessReport:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return UniquenessReport(
            perturbation_size=doc["perturbation_size"],
            T=doc["T"],
            times=np.asarray(doc["times"], dtype=np.float64),
            rho=np.asarray(doc["rho"], dtype=np.float64),
            delta_b_trace=np.asarray(doc["delta_b_trace"], dtype=np.float64),
            a_t=doc["A_T"],
            c_t=doc["C_T"],
            c_emp=doc["C_emp"],
            offset=doc["offset"],
            solution_scale=doc["solution_scale"],
            osgood_passed=doc["osgood_passed"],
            worst_margin=doc["worst_margin"],
            horizon=Horizon(**doc["horizon"]),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from None


ESTIMATE_COLUMNS = ("variant", "indices", "lhs", "factors", "ratio", "degenerate", "seed")


def write_estimate_reports(reports, path):
    """One CSV row per report; dict and factor cells are semicolon-packed
    ``name=value`` pairs so the file stays flat."""
    lines = [",".join(ESTIMATE_COLUMNS)]
    for rep in reports:
        indices = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(rep.indices.items()))
        factors = ";".join(f"{name}={_fmt(val)}" for name, val in rep.factors)
        lines.append(
            ",".join(
                [
                    rep.variant,
                    indices,
                    _fmt(rep.lhs),
                    factors,
                    _fmt(rep.ratio),
                    str(int(rep.degenerate)),
                    "" if rep.seed is None else str(rep.seed),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_filter_bank(bank: FilterBank, path):
    """Bank summary JSON: band, annulus constants, grid, and the SHA-256 of
    the lattice multiplier values for cross-implementation comparison."""
    with open(path, "w") as fh:
        json.dump(bank.fingerprint(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_manifest(path, problem: str, grid: FrequencyGrid, dt: float, T: float,
                       cadence: int, seed: int, snapshot_files: list, times):
    """Solver-run manifest JSON listing the snapshot files in time order,
    with the time of each."""
    doc = {
        "problem": problem,
        "grid": {"d": grid.d, "N": grid.N, "L": grid.L},
        "dt": dt,
        "T": T,
        "cadence": cadence,
        "seed": seed,
        "snapshots": list(snapshot_files),
        "times": [float(t) for t in times],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
