"""Command-line interface.

Subcommands:

    verify   run one seeded verification suite (bernstein, bony, products,
             loginterp, heat, transport); reports written as CSV
    solve    march a single heat or transport problem from field files and
             write snapshots, a manifest, and the estimate report
    iterate  run the coupled iteration and write the diagnostics CSV plus
             the final iterate's fields
    unique   twin-run uniqueness gauge; writes the report JSON
    norms    print shell-localized norms of stored fields

Exit codes: 0 all checks passed, 1 an assertion or monitor failed or a run
on valid input failed numerically (say a CFL violation), 2 usage or
configuration error.  A subcommand takes a ``--key`` flag for each key of
the run-config table ``io_config.CONFIG_KEYS`` that it reads, and exits 2
on any other; flags override the config file, which may set every key.
Identical config and seed reproduce byte-identical data files; wallclock
timing goes to a sidecar log only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .io_config import (
    CONFIG_KEYS,
    ConfigError,
    RunConfig,
    _config_values,
    read_field,
    write_diagnostics,
    write_estimate_reports,
    write_field,
    write_filter_bank,
    write_run_manifest,
    write_uniqueness_report,
)
from .linear_solvers import (
    HeatProblem,
    TransportProblem,
    heat_estimate_report,
    solve_heat,
    solve_transport,
    transport_estimate_report,
)
from .littlewood_paley import BesovSpec, TimeSeriesField, besov_norm, chemin_lerner_norm
from .mhd import (
    prepare_initial_data,
    run_iteration,
    taylor_green_data,
    twin_run_uniqueness,
)
from .spectral import _l2_norms
from .suites import SUITES

__all__ = ["main", "entry"]

def _add_config_flags(parser: argparse.ArgumentParser, keys):
    parser.add_argument("--config", metavar="FILE", help="run-config file")
    for key in keys:
        attr, caster = CONFIG_KEYS[key]
        parser.add_argument(f"--{key}", dest=attr, type=caster, default=None,
                            help=f"override config key {key}")


def _build_config(args) -> RunConfig:
    values = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                values = _config_values(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
    values.update({attr: getattr(args, attr) for attr, _ in CONFIG_KEYS.values()
                   if getattr(args, attr, None) is not None})  # the flags win over the file
    if not hasattr(args, "t_max"):  # nothing is marched: T_max takes the one value every dt admits
        values["t_max"] = values.get("dt", RunConfig.dt)
    return RunConfig(**values)  # validated once


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _cmd_verify(args) -> int:
    stray = [f"--{flag}" for flag in ("s1", "s2", "variant") if getattr(args, flag) is not None]
    if stray and args.suite != "products":
        raise ConfigError(f"only the products suite takes {', '.join(stray)}")
    if args.p is not None and args.suite not in ("products", "loginterp"):
        raise ConfigError("only the products and loginterp suites take --p")
    cfg = _build_config(args)
    grid = cfg.grid()
    kwargs = dict(grid=grid, bank=cfg.bank(grid), seed=cfg.seed, n_samples=args.samples)
    if args.suite == "products":
        kwargs.update(p=cfg.p, s1=args.s1, s2=args.s2)
        if args.variant is not None:
            kwargs.update(variants=(args.variant,))
    elif args.suite == "loginterp":
        kwargs.update(p=cfg.p)
    result = SUITES[args.suite](**kwargs)
    print(result.summary())
    for msg in result.failures:
        print(f"  {msg}", file=sys.stderr)
    if result.reports:
        path = _out_path(cfg, f"verify_{args.suite}.csv")
        write_estimate_reports(result.reports, path)
        print(f"reports written to {path}")
    return 0 if result.passed else 1


def _read_field_checked(path, grid):
    if not os.path.exists(path):
        raise ConfigError(f"input field file not found: {path}")
    return read_field(path, grid)


def _cmd_solve(args) -> int:
    cfg = _build_config(args)
    grid = cfg.grid()
    bank = cfg.bank(grid)
    d, p = grid.d, cfg.p
    f0 = _read_field_checked(args.initial, grid)
    T, dt = cfg.t_max, cfg.dt
    if args.problem == "heat":
        problem = HeatProblem(f0, None, T, dt)
    else:
        if args.velocity is None:
            raise ConfigError("transport solves need --velocity FILE")
        v = _read_field_checked(args.velocity, grid)
        velocity = TimeSeriesField.from_snapshots(np.array([0.0, T]), [v, v])
        problem = TransportProblem(f0, velocity, None, T, dt)
    try:
        if args.problem == "heat":
            solution = solve_heat(problem)
            report = heat_estimate_report(solution, problem, 1.0, 1.0, d / p - 1.0, p, 1.0, bank)
        else:
            solution = solve_transport(problem)
            report = transport_estimate_report(solution, problem, d / p, p, 1.0, bank).report()
    except ValueError as exc:
        return _run_failed(exc)
    # The estimate above saw every step; cadence thins only the files written.
    steps = sorted({*range(0, solution.n_times, cfg.cadence), solution.n_times - 1})
    paths = []
    for i, n in enumerate(steps):
        path = _out_path(cfg, f"{args.problem}_snapshot_{i:06d}.field")
        write_field(path, solution.field(n))
        paths.append(os.path.basename(path))
    write_run_manifest(
        _out_path(cfg, f"{args.problem}_manifest.json"),
        args.problem, grid, dt, T, cfg.cadence, cfg.seed, paths, solution.times[steps],
    )
    write_estimate_reports([report], _out_path(cfg, f"{args.problem}_estimate.csv"))
    print(f"{args.problem}: {len(paths)} snapshots, estimate ratio {report.ratio:.6g}")
    return 0


def _load_initial_data(args, cfg: RunConfig):
    """Taylor-Green, or the prepared --u0/--B0 files, and the bank the run
    takes.  ConfigError when more than 1e-13 of their L2 norm lies where
    S_{j_max+1}, the highest low-pass a run applies to its data, is below 1
    (modes off the cube count): a run drops it."""
    grid = cfg.grid()
    if args.u0 is not None or args.B0 is not None:
        if args.u0 is None or args.B0 is None:
            raise ConfigError("custom initial data needs both --u0 and --B0")
        data = prepare_initial_data(
            _read_field_checked(args.u0, grid), _read_field_checked(args.B0, grid)
        )
    else:
        data = taylor_green_data(grid)
    bank = cfg.bank(grid)
    hats = np.concatenate([data.u0_hat, data.b0_hat])
    unseen = (1.0 - grid.from_cube(bank.lowpass_multiplier(bank.j_max + 1))) * hats
    lost, total = _l2_norms(grid, unseen), _l2_norms(grid, hats)
    if lost > 1e-13 * total:
        at = np.unravel_index(np.argmax(np.abs(unseen)), unseen.shape)[1:]
        m = tuple(int(m_a.reshape(-1)[i]) for m_a, i in zip(grid.m_axes, at))
        raise ConfigError(f"a run would drop {lost / total:.3g} of the L2 norm of (u0, B0), where "
                          f"S_{bank.j_max + 1} < 1; the largest unseen coefficient is at m = {m}")
    return data, bank


def _horizon_certified(horizon) -> bool:
    """True if the horizon met its smallness condition; else say why on stderr."""
    if not horizon.condition_met:
        print(f"horizon not certified at T={horizon.T:g}: free-evolution norm "
              f"{horizon.lhs:.6g} > eta^2 = {horizon.threshold:.6g}", file=sys.stderr)
    return horizon.condition_met


def _run_failed(exc: ValueError) -> int:
    """A ValueError from a run on validated config and fields is a numerical
    failure, not a usage error: say why and exit 1."""
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _cmd_iterate(args) -> int:
    cfg = _build_config(args)
    icfg = cfg.iteration()
    data, bank = _load_initial_data(args, cfg)
    try:
        diag = run_iteration(data, icfg, bank=bank)
    except ValueError as exc:
        return _run_failed(exc)
    write_diagnostics(diag, _out_path(cfg, "diagnostics.csv"))
    write_filter_bank(diag.final_state.bank, _out_path(cfg, "filter_bank.json"))
    write_field(_out_path(cfg, "final_u.field"), diag.final_state.u_series.field(-1))
    write_field(_out_path(cfg, "final_B.field"), diag.final_state.b_series.field(-1))
    ok = _horizon_certified(diag.horizon)
    for rec in diag.records:
        if rec.h1_lhs > rec.h1_rhs or rec.h2_lhs > rec.h2_rhs:
            print(f"bound violated at iterate {rec.n}", file=sys.stderr)
            ok = False
    ratio_str = "none" if diag.decay_ratio is None else f"{diag.decay_ratio:.3g}"
    print(
        f"T={diag.T} E0={diag.e0:.6g} iterates={len(diag.records)} "
        f"converged={diag.converged} decay_ratio={ratio_str}"
    )
    return 0 if ok else 1


def _cmd_unique(args) -> int:
    cfg = _build_config(args)
    icfg = cfg.iteration()
    if not 0.0 <= args.perturbation < math.inf:
        raise ConfigError(f"perturbation must be finite and >= 0, got {args.perturbation}")
    data, bank = _load_initial_data(args, cfg)
    try:
        report = twin_run_uniqueness(data, icfg, args.perturbation, bank)
    except ValueError as exc:
        return _run_failed(exc)
    write_uniqueness_report(report, _out_path(cfg, "uniqueness.json"))
    print(
        f"perturbation={report.perturbation_size:g} rho(T)={report.rho[-1]:.6g} "
        f"A_T={report.a_t:.6g} C_T={report.c_t:.6g} "
        f"osgood={'pass' if report.osgood_passed else 'FAIL'}"
    )
    return 0 if _horizon_certified(report.horizon) and report.osgood_passed else 1


def _cmd_norms(args) -> int:
    cfg = _build_config(args)
    grid = cfg.grid()
    bank = cfg.bank(grid)
    s = grid.d / cfg.p if args.s is None else args.s
    spec = BesovSpec(s, cfg.p, args.r)
    # Every usage check comes before the first line of output, as in verify.
    if args.q is not None and len(args.files) < 2:
        raise ConfigError("a mixed space-time norm needs at least two snapshot files")
    mixed_spec = None if args.q is None else BesovSpec(s, cfg.p, args.r, args.q)
    fields = [_read_field_checked(path, grid) for path in args.files]
    for path, f in zip(args.files, fields):
        print(f"{path}: besov(s={s:g}, p={cfg.p:g}, r={args.r:g}) = "
              f"{besov_norm(f, spec, bank)!r}")
    if mixed_spec is not None:
        times = np.arange(len(fields)) * cfg.dt
        # Every shell lies in the cube, so dropping the rest changes no norm.
        hats = np.stack([grid.fft(f.samples, dealiased=True) for f in fields])
        series = TimeSeriesField(grid, times, hats)
        mixed = chemin_lerner_norm(series, mixed_spec, bank)
        print(f"series: mixed(q={args.q:g}) over dt={cfg.dt:g} spacing = {mixed!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpmhd",
        description="Shell-localized analysis and small-data solvers on the periodic box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--samples", type=int, default=100,
                          help="corpus size (default 100)")
    p_verify.add_argument("--s1", type=float, default=None,
                          help="products suite: first regularity index")
    p_verify.add_argument("--s2", type=float, default=None,
                          help="products suite: second regularity index")
    p_verify.add_argument("--variant", choices=("T", "R", "full", "mixed"),
                          default=None, help="products suite: single variant")
    _add_config_flags(p_verify, ("d", "N", "L", "p", "seed", "output_dir"))
    p_verify.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser("solve", help="march one linear problem")
    p_solve.add_argument("problem", choices=("heat", "transport"))
    p_solve.add_argument("--initial", required=True, metavar="FILE",
                         help="initial field file")
    p_solve.add_argument("--velocity", metavar="FILE",
                         help="steady advecting velocity (transport only)")
    _add_config_flags(p_solve, ("d", "N", "L", "p", "dt", "T_max", "cadence", "seed",
                                "output_dir"))
    p_solve.set_defaults(func=_cmd_solve)

    p_iter = sub.add_parser("iterate", help="run the coupled iteration")
    p_iter.add_argument("--u0", metavar="FILE", help="initial velocity field file")
    p_iter.add_argument("--B0", metavar="FILE", help="initial magnetic field file")
    _add_config_flags(p_iter, [key for key in CONFIG_KEYS if key not in ("seed", "cadence")])
    p_iter.set_defaults(func=_cmd_iterate)

    p_uni = sub.add_parser("unique", help="twin-run uniqueness gauge")
    p_uni.add_argument("--perturbation", type=float, required=True,
                       help="L2 size of the data perturbation")
    p_uni.add_argument("--u0", metavar="FILE", help="initial velocity field file")
    p_uni.add_argument("--B0", metavar="FILE", help="initial magnetic field file")
    _add_config_flags(p_uni, [key for key in CONFIG_KEYS if key != "cadence"])
    p_uni.set_defaults(func=_cmd_unique)

    p_norms = sub.add_parser("norms", help="print norms of stored fields")
    p_norms.add_argument("files", nargs="+", metavar="FILE")
    p_norms.add_argument("--s", type=float, default=None,
                         help="regularity index (default d/p)")
    p_norms.add_argument("--r", type=float, default=1.0, help="shell summation index")
    p_norms.add_argument("--q", type=float, default=None,
                         help="also print the time-mixed norm at this q")
    _add_config_flags(p_norms, ("d", "N", "L", "p", "dt"))
    p_norms.set_defaults(func=_cmd_norms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # ConfigError and FormatError are ValueErrors: all three are usage errors
    # here; solve, iterate and unique map a failure of the run itself to exit 1.
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
