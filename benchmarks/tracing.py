"""Outside-in span tracing of the lpmhd layers.

The tracer wraps public functions where the calling module looks them up:
every ``lpmhd`` module global (and package attribute) that is the original
function object is replaced by a wrapper, so ``mhd.solve_heat`` and
``lpmhd.solve_heat`` both record a span.  ``FrequencyGrid.fft/ifft`` are
wrapped on the class, and ``Field.__post_init__`` is wrapped to count field
constructions without recording a span.  Nothing in the package is edited;
``uninstall`` puts every original back.

A span is (name, start, end, parent).  Spans live in four parallel lists
in memory and are written out by ``write_spans`` when the benchmark ends.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name) for every function that gets a span.
SPAN_TARGETS = (
    ("spectral", "tensor_divergence", "spectral.tensor_divergence"),
    ("spectral", "leray_project", "spectral.leray_project"),
    ("spectral", "lp_norm", "spectral.lp_norm"),
    ("littlewood_paley", "shell_lp_matrix", "littlewood_paley.shell_lp_matrix"),
    ("littlewood_paley", "besov_norm", "littlewood_paley.besov_norm"),
    ("littlewood_paley", "chemin_lerner_norm", "littlewood_paley.chemin_lerner_norm"),
    ("littlewood_paley", "chemin_lerner_trace", "littlewood_paley.chemin_lerner_trace"),
    ("linear_solvers", "solve_heat", "linear_solvers.solve_heat"),
    ("linear_solvers", "solve_transport", "linear_solvers.solve_transport"),
    ("linear_solvers", "heat_estimate_report", "linear_solvers.heat_estimate_report"),
    ("linear_solvers", "transport_estimate_report", "linear_solvers.transport_estimate_report"),
    ("paraproduct", "product_law_ratio", "paraproduct.product_law_ratio"),
    ("paraproduct", "paraproduct", "paraproduct.paraproduct"),
    ("paraproduct", "remainder", "paraproduct.remainder"),
    ("random_fields", "ring_field", "random_fields.ring_field"),
    ("random_fields", "ball_field", "random_fields.ball_field"),
    ("random_fields", "interior_field", "random_fields.interior_field"),
    ("random_fields", "divergence_free_field", "random_fields.divergence_free_field"),
    ("random_fields", "decaying_series", "random_fields.decaying_series"),
    ("mhd", "run_iteration", "mhd.run_iteration"),
    ("mhd", "select_time_horizon", "mhd.select_time_horizon"),
    ("mhd", "init_iterate", "mhd.init_iterate"),
    ("mhd", "iterate_once", "mhd.iterate_once"),
    ("mhd", "check_uniform_bounds", "mhd.check_uniform_bounds"),
    ("suites", "run_heat_suite", "suites.heat"),
    ("suites", "run_products_suite", "suites.products"),
    ("suites", "run_transport_suite", "suites.transport"),
    ("io_config", "write_diagnostics", "io_config.write_diagnostics"),
)


def _count_steps(key):
    def hook(counters, args, out):
        counters[key] += args[0].n_steps
    return hook


def _count_samples(counters, args, out):
    counters["suites.samples"] += out.n_samples


def _count_diagnostic_bytes(counters, args, out):
    # write_diagnostics writes the CSV and its sidecar next to each other in
    # a directory of their own, so the directory size is the bytes written.
    folder = os.path.dirname(os.path.abspath(args[1]))
    counters["io_config.diagnostics_bytes"] += sum(
        entry.stat().st_size for entry in os.scandir(folder) if entry.is_file()
    )


def _count_transform_bytes(counters, args, out):
    counters["spectral.transform_bytes"] += args[1].nbytes + out.nbytes


HOOKS = {
    "linear_solvers.solve_heat": _count_steps("linear_solvers.heat_steps"),
    "linear_solvers.solve_transport": _count_steps("linear_solvers.transport_steps"),
    "suites.heat": _count_samples,
    "suites.products": _count_samples,
    "suites.transport": _count_samples,
    "io_config.write_diagnostics": _count_diagnostic_bytes,
    "spectral.fft": _count_transform_bytes,
    "spectral.ifft": _count_transform_bytes,
}


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.reset()
        self._patches = []

    def reset(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counters = Counter()
        self._stack = [-1]

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, lpmhd):
        """Wrap every target in every lpmhd module that looks it up."""
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "lpmhd" or key.startswith("lpmhd."))
        ]
        for mod_name, attr, span_name in SPAN_TARGETS:
            # sys.modules, because lpmhd.paraproduct names the function.
            original = getattr(sys.modules[f"lpmhd.{mod_name}"], attr)
            wrapper = self.wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        grid_cls = lpmhd.spectral.FrequencyGrid
        self._patch(grid_cls, "fft", self.wrap("spectral.fft", grid_cls.fft))
        self._patch(grid_cls, "ifft", self.wrap("spectral.ifft", grid_cls.ifft))
        field_cls = lpmhd.spectral.Field
        post_init = field_cls.__post_init__

        @functools.wraps(post_init)
        def counted_post_init(field):
            self.counters["spectral.field_inits"] += 1
            post_init(field)

        self._patch(field_cls, "__post_init__", counted_post_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write_spans(self, path):
        """One span a line: index, parent index, name, start and end in seconds."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{self.parents[i]},{name},"
                    f"{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f}\n"
                )


def _duration_sums(tracer):
    """Per name: span count, inclusive time (outermost spans of that name
    only) and self time (duration minus the time of direct children)."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    durations = [e - s for s, e in zip(starts, ends)]
    child_time = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += durations[i]
    calls, inclusive, self_time = Counter(), Counter(), Counter()
    for i, name in enumerate(names):
        calls[name] += 1
        self_time[name] += durations[i] - child_time[i]
        ancestor = parents[i]
        nested = False
        while ancestor >= 0:
            if names[ancestor] == name:
                nested = True
                break
            ancestor = parents[ancestor]
        if not nested:
            inclusive[name] += durations[i]
    return calls, inclusive, self_time, durations


def layer_metrics(tracer):
    """Per-layer metrics of one traced repetition, as {name: (value, unit)}."""
    calls, inc, self_time, durations = _duration_sums(tracer)
    names, parents = tracer.names, tracer.parents
    counters = tracer.counters

    random_time = 0.0
    difference_time = 0.0
    solver_time_in_iterate = 0.0
    for i, name in enumerate(names):
        parent = parents[i]
        parent_name = names[parent] if parent >= 0 else None
        if name.startswith("random_fields.") and not (
            parent_name or ""
        ).startswith("random_fields."):
            random_time += durations[i]
        if name == "littlewood_paley.chemin_lerner_norm" and parent_name == "mhd.run_iteration":
            difference_time += durations[i]
        if parent_name == "mhd.iterate_once" and name in (
            "linear_solvers.solve_heat", "linear_solvers.solve_transport"
        ):
            solver_time_in_iterate += durations[i]

    heat_steps = counters["linear_solvers.heat_steps"]
    transport_steps = counters["linear_solvers.transport_steps"]
    s, count = "s", "count"
    return {
        "spectral.fft_calls": (calls["spectral.fft"], count),
        "spectral.ifft_calls": (calls["spectral.ifft"], count),
        "spectral.transform_s": (self_time["spectral.fft"] + self_time["spectral.ifft"], s),
        "spectral.transform_bytes": (counters["spectral.transform_bytes"], "B"),
        "spectral.tensor_divergence_calls": (calls["spectral.tensor_divergence"], count),
        "spectral.tensor_divergence_s": (inc["spectral.tensor_divergence"], s),
        "spectral.leray_project_s": (inc["spectral.leray_project"], s),
        "spectral.lp_norm_calls": (calls["spectral.lp_norm"], count),
        "spectral.lp_norm_s": (inc["spectral.lp_norm"], s),
        "spectral.field_inits": (counters["spectral.field_inits"], count),
        "littlewood_paley.shell_lp_matrix_calls": (calls["littlewood_paley.shell_lp_matrix"], count),
        "littlewood_paley.shell_lp_matrix_s": (inc["littlewood_paley.shell_lp_matrix"], s),
        "littlewood_paley.besov_norm_calls": (calls["littlewood_paley.besov_norm"], count),
        "littlewood_paley.besov_norm_s": (inc["littlewood_paley.besov_norm"], s),
        "littlewood_paley.chemin_lerner_norm_s": (inc["littlewood_paley.chemin_lerner_norm"], s),
        "littlewood_paley.chemin_lerner_trace_s": (inc["littlewood_paley.chemin_lerner_trace"], s),
        "linear_solvers.solve_heat_calls": (calls["linear_solvers.solve_heat"], count),
        "linear_solvers.solve_heat_s": (inc["linear_solvers.solve_heat"], s),
        "linear_solvers.heat_steps": (heat_steps, count),
        "linear_solvers.heat_step_us": (
            1e6 * inc["linear_solvers.solve_heat"] / heat_steps if heat_steps else 0.0, "us"
        ),
        "linear_solvers.solve_transport_calls": (calls["linear_solvers.solve_transport"], count),
        "linear_solvers.solve_transport_s": (inc["linear_solvers.solve_transport"], s),
        "linear_solvers.transport_steps": (transport_steps, count),
        "linear_solvers.transport_step_us": (
            1e6 * inc["linear_solvers.solve_transport"] / transport_steps
            if transport_steps else 0.0,
            "us",
        ),
        "linear_solvers.transport_estimate_report_s": (
            inc["linear_solvers.transport_estimate_report"], s
        ),
        "linear_solvers.heat_estimate_report_s": (inc["linear_solvers.heat_estimate_report"], s),
        "paraproduct.product_law_ratio_s": (inc["paraproduct.product_law_ratio"], s),
        "paraproduct.paraproduct_s": (inc["paraproduct.paraproduct"], s),
        "paraproduct.remainder_s": (inc["paraproduct.remainder"], s),
        "random_fields.generate_s": (random_time, s),
        "mhd.horizon_s": (inc["mhd.select_time_horizon"], s),
        "mhd.init_iterate_s": (inc["mhd.init_iterate"], s),
        "mhd.iterate_once_s": (inc["mhd.iterate_once"], s),
        "mhd.assembly_s": (inc["mhd.iterate_once"] - solver_time_in_iterate, s),
        "mhd.bounds_s": (inc["mhd.check_uniform_bounds"], s),
        "mhd.difference_s": (difference_time, s),
        "mhd.iterates": (calls["mhd.iterate_once"], count),
        "suites.heat_s": (inc["suites.heat"], s),
        "suites.products_s": (inc["suites.products"], s),
        "suites.transport_s": (inc["suites.transport"], s),
        "suites.samples": (counters["suites.samples"], count),
        "io_config.write_diagnostics_s": (inc["io_config.write_diagnostics"], s),
        "io_config.diagnostics_bytes": (counters["io_config.diagnostics_bytes"], "B"),
    }
