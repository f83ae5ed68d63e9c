"""The benchmark's layer trace names lpmhd functions by module and name.

``benchmarks/tracing.py`` is loaded by path, never edited, and every name it
wraps must still resolve; otherwise a rename would quietly zero a layer
metric instead of failing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import lpmhd
from lpmhd import IterationConfig, taylor_green_data

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("lpmhd_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracing):
    assert tracing.SPAN_TARGETS
    for mod_name, attr, _ in tracing.SPAN_TARGETS:
        module = importlib.import_module(f"lpmhd.{mod_name}")
        assert callable(getattr(module, attr, None)), f"lpmhd.{mod_name}.{attr} is gone"


def test_class_hooks_exist():
    for owner, attr in (
        (lpmhd.spectral.FrequencyGrid, "fft"),
        (lpmhd.spectral.FrequencyGrid, "ifft"),
        (lpmhd.spectral.Field, "__post_init__"),
    ):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"


def test_traced_iteration_fills_the_mhd_layers(tracing):
    config = IterationConfig(N=32, t_max=0.01, max_iterations=2, tolerance=0.0)
    data = taylor_green_data(config.grid())
    tracer = tracing.Tracer()
    tracer.install(lpmhd)
    try:
        # Looked up after install, as the benchmark does, so the call is wrapped.
        lpmhd.run_iteration(data, config)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mhd.iterates"][0] == 2
    for name in ("mhd.horizon_s", "mhd.bounds_s", "mhd.difference_s", "mhd.assembly_s"):
        assert metrics[name][0] > 0.0, name
    assert metrics["spectral.fft_calls"][0] > 0
