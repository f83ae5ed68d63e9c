"""Tests of the verification suites' own construction: argument checks, the
verdict against each committed window, the transport suite's shear
continuation, and the memory each suite holds."""

import inspect
import math
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from lpmhd import (
    Field,
    TimeSeriesField,
    TransportProblem,
    build_filter_bank,
    make_grid,
    run_heat_suite,
    run_transport_suite,
    solve_transport,
)
from lpmhd import suites

# The suites that judge against baselines.json, with the grid size each is
# checked on: products holds its windows on N=64 only.
_JUDGED = {"bernstein": 32, "products": 64, "loginterp": 32, "heat": 32, "transport": 32}

# Every committed window, with the words its failure line carries.
_WINDOWS = [
    ("bernstein", "upper", "upper ratio"),
    ("bernstein", "lower", "lower ratio"),
    ("products", "T", "variant T max ratio"),
    ("products", "R", "variant R max ratio"),
    ("products", "full", "variant full max ratio"),
    ("products", "mixed", "variant mixed max ratio"),
    ("loginterp", "max_ratio", "max ratio"),
    ("heat", "max_ratio", "max ratio"),
    ("transport", "shear_minimal_c", "shear minimal C"),
    ("transport", "max_minimal_c", "max minimal C"),
]


class _Recorder(Mapping):
    """Read-only view of a windows dict that records the key path of every
    window read; a key the dict lacks raises KeyError, as in a plain dict."""

    def __init__(self, data, reads, path=()):
        self._data, self._reads, self._path = data, reads, path

    def __getitem__(self, key):
        value = self._data[key]
        if isinstance(value, dict):
            return _Recorder(value, self._reads, self._path + (key,))
        self._reads.add(self._path + (key,))
        return value

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


def _run_judged(name, baselines):
    grid = make_grid(2, _JUDGED[name], 2.0 * math.pi)
    return suites.SUITES[name](grid, build_filter_bank(grid), seed=0, n_samples=1,
                               baselines=baselines)


@pytest.fixture(scope="module")
def small_grid():
    return make_grid(2, 32, 2.0 * math.pi)


@pytest.fixture(scope="module")
def small_bank(small_grid):
    return build_filter_bank(small_grid)


def _traced_suite(suite, grid, bank, marched=None):
    """Run a suite at seed 0 with one sample under tracemalloc.  Returns the
    result and the traced peak in units of one stored cube snapshot of a
    scalar (16 * prod(cube_shape) bytes).  ``marched``, if given, collects
    (T, n_steps) of every transport problem the suite solves."""
    solve = suites.solve_transport

    def spy(problem):
        marched.append((problem.T, problem.n_steps))
        return solve(problem)

    with pytest.MonkeyPatch.context() as mp:
        if marched is not None:
            mp.setattr(suites, "solve_transport", spy)
        tracemalloc.start()
        try:
            result = suite(grid, bank, seed=0, n_samples=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return result, peak / (16 * math.prod(grid.cube_shape))


@pytest.fixture(scope="module")
def traced_transport(small_grid, small_bank):
    marched = []
    result, peak = _traced_suite(run_transport_suite, small_grid, small_bank, marched)
    return result, peak, marched


class TestSampleCount:
    @pytest.mark.parametrize("n_samples", [0, -2])
    def test_suite_rejects_nonpositive_count_before_any_work(self, monkeypatch, n_samples):
        def no_march(problem):
            raise AssertionError("the suite marched before checking n_samples")

        monkeypatch.setattr(suites, "solve_transport", no_march)
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}"):
            run_transport_suite(n_samples=n_samples)


@pytest.fixture(scope="module")
def recorded():
    """Each judging suite run once on the committed windows, and the key
    paths of the windows it read."""
    reads = set()
    results = {name: _run_judged(name, _Recorder(suites.load_baselines(), reads))
               for name in _JUDGED}
    return results, reads


class TestVerdicts:
    def test_judged_suites_are_those_that_take_baselines(self):
        takes = {name for name, fn in suites.SUITES.items()
                 if "baselines" in inspect.signature(fn).parameters}
        assert takes == set(_JUDGED)

    @pytest.mark.parametrize("name", sorted(_JUDGED))
    def test_committed_windows_pass(self, recorded, name):
        result = recorded[0][name]
        assert result.passed, result.failures

    def test_every_window_is_read_and_no_other(self, recorded):
        # A window no suite reads is stale; a read of a missing one raises.
        committed = suites.load_baselines()
        windows = {(suite, key) for suite, keys in committed.items() for key in keys}
        assert recorded[1] == windows
        assert windows == {(suite, key) for suite, key, _ in _WINDOWS}

    @pytest.mark.parametrize("suite, key, label", _WINDOWS)
    def test_empty_window_fails_its_suite(self, suite, key, label):
        baselines = suites.load_baselines()
        baselines[suite][key] = [1.0, 0.0]
        result = _run_judged(suite, baselines)
        assert result.passed is False
        assert result.failures
        assert all(f.startswith(label) and "outside committed window [1.0, 0.0]" in f
                   for f in result.failures), result.failures


class TestInputs:
    @pytest.mark.parametrize("name", sorted(suites.SUITES))
    def test_bank_on_another_grid_rejected(self, grid, name):
        # The bernstein suite used to run silently at the bank's shells,
        # which on a coarser grid can pass its Nyquist radius.
        bank = build_filter_bank(make_grid(2, 32, 2.0 * math.pi))
        with pytest.raises(ValueError, match="grid and bank live on different grids"):
            suites.SUITES[name](grid, bank, n_samples=1)


class TestTransportSuite:
    def test_shear_marched_once(self, traced_transport):
        # Translation over [0, 0.5], the shear estimate run over [0, 0.5],
        # its continuation to T=1, then one [0, 0.25] corpus sample.  A
        # separate [0, 1] shear march used to add 250 steps.
        _, _, marched = traced_transport
        assert marched == [(0.5, 250), (0.5, 250), (0.5, 250), (0.25, 125)]

    def test_holds_one_solution_at_a_time(self, traced_transport):
        # Keeping every solution alive, with a 501-step shear march, peaked
        # at 1180.1 units at this size; dropping each once read gives 443.1.
        # The bound sits halfway.
        _, peak, _ = traced_transport
        assert peak < 811.6

    def test_stats_are_unchanged(self, traced_transport):
        # translation_error is bitwise the value of the separate [0, 1] shear
        # march; l2_drift moves at roundoff only.  Both minimal constants are
        # pinned for velocities held on the 2/3 cube, which drops the
        # roundoff the half spectrum kept off it (1.5e-15 and 1.2e-16 relative).
        result, _, _ = traced_transport
        assert result.passed
        assert list(result.stats) == [
            "translation_error", "l2_drift", "shear_minimal_c", "max_minimal_c",
        ]
        assert result.stats["translation_error"] == float.fromhex("0x1.2c3f000000000p-40")
        assert result.stats["shear_minimal_c"] == float.fromhex("0x1.db930cc567168p-3")
        assert result.stats["max_minimal_c"] == float.fromhex("0x1.e890e5f8a5406p-3")
        assert result.stats["l2_drift"] <= 1e-15

    def test_continuation_matches_one_march(self, small_grid):
        # The steady shear lets [0.5, 1] restart from the last step of
        # [0, 0.5].  The two halves agree with one [0, 1] march up to the
        # velocity's interpolation weights, which differ between the two
        # series (measured 1.4e-16).
        grid = small_grid
        x1, x2 = grid.coords()
        shear = Field(grid, np.stack([np.sin(x2), np.zeros(grid.shape)]))
        f0 = Field(grid, (np.sin(x1) * np.cos(2.0 * x2))[None])

        def steady(T):
            return TimeSeriesField.from_snapshots(np.array([0.0, T]), [shear, shear])

        whole = solve_transport(TransportProblem(f0, steady(1.0), None, 1.0, 2e-3))
        first = solve_transport(TransportProblem(f0, steady(0.5), None, 0.5, 2e-3))
        second = solve_transport(
            TransportProblem(first.sample_at(0.5), steady(0.5), None, 0.5, 2e-3)
        )
        scale = np.max(np.abs(whole.coeffs[-1]))
        assert np.max(np.abs(second.coeffs[-1] - whole.coeffs[-1])) <= 1e-15 * scale


class TestHeatSuite:
    def test_drops_each_series_once_read(self, small_grid, small_bank):
        # Keeping the single-mode solution, the self-convergence forcings and
        # solutions and the scale-invariance problems alive peaked at 429.3
        # units at this size; dropping each once read gives 195.4.  The bound
        # sits halfway.
        result, peak = _traced_suite(run_heat_suite, small_grid, small_bank)
        assert result.passed
        assert peak < 312.4
