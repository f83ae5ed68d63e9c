"""Shell-localized harmonic analysis and small-data MHD machinery on the
periodic box.

The package splits into layers: ``spectral`` (grids, the real FFT and its
2/3-rule cube transforms, fields, divergence, Leray projection, L^p norms,
dealiased products), ``littlewood_paley`` (dyadic filter
banks, shell norms, space-time norms, derivative-ratio checks),
``paraproduct`` (three-part product splitting and inequality checkers),
``linear_solvers`` (exponential heat marcher, RK4 advection marcher, and
their a-priori-estimate monitors), ``mhd`` (the coupled iteration, bound
monitors, and the twin-run uniqueness gauge), plus ``io_config``/``cli``
for persistence and the command line.
"""

from .spectral import (
    Field,
    FrequencyGrid,
    SpectralField,
    dealiased_product,
    divergence,
    leray_project,
    lp_norm,
    make_grid,
    mean_mode,
    tensor_divergence,
    to_physical,
    to_spectral,
)
from .littlewood_paley import (
    BernsteinReport,
    BesovSpec,
    FilterBank,
    TimeSeriesField,
    bernstein_ratios,
    besov_norm,
    build_filter_bank,
    chemin_lerner_norm,
    chemin_lerner_trace,
    default_band,
    dyadic_block,
    low_pass,
    lq_besov_norm,
)
from .paraproduct import (
    BonyParts,
    EstimateReport,
    bony_decompose,
    log_interpolation_ratio,
    paraproduct,
    product_law_ratio,
    remainder,
)
from .linear_solvers import (
    EstimateMonitor,
    HeatProblem,
    TransportProblem,
    etd_phi1,
    etd_phi2,
    heat_estimate_report,
    solve_heat,
    solve_transport,
    transport_estimate_report,
)
from .mhd import (
    BoundsReport,
    Horizon,
    IterationConfig,
    IterationDiagnostics,
    IterationRecord,
    IterationState,
    MhdInitialData,
    OsgoodResult,
    SweepResult,
    UniquenessReport,
    check_uniform_bounds,
    init_iterate,
    iterate_once,
    osgood_check,
    perturb_initial_data,
    perturbation_sweep,
    prepare_initial_data,
    run_iteration,
    select_time_horizon,
    system_residual,
    taylor_green_data,
    truncate_initial_data,
    twin_run_uniqueness,
)
from .random_fields import (
    ball_field,
    decaying_series,
    divergence_free_field,
    interior_field,
    ring_field,
    sample_rng,
)
from .io_config import (
    ConfigError,
    FormatError,
    RunConfig,
    load_config,
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
from .suites import (
    SUITES,
    SuiteResult,
    load_baselines,
    run_bernstein_suite,
    run_bony_suite,
    run_heat_suite,
    run_loginterp_suite,
    run_products_suite,
    run_transport_suite,
)

__version__ = "0.1.0"
