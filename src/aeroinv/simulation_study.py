"""Synthetic measurement generation and the comparative inversion study.

Truth size distributions come from three two-parameter families whose
parameter grids are chosen so the distributions are effectively supported
inside the radius domain.  Forward extinctions are synthesized on a fine
Simpson grid (deliberately finer than, and distinct from, the inversion's
trapezoidal integration grid), then perturbed by repeated Gaussian noise
draws whose sample means and variances form the measurement.  One method
table, ``invert``, serves the CLI and both studies, which share one loop.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .discretization import (
    RadiusGrid,
    evaluate_distribution,
    kernel_rows,
    uniform_grid,
)
from .errors import NoModels, RootFailure, ZeroTruth
from .model_selection import (
    DEFAULT_TAU_GRID,
    Measurement,
    ModelCandidate,
    bic_select,
    invert_constrained,
    invert_morozov,
    invert_unconstrained,
    select_models,
)
from .optics import get_material, mixed_kernel_rows
from .orthant_mvn import DEFAULT_SAMPLES
from .two_component import (
    DEFAULT_ANCHOR_COUNT,
    DEFAULT_N_FRAC,
    TAU_GRID_TWO_COMPONENT,
    KernelFamily,
    build_kernel_family,
    generate_models_two_component,
)

__all__ = [
    "R_MIN",
    "R_MAX",
    "N_INTEGRATION",
    "N_FINE",
    "study_wavelengths",
    "fine_grid",
    "integration_grid",
    "kernel_rows",
    "KernelLevelCache",
    "SizeDistribution",
    "StudyConfig",
    "TwoComponentStudyConfig",
    "StudyReport",
    "eval_size_distribution",
    "parameter_grid",
    "forward_extinctions",
    "simulate_measurement",
    "relative_l2_error",
    "run_study",
    "run_study_two_component",
    "kernel_family",
    "invert",
    "reduced_config",
    "full_config",
    "reduced_two_component_config",
    "full_two_component_config",
]

R_MIN = 0.01
R_MAX = 7.0
N_INTEGRATION = 300
N_FINE = 10001
DEFAULT_REPEATS = 300
VARIANCE_FLOOR = 1e-30
# The medium of every study and CLI forward model, and the particle
# material of the single-component study.
MEDIUM = "air"
PARTICLE = "h2o"

# inclusive linspaces per detector band; 8+8+8+16+8 = 48 wavelengths
WAVELENGTH_BANDS = (
    (0.6, 0.8, 8),
    (1.1, 1.3, 8),
    (1.6, 1.8, 8),
    (2.1, 2.5, 16),
    (3.1, 3.3, 8),
)

FAMILIES = ("log_normal", "rrsb", "hedrih")
METHODS = ("constrained", "morozov", "unconstrained", "bic")


def study_wavelengths() -> np.ndarray:
    return np.concatenate([np.linspace(a, b, n) for a, b, n in WAVELENGTH_BANDS])


def fine_grid() -> RadiusGrid:
    return uniform_grid(R_MIN, R_MAX, N_FINE)


def integration_grid() -> RadiusGrid:
    return uniform_grid(R_MIN, R_MAX, N_INTEGRATION)


@dataclass(frozen=True)
class SizeDistribution:
    """Analytic truth family: log_normal(sigma, mu) | rrsb(N, nu) | hedrih(eta)."""

    family: str
    amplitude: float
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.amplitude <= 0 or any(p <= 0 for p in self.params):
            raise ValueError("amplitude and parameters must be positive")

    def __call__(self, r):
        return eval_size_distribution(self, r)


def eval_size_distribution(dist: SizeDistribution, r):
    r = np.asarray(r, dtype=float)
    A = dist.amplitude
    if dist.family == "log_normal":
        sigma, mu = dist.params
        out = (
            A
            / (np.sqrt(2.0 * np.pi) * sigma * r)
            * np.exp(-0.5 * ((np.log(r) - np.log(mu)) / sigma) ** 2)
        )
    elif dist.family == "rrsb":
        n_exp, nu = dist.params
        out = A * n_exp / nu * (r / nu) ** (n_exp - 1.0) * np.exp(-((r / nu) ** n_exp))
    else:  # hedrih
        (eta,) = dist.params
        out = 128.0 * A * r**3 / (3.0 * eta**4) * np.exp(-4.0 * r / eta)
    return out


def parameter_grid(family: str) -> list[SizeDistribution]:
    """The 100 study parameter sets per family, each of amplitude 1e4.

    Parameters are spread between the smallest value keeping the modal radius
    at 1 um and the largest value keeping the density at ``R_MAX`` below
    ``tol`` = 10.
    """
    amplitude, tol, r_max = 1e4, 10.0, R_MAX
    out = []
    if family == "log_normal":
        for k in range(10):
            sigma = 0.2 + 0.3 * k / 9.0
            v = r_max * np.exp(
                -np.sqrt(
                    -2.0 * sigma**2
                    * np.log(np.sqrt(2.0 * np.pi) * r_max * sigma * tol / amplitude)
                )
            )
            mu_min = np.exp(sigma**2)
            for j in range(10):
                mu = mu_min + j / 9.0 * (v - mu_min)
                out.append(SizeDistribution(family, amplitude, (sigma, mu)))
    elif family == "rrsb":
        for k in range(10):
            n_exp = k + 3
            rhs = r_max * tol / (amplitude * n_exp)
            f = lambda p: p * np.exp(-p) - rhs
            try:
                p_root = brentq(f, 1.0, 50.0, xtol=1e-14)
            except ValueError as exc:
                raise RootFailure(
                    f"no root > 1 for the rrsb tail equation at N={n_exp}"
                ) from exc
            nu_max = r_max * p_root ** (-1.0 / n_exp)
            nu_min = ((n_exp - 1.0) / n_exp) ** (-1.0 / n_exp)
            for j in range(10):
                nu = nu_min + j / 9.0 * (nu_max - nu_min)
                out.append(SizeDistribution(family, amplitude, (float(n_exp), nu)))
    elif family == "hedrih":
        tail = lambda eta: (
            128.0 * amplitude * r_max**3 / (3.0 * eta**4) * np.exp(-4.0 * r_max / eta)
            - tol
        )
        try:
            eta_max = brentq(tail, 0.5, 6.0, xtol=1e-12)
        except ValueError as exc:
            raise RootFailure("no root for the hedrih tail equation") from exc
        for k in range(100):
            out.append(
                SizeDistribution(
                    family, amplitude, (0.8 + k / 99.0 * (eta_max - 0.8),)
                )
            )
    else:
        raise ValueError(f"unknown family {family!r}")
    return out


def forward_extinctions(
    dist: SizeDistribution,
    kernel,
    wavelengths,
    grid: RadiusGrid | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """True extinctions by the composite Simpson rule on the fine grid."""
    from scipy.integrate import simpson  # loaded by simulate, study and study2
    if grid is None:
        grid = fine_grid()
    if rows is None:
        rows = kernel_rows(kernel, wavelengths, grid)
    density = eval_size_distribution(dist, grid.points)
    return simpson(rows * density, x=grid.points, axis=1)


def simulate_measurement(
    wavelengths,
    true_e,
    noise_fraction: float,
    repeats: int = DEFAULT_REPEATS,
    rng=None,
) -> Measurement:
    """Repeated noisy extinction draws summarized by sample mean/variance."""
    try:
        n_draws = operator.index(repeats)
    except TypeError:
        n_draws = 0
    if n_draws < 1:
        raise ValueError(f"repeats must be an integer >= 1, got {repeats!r}")
    if not 0.0 <= noise_fraction < np.inf:
        raise ValueError(
            f"noise_fraction must be finite and nonnegative, got {noise_fraction!r}"
        )
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    true_e = np.asarray(true_e, dtype=float)
    sd = noise_fraction * true_e
    draws = true_e + rng.standard_normal((n_draws, true_e.size)) * sd
    if n_draws > 1:
        means = draws.mean(axis=0)
        variances = draws.var(axis=0, ddof=1)
    else:
        means = draws[0]
        variances = np.zeros_like(means)
    variances = np.maximum(variances, VARIANCE_FLOOR)
    return Measurement(np.asarray(wavelengths, float), means, variances, n_draws)


def relative_l2_error(
    weights, grid: RadiusGrid, dist: SizeDistribution, eval_grid: RadiusGrid | None = None
) -> float:
    """Reconstruction error, percent of the truth's fine-grid L2 norm."""
    from scipy.integrate import simpson  # loaded by study and study2
    if eval_grid is None:
        eval_grid = fine_grid()
    pts = eval_grid.points
    truth = eval_size_distribution(dist, pts)
    truth_norm_sq = simpson(truth**2, x=pts)
    if truth_norm_sq <= 0.0:
        raise ZeroTruth("truth distribution has zero L2 norm")
    recon = evaluate_distribution(np.asarray(weights, float), grid, pts)
    err_sq = simpson((recon - truth) ** 2, x=pts)
    return 100.0 * float(np.sqrt(err_sq / truth_norm_sq))


@dataclass(frozen=True)
class StudyConfig:
    families: tuple[str, ...] = FAMILIES
    methods: tuple[str, ...] = METHODS
    reg_kind: str = "tikhonov"
    noise_fraction: float = 0.30
    parameter_indices: tuple[int, ...] | None = None  # None = all 100
    repeats_per_parameter: int = 10
    seed: int = 0
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    mc_samples: int = DEFAULT_SAMPLES


@dataclass(frozen=True)
class TwoComponentStudyConfig:
    families: tuple[str, ...] = ("log_normal",)
    reg_kind: str = "tikhonov"
    noise_fraction: float = 0.05
    water_fractions: tuple[float, ...] = (0.0, 0.33, 0.67, 1.0)
    parameter_indices: tuple[int, ...] | None = None
    repeats_per_parameter: int = 1
    seed: int = 0
    tau_grid: tuple[float, ...] = TAU_GRID_TWO_COMPONENT
    mc_samples: int = DEFAULT_SAMPLES
    component_a: str = "h2o"
    component_b: str = "csi"


REDUCED_PARAMETER_INDICES = tuple(range(0, 100, 11))  # 10 spread indices


def reduced_config(**overrides) -> StudyConfig:
    base = StudyConfig(
        parameter_indices=REDUCED_PARAMETER_INDICES, repeats_per_parameter=3
    )
    return replace(base, **overrides)


def full_config(**overrides) -> StudyConfig:
    return replace(StudyConfig(), **overrides)


def reduced_two_component_config(**overrides) -> TwoComponentStudyConfig:
    base = TwoComponentStudyConfig(
        parameter_indices=(0, 24, 49, 74, 99), repeats_per_parameter=2
    )
    return replace(base, **overrides)


def full_two_component_config(**overrides) -> TwoComponentStudyConfig:
    return replace(
        TwoComponentStudyConfig(
            water_fractions=(0.0, 0.11, 0.22, 0.33, 0.44, 0.56, 0.67, 0.78, 0.89, 1.0)
        ),
        **overrides,
    )


@dataclass(frozen=True)
class RunRecord:
    family: str
    method: str
    reg_kind: str
    param_index: int
    repeat: int
    l2_error: float
    model_dim: int
    runtime: float
    # success | l2_failure | fraction_failure | no_model_failure | search_failure
    status: str
    water_fraction: float | None = None
    retrieved_fraction: float | None = None
    fraction_dev: float | None = None
    # standard error of the top candidate's log evidence; None where the
    # method has no Monte Carlo evidence (the classical methods) or no model
    log_marginal_se: float | None = None
    # ranked candidates whose evidence integral ran untilted (Newton's
    # method for the minimax tilt gave up); None like log_marginal_se
    untilted_integrals: int | None = None


@dataclass(frozen=True)
class MethodStats:
    runs: int
    avg_l2: float
    worst_l2: float
    l2_failures: int
    no_model_failures: int
    search_failures: int
    avg_time: float
    worst_time: float
    avg_dim: float
    # mean and largest RunRecord.log_marginal_se over the runs that have one
    avg_log_marginal_se: float | None
    worst_log_marginal_se: float | None
    # sum of RunRecord.untilted_integrals over the runs that have one
    untilted_integrals: int | None


@dataclass(frozen=True)
class FractionStats:
    water_percent: float
    runs: int
    avg_l2: float
    avg_dev: float
    worst_dev: float
    l2_failures: int
    dev_failures: int
    no_model_failures: int
    search_failures: int
    avg_time: float
    worst_time: float
    avg_dim: float
    avg_log_marginal_se: float | None
    worst_log_marginal_se: float | None
    untilted_integrals: int | None


@dataclass(frozen=True)
class StudyReport:
    records: tuple[RunRecord, ...]
    method_stats: dict
    fraction_stats: dict | None = None
    wall_time: float = 0.0


def _aggregate(records, by_fraction: bool = False) -> dict:
    """Per-group statistics: by (family, method, reg_kind), or with
    ``by_fraction`` by (family, reg_kind, water percent)."""
    if by_fraction:
        keyfn = lambda r: (r.family, r.reg_kind, r.water_fraction)
    else:
        keyfn = lambda r: (r.family, r.method, r.reg_kind)
    stats = {}
    for key, group in itertools.groupby(sorted(records, key=keyfn), key=keyfn):
        rows = list(group)
        l2 = np.array([r.l2_error for r in rows])
        times = np.array([r.runtime for r in rows])
        dims = np.array([r.model_dim for r in rows], dtype=float)
        se = np.array(
            [r.log_marginal_se for r in rows if r.log_marginal_se is not None]
        )
        untilted = [
            r.untilted_integrals for r in rows if r.untilted_integrals is not None
        ]
        common = dict(
            runs=len(rows),
            avg_l2=float(l2.mean()),
            l2_failures=int(np.sum(l2 >= 100.0)),
            no_model_failures=sum(r.status == "no_model_failure" for r in rows),
            search_failures=sum(r.status == "search_failure" for r in rows),
            avg_time=float(times.mean()),
            worst_time=float(times.max()),
            avg_dim=float(dims.mean()),
            avg_log_marginal_se=float(se.mean()) if se.size else None,
            worst_log_marginal_se=float(se.max()) if se.size else None,
            untilted_integrals=sum(untilted) if untilted else None,
        )
        if not by_fraction:
            stats[key] = MethodStats(worst_l2=float(l2.max()), **common)
            continue
        dev = np.array([r.fraction_dev for r in rows])
        family, reg_kind, frac = key
        stats[(family, reg_kind, round(100.0 * frac, 6))] = FractionStats(
            water_percent=100.0 * frac,
            avg_dev=float(dev.mean()),
            worst_dev=float(dev.max()),
            dev_failures=int(np.sum(dev >= 50.0)),
            **common,
        )
    return stats


class KernelLevelCache(KernelFamily):
    """One-fraction kernel family from precomputed kernel rows (N_l, n_nodes)."""

    def __init__(self, rows, wavelengths, igrid):
        one = np.zeros(1)
        super().__init__(wavelengths, igrid, one, one, np.asarray(rows)[None])


def _run_rng(config_seed, family, param_index, repeat, *extra):
    spawn_key = (FAMILIES.index(family), param_index, repeat, *extra)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=config_seed, spawn_key=spawn_key)
    )


def _study_truths(config, family):
    """(parameter index, truth) pairs a study config selects for a family."""
    params = parameter_grid(family)
    indices = config.parameter_indices
    if indices is None:
        indices = range(len(params))
    return [(pi, params[pi]) for pi in indices]


def _tables(names):
    """Index tables of components a and b and ``MEDIUM``; one name is both."""
    keys = (names[0], names[-1], MEDIUM)
    tables = {n: get_material(n) for n in set(keys)}
    return [tables[n] for n in keys]


def kernel_family(names, wavelengths) -> KernelFamily:
    """The forward model of material ``names`` in ``MEDIUM``: one name is the
    one-fraction family, two are the anchored mixture."""
    one = len(names) == 1
    return build_kernel_family(
        *_tables(names), wavelengths, integration_grid(),
        anchor_count=1 if one else DEFAULT_ANCHOR_COUNT,
        n_frac=1 if one else DEFAULT_N_FRAC,
    )


def invert(meas, forward, method, reg_kind, config, seed) -> list[ModelCandidate]:
    """Ranked candidates of one inversion ``method`` (a ``METHODS`` entry or
    ``constrained2``) on the default ladder; ``config`` supplies the tau
    grid and the sample budget."""
    tau_grid, samples = config.tau_grid, config.mc_samples
    methods = {
        "constrained": lambda: invert_constrained(
            meas, forward, tau_grid=tau_grid, reg_kind=reg_kind,
            samples=samples, seed=seed,
        ),
        "constrained2": lambda: select_models(
            generate_models_two_component(
                forward, meas, tau_grid=tau_grid, reg_kind=reg_kind
            ),
            meas, samples=samples, seed=seed,
        ),
        "morozov": lambda: invert_morozov(meas, forward, reg_kind=reg_kind),
        "unconstrained": lambda: invert_unconstrained(
            meas, forward, tau_grid=tau_grid, reg_kind=reg_kind
        ),
        "bic": lambda: [bic_select(meas, forward, tau_grid=tau_grid)[0]],
    }
    if method not in methods:
        raise ValueError(f"unknown method {method!r}")
    return methods[method]()


def _closed_loop(config, names, fractions, methods) -> StudyReport:
    """Truth, noisy draw, inversion and record for every family, parameter,
    true fraction, repeat and method.  A single material is the
    fraction ``None``, whose RNG spawn key has no fraction term."""
    t_start = time.perf_counter()
    wavelengths = study_wavelengths()
    fgrid = fine_grid()
    forward = kernel_family(names, wavelengths)
    fine_rows = mixed_kernel_rows(
        *_tables(names), [1.0 if p is None else p for p in fractions],
        wavelengths, fgrid.points,
    )
    records = []
    for family in config.families:
        for pi, dist in _study_truths(config, family):
            for p_true, rows in zip(fractions, fine_rows):
                e_true = forward_extinctions(
                    dist, None, wavelengths, grid=fgrid, rows=rows
                )
                extra = () if p_true is None else (int(round(1000 * p_true)),)
                for rep in range(config.repeats_per_parameter):
                    rng = _run_rng(config.seed, family, pi, rep, *extra)
                    meas = simulate_measurement(
                        wavelengths, e_true, config.noise_fraction, rng=rng
                    )
                    mc_seed = int(rng.integers(2**31 - 1))
                    records += [
                        _invert_one(
                            meas, forward, method, config.reg_kind, config,
                            mc_seed, dist, family, pi, rep, fgrid, p_true,
                        )
                        for method in methods
                    ]
    return StudyReport(
        records=tuple(records),
        method_stats=_aggregate(records),
        wall_time=time.perf_counter() - t_start,
    )


def run_study(config: StudyConfig) -> StudyReport:
    """Single-component comparative study across methods and families."""
    return _closed_loop(config, (PARTICLE,), (None,), config.methods)


def run_study_two_component(config: TwoComponentStudyConfig) -> StudyReport:
    """Water/CsI mixture study retrieving distributions and volume fractions."""
    report = _closed_loop(
        config, (config.component_a, config.component_b), config.water_fractions,
        ("constrained2",),
    )
    return replace(
        report, fraction_stats=_aggregate(report.records, by_fraction=True)
    )


def _invert_one(
    meas, builder, method, reg_kind, config, mc_seed, dist, family, pi, rep, fgrid,
    p_true=None,
):
    """One study run; the mixture study's ``constrained2`` runs pass the true
    water fraction ``p_true``, which adds the retrieved one to the record.
    A run that finds no model, or whose discrepancy search fails to converge
    (``RootFailure``), records the coarsest grid with zero weights."""
    t0 = time.perf_counter()
    status, untilted = "success", None
    try:
        ranked = invert(meas, builder, method, reg_kind, config, mc_seed)
        top = ranked[0]
        weights, grid, dim = top.weights, top.kernel.collocation_grid, top.dim
        p_recon, se = top.fraction, top.log_marginal_se
        if top.log_marginal_tilted is not None:
            untilted = sum(c.log_marginal_tilted is False for c in ranked)
    except (NoModels, RootFailure) as exc:
        status = (
            "no_model_failure" if isinstance(exc, NoModels) else "search_failure"
        )
        grid = builder(3).collocation_grid
        weights, dim, p_recon, se = np.zeros(len(grid) - 2), 0, 0.5, None
    runtime = time.perf_counter() - t0
    l2 = relative_l2_error(weights, grid, dist, fgrid)
    if status == "success" and l2 >= 100.0:
        status = "l2_failure"
    fraction = {}
    if p_true is not None:
        dev = abs(100.0 * p_true - 100.0 * p_recon)
        if status == "success" and dev >= 50.0:
            status = "fraction_failure"
        fraction = dict(
            water_fraction=p_true, retrieved_fraction=p_recon, fraction_dev=dev
        )
    return RunRecord(
        family=family,
        method=method,
        reg_kind=reg_kind,
        param_index=pi,
        repeat=rep,
        l2_error=l2,
        model_dim=dim,
        runtime=runtime,
        status=status,
        **fraction,
        log_marginal_se=se,
        untilted_integrals=untilted,
    )
