"""Synthetic measurement generation and the comparative inversion study.

Truth size distributions come from three two-parameter families whose
parameter grids are chosen so the distributions are effectively supported
inside the radius domain.  Forward extinctions are synthesized on a fine
Simpson grid (deliberately finer than, and distinct from, the inversion's
trapezoidal integration grid), then perturbed by repeated Gaussian noise
draws whose sample means and variances form the measurement.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import simpson
from scipy.optimize import brentq

from .discretization import (
    RadiusGrid,
    assemble_kernel_matrix,
    build_collocation_grid,
    evaluate_distribution,
    uniform_grid,
)
from .errors import NoModels, NonPositiveIntensity, RootFailure, ZeroTruth
from .model_selection import (
    DEFAULT_LADDER,
    DEFAULT_TAU_GRID,
    Measurement,
    bic_select,
    invert_constrained,
    invert_morozov,
    invert_unconstrained,
)
from .optics import get_material, make_kernel, mixed_kernel_rows
from .two_component import (
    FALLBACK_TAU_GRID,
    TAU_GRID_TWO_COMPONENT,
    build_kernel_family,
    generate_models_two_component,
    select_models_two_component,
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
    "compute_extinction_from_intensities",
    "relative_l2_error",
    "run_study",
    "run_study_two_component",
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


def parameter_grid(
    family: str, amplitude: float = 1e4, tol: float = 10.0, r_max: float = R_MAX
) -> list[SizeDistribution]:
    """The 100 study parameter sets per family.

    Parameters are spread between the smallest value keeping the modal radius
    at 1 um and the largest value keeping the density at r_max below ``tol``.
    """
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


def kernel_rows(kernel, wavelengths, grid: RadiusGrid) -> np.ndarray:
    """Kernel values on a radius grid, one row per wavelength."""
    return np.vstack([np.asarray(kernel(grid.points, l)) for l in wavelengths])


def forward_extinctions(
    dist: SizeDistribution,
    kernel,
    wavelengths,
    grid: RadiusGrid | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """True extinctions by the composite Simpson rule on the fine grid."""
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
    if rng is None or isinstance(rng, int):
        rng = np.random.default_rng(rng)
    true_e = np.asarray(true_e, dtype=float)
    sd = noise_fraction * true_e
    draws = true_e + rng.standard_normal((repeats, true_e.size)) * sd
    if repeats > 1:
        means = draws.mean(axis=0)
        variances = draws.var(axis=0, ddof=1)
    else:
        means = draws[0]
        variances = np.zeros_like(means)
    variances = np.maximum(variances, VARIANCE_FLOOR)
    return Measurement(np.asarray(wavelengths, float), means, variances, repeats)


def compute_extinction_from_intensities(
    i_long, i_short, offsets_long, offsets_short, g_long, g_short, x_floated=0.0
):
    """Path-length-normalized log intensity ratio.

    The floated protective-gas section shortens both paths equally, so only
    the geometric gap enters.
    """
    i_long = np.asarray(i_long, float) - np.asarray(offsets_long, float)
    i_short = np.asarray(i_short, float) - np.asarray(offsets_short, float)
    if np.any(i_long <= 0.0) or np.any(i_short <= 0.0):
        raise NonPositiveIntensity("cleaned intensities must be positive")
    gap = (g_long - x_floated) - (g_short - x_floated)
    if gap <= 0.0:
        raise ValueError("long path must exceed short path")
    return -(np.log(i_long) - np.log(i_short)) / gap


def relative_l2_error(
    weights, grid: RadiusGrid, dist: SizeDistribution, eval_grid: RadiusGrid | None = None
) -> float:
    """Reconstruction error, percent of the truth's fine-grid L2 norm."""
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
    reg_kinds: tuple[str, ...] = ("tikhonov",)
    noise_fraction: float = 0.30
    parameter_indices: tuple[int, ...] | None = None  # None = all 100
    repeats_per_parameter: int = 10
    measurement_repeats: int = DEFAULT_REPEATS
    seed: int = 0
    ladder: tuple[int, ...] = DEFAULT_LADDER
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    max_disc: int = 3
    mc_samples: int = 50_000
    particle: str = "h2o"
    medium: str = "air"


@dataclass(frozen=True)
class TwoComponentStudyConfig:
    families: tuple[str, ...] = ("log_normal",)
    reg_kinds: tuple[str, ...] = ("tikhonov",)
    noise_fraction: float = 0.05
    water_fractions: tuple[float, ...] = (0.0, 0.33, 0.67, 1.0)
    parameter_indices: tuple[int, ...] | None = None
    repeats_per_parameter: int = 1
    measurement_repeats: int = DEFAULT_REPEATS
    seed: int = 0
    ladder: tuple[int, ...] = DEFAULT_LADDER
    tau_grid: tuple[float, ...] = TAU_GRID_TWO_COMPONENT
    fallback_tau_grid: tuple[float, ...] = FALLBACK_TAU_GRID
    mc_samples: int = 50_000
    component_a: str = "h2o"
    component_b: str = "csi"
    medium: str = "air"
    anchor_count: int = 101
    n_frac: int = 201


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
    status: str  # success | l2_failure | fraction_failure | no_model_failure
    water_fraction: float | None = None
    retrieved_fraction: float | None = None
    fraction_dev: float | None = None


@dataclass(frozen=True)
class MethodStats:
    runs: int
    avg_l2: float
    worst_l2: float
    l2_failures: int
    no_model_failures: int
    avg_time: float
    worst_time: float
    avg_dim: float


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
    avg_time: float
    worst_time: float
    avg_dim: float


@dataclass(frozen=True)
class StudyReport:
    records: tuple[RunRecord, ...]
    method_stats: dict
    fraction_stats: dict | None = None
    wall_time: float = 0.0


def _aggregate_methods(records) -> dict:
    stats = {}
    keyfn = lambda r: (r.family, r.method, r.reg_kind)
    for key, group in itertools.groupby(sorted(records, key=keyfn), key=keyfn):
        rows = list(group)
        l2 = np.array([r.l2_error for r in rows])
        times = np.array([r.runtime for r in rows])
        dims = np.array([r.model_dim for r in rows], dtype=float)
        stats[key] = MethodStats(
            runs=len(rows),
            avg_l2=float(l2.mean()),
            worst_l2=float(l2.max()),
            l2_failures=int(np.sum(l2 >= 100.0)),
            no_model_failures=sum(r.status == "no_model_failure" for r in rows),
            avg_time=float(times.mean()),
            worst_time=float(times.max()),
            avg_dim=float(dims.mean()),
        )
    return stats


def _aggregate_fractions(records) -> dict:
    stats = {}
    keyfn = lambda r: (r.family, r.reg_kind, r.water_fraction)
    for key, group in itertools.groupby(sorted(records, key=keyfn), key=keyfn):
        rows = list(group)
        l2 = np.array([r.l2_error for r in rows])
        dev = np.array([r.fraction_dev for r in rows])
        times = np.array([r.runtime for r in rows])
        dims = np.array([r.model_dim for r in rows], dtype=float)
        family, reg_kind, frac = key
        stats[(family, reg_kind, round(100.0 * frac, 6))] = FractionStats(
            water_percent=100.0 * frac,
            runs=len(rows),
            avg_l2=float(l2.mean()),
            avg_dev=float(dev.mean()),
            worst_dev=float(dev.max()),
            l2_failures=int(np.sum(l2 >= 100.0)),
            dev_failures=int(np.sum(dev >= 50.0)),
            no_model_failures=sum(r.status == "no_model_failure" for r in rows),
            avg_time=float(times.mean()),
            worst_time=float(times.max()),
            avg_dim=float(dims.mean()),
        )
    return stats


class KernelLevelCache:
    """Per-level kernel matrices assembled once from cached kernel rows."""

    def __init__(self, rows, wavelengths, igrid):
        self.rows = rows
        self.wavelengths = wavelengths
        self.igrid = igrid
        self._levels = {}

    def __call__(self, n_col):
        if n_col not in self._levels:
            cgrid = build_collocation_grid(n_col, self.igrid)
            self._levels[n_col] = assemble_kernel_matrix(
                None, self.wavelengths, self.igrid, cgrid, kernel_rows=self.rows
            )
        return self._levels[n_col]


def _run_seed(config_seed, family, param_index, repeat):
    fam_id = FAMILIES.index(family)
    return np.random.SeedSequence(
        entropy=config_seed, spawn_key=(fam_id, param_index, repeat)
    )


def _single_kernel(particle: str, medium: str):
    return make_kernel(get_material(particle), get_material(medium))


def run_study(config: StudyConfig) -> StudyReport:
    """Single-component comparative study across methods and families."""
    t_start = time.perf_counter()
    wavelengths = study_wavelengths()
    igrid = integration_grid()
    fgrid = fine_grid()
    kernel = _single_kernel(config.particle, config.medium)
    fine_rows = kernel_rows(kernel, wavelengths, fgrid)
    builder = KernelLevelCache(
        kernel_rows(kernel, wavelengths, igrid), wavelengths, igrid
    )
    records = []
    for family in config.families:
        params = parameter_grid(family)
        indices = (
            config.parameter_indices
            if config.parameter_indices is not None
            else tuple(range(len(params)))
        )
        for pi in indices:
            dist = params[pi]
            e_true = forward_extinctions(
                dist, kernel, wavelengths, grid=fgrid, rows=fine_rows
            )
            for rep in range(config.repeats_per_parameter):
                rng = np.random.default_rng(
                    _run_seed(config.seed, family, pi, rep)
                )
                meas = simulate_measurement(
                    wavelengths,
                    e_true,
                    config.noise_fraction,
                    config.measurement_repeats,
                    rng,
                )
                mc_seed = int(rng.integers(2**31 - 1))
                for method, reg_kind in itertools.product(
                    config.methods, config.reg_kinds
                ):
                    records.append(
                        _invert_one(
                            meas, builder, method, reg_kind, config, mc_seed,
                            dist, family, pi, rep, fgrid,
                        )
                    )
    return StudyReport(
        records=tuple(records),
        method_stats=_aggregate_methods(records),
        wall_time=time.perf_counter() - t_start,
    )


def _invert_one(
    meas, builder, method, reg_kind, config, mc_seed, dist, family, pi, rep, fgrid
):
    t0 = time.perf_counter()
    status = "success"
    try:
        if method == "constrained":
            ranked = invert_constrained(
                meas,
                builder,
                ladder=config.ladder,
                tau_grid=config.tau_grid,
                reg_kind=reg_kind,
                max_disc=config.max_disc,
                samples=config.mc_samples,
                seed=mc_seed,
            )
            top = ranked[0]
        elif method == "morozov":
            top = invert_morozov(meas, builder, config.ladder, reg_kind)[0]
        elif method == "unconstrained":
            top = invert_unconstrained(
                meas, builder, config.ladder, config.tau_grid, reg_kind,
                config.max_disc,
            )[0]
        elif method == "bic":
            top, _ = bic_select(meas, builder, config.ladder, config.tau_grid)
        else:
            raise ValueError(f"unknown method {method!r}")
        weights, grid, dim = top.weights, top.kernel.collocation_grid, top.dim
    except NoModels:
        status = "no_model_failure"
        grid = builder(3).collocation_grid
        weights, dim = np.zeros(len(grid) - 2), 0
    runtime = time.perf_counter() - t0
    l2 = relative_l2_error(weights, grid, dist, fgrid)
    if status == "success" and l2 >= 100.0:
        status = "l2_failure"
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
    )


def run_study_two_component(config: TwoComponentStudyConfig) -> StudyReport:
    """Water/CsI mixture study retrieving distributions and volume fractions."""
    t_start = time.perf_counter()
    wavelengths = study_wavelengths()
    igrid = integration_grid()
    fgrid = fine_grid()
    comp_a = get_material(config.component_a)
    comp_b = get_material(config.component_b)
    med = get_material(config.medium)
    family_ops = build_kernel_family(
        comp_a, comp_b, med, wavelengths, igrid,
        anchor_count=config.anchor_count, n_frac=config.n_frac,
    )
    fine_rows_by_fraction = dict(
        zip(
            config.water_fractions,
            mixed_kernel_rows(
                comp_a, comp_b, med, config.water_fractions, wavelengths,
                fgrid.points,
            ),
        )
    )
    records = []
    for family in config.families:
        params = parameter_grid(family)
        indices = (
            config.parameter_indices
            if config.parameter_indices is not None
            else tuple(range(len(params)))
        )
        for pi in indices:
            dist = params[pi]
            for p_true in config.water_fractions:
                e_true = forward_extinctions(
                    dist,
                    None,
                    wavelengths,
                    grid=fgrid,
                    rows=fine_rows_by_fraction[p_true],
                )
                for rep in range(config.repeats_per_parameter):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(
                            entropy=config.seed,
                            spawn_key=(
                                FAMILIES.index(family),
                                pi,
                                rep,
                                int(round(1000 * p_true)),
                            ),
                        )
                    )
                    meas = simulate_measurement(
                        wavelengths,
                        e_true,
                        config.noise_fraction,
                        config.measurement_repeats,
                        rng,
                    )
                    mc_seed = int(rng.integers(2**31 - 1))
                    for reg_kind in config.reg_kinds:
                        records.append(
                            _invert_one_mixture(
                                meas, family_ops, reg_kind, config, mc_seed,
                                dist, family, pi, rep, p_true, fgrid,
                            )
                        )
    return StudyReport(
        records=tuple(records),
        method_stats=_aggregate_methods(records),
        fraction_stats=_aggregate_fractions(records),
        wall_time=time.perf_counter() - t_start,
    )


def _invert_one_mixture(
    meas, family_ops, reg_kind, config, mc_seed, dist, family, pi, rep, p_true, fgrid
):
    t0 = time.perf_counter()
    status = "success"
    try:
        candidates = generate_models_two_component(
            family_ops,
            meas,
            tau_grid=config.tau_grid,
            fallback_tau_grid=config.fallback_tau_grid,
            reg_kind=reg_kind,
            ladder=config.ladder,
        )
        ranked = select_models_two_component(
            candidates, meas, samples=config.mc_samples, seed=mc_seed
        )
        top = ranked[0]
        weights, grid, dim = top.weights, top.kernel.collocation_grid, top.dim
        p_recon = float(top.fraction)
    except NoModels:
        status = "no_model_failure"
        grid = build_collocation_grid(3, family_ops.integration_grid)
        weights, dim, p_recon = np.zeros(len(grid) - 2), 0, 0.5
    runtime = time.perf_counter() - t0
    l2 = relative_l2_error(weights, grid, dist, fgrid)
    dev = abs(100.0 * p_true - 100.0 * p_recon)
    if status == "success":
        if l2 >= 100.0:
            status = "l2_failure"
        elif dev >= 50.0:
            status = "fraction_failure"
    return RunRecord(
        family=family,
        method="constrained2",
        reg_kind=reg_kind,
        param_index=pi,
        repeat=rep,
        l2_error=l2,
        model_dim=dim,
        runtime=runtime,
        status=status,
        water_fraction=p_true,
        retrieved_fraction=p_recon,
        fraction_dev=dev,
    )
