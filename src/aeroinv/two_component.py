"""Volume-fraction retrieval for two-component aerosols.

A kernel family holds the discrete forward operators for a grid of mixing
fractions.  Mie kernels are assembled at a coarser set of anchor fractions
and interpolated entrywise by natural cubic splines onto the full fraction
grid.  Model generation scans the unregularized nonnegative residual across
all fractions, keeps a spread of fractions from the best sliding window, and
applies the discrepancy principle there; ranking reuses the marginal
likelihood machinery with a uniform prior over all stored triplets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .discretization import (
    KernelMatrix,
    RadiusGrid,
    assemble_kernel_matrix,
    build_collocation_grid,
)
from .errors import NoModels
from .model_selection import (
    DEFAULT_LADDER,
    Measurement,
    ModelCandidate,
    NoiseScaling,
    _level_candidates,
    build_regularizer,
    select_models,
)
from .optics import IndexTable, mixed_kernel_rows
from .orthant_mvn import DEFAULT_SAMPLES
from .tikhonov_qp import WeightedProblem, solve_constrained_tikhonov

__all__ = [
    "KernelFamily",
    "FractionScan",
    "TAU_GRID_TWO_COMPONENT",
    "FALLBACK_TAU_GRID",
    "build_kernel_family",
    "minimal_mean_window",
    "scan_fractions",
    "generate_models_two_component",
    "select_models_two_component",
]

TAU_GRID_TWO_COMPONENT = tuple(np.round(np.arange(0.5, 2.01, 0.1), 10))
FALLBACK_TAU_GRID = tuple(np.round(np.arange(2.5, 5.01, 0.5), 10))
DEFAULT_ANCHOR_COUNT = 101
DEFAULT_N_FRAC = 201
DEFAULT_N_MEAN = 5


@dataclass
class KernelFamily:
    """Forward operators on a fraction grid, one stack per ladder level."""

    component_a: IndexTable
    component_b: IndexTable
    medium: IndexTable
    wavelengths: np.ndarray
    integration_grid: RadiusGrid
    fractions: np.ndarray
    anchor_fractions: np.ndarray
    _anchor_rows: np.ndarray = field(repr=False)  # (anchors, N_l, n_nodes)
    _levels: dict = field(default_factory=dict, repr=False)

    @property
    def n_fractions(self) -> int:
        return self.fractions.size

    def level_matrices(self, n_col: int):
        """Collocation grid and stacked entries (n_frac, N_l, N) for a level."""
        if n_col not in self._levels:
            grid = build_collocation_grid(n_col, self.integration_grid)
            anchor_mats = np.stack(
                [
                    assemble_kernel_matrix(
                        None,
                        self.wavelengths,
                        self.integration_grid,
                        grid,
                        kernel_rows=rows,
                    ).entries
                    for rows in self._anchor_rows
                ]
            )
            spline = CubicSpline(
                self.anchor_fractions, anchor_mats, axis=0, bc_type="natural"
            )
            self._levels[n_col] = (grid, spline(self.fractions))
        return self._levels[n_col]

    def kernel_matrix(self, n_col: int, fraction_index: int) -> KernelMatrix:
        grid, stacked = self.level_matrices(n_col)
        return KernelMatrix(
            stacked[fraction_index],
            self.wavelengths,
            grid,
            fraction_label=float(self.fractions[fraction_index]),
        )


@dataclass(frozen=True)
class FractionScan:
    """Unregularized residuals over the fraction grid and the best window."""

    residuals: np.ndarray
    window_size: int
    best_window: np.ndarray
    selected: tuple[int, ...]


def build_kernel_family(
    component_a: IndexTable,
    component_b: IndexTable,
    medium: IndexTable,
    wavelengths,
    integration_grid: RadiusGrid,
    anchor_count: int = DEFAULT_ANCHOR_COUNT,
    n_frac: int = DEFAULT_N_FRAC,
) -> KernelFamily:
    """Assemble Mie kernels at anchor fractions for later interpolation.

    Only the kernel values on the integration grid are stored per anchor;
    level matrices are assembled and splined lazily.
    """
    if anchor_count > n_frac:
        raise ValueError("anchor_count must not exceed n_frac")
    wavelengths = np.asarray(wavelengths, dtype=float)
    anchors = np.linspace(0.0, 1.0, anchor_count)
    fractions = np.linspace(0.0, 1.0, n_frac)
    rows = mixed_kernel_rows(
        component_a, component_b, medium, anchors, wavelengths,
        integration_grid.points,
    )
    return KernelFamily(
        component_a,
        component_b,
        medium,
        wavelengths,
        integration_grid,
        fractions,
        anchors,
        rows,
    )


def minimal_mean_window(residuals, n_mean: int) -> int:
    """Start index of the length-n_mean window with minimal mean residual.

    Ties resolve to the lowest starting index.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size < n_mean:
        raise ValueError("residual vector shorter than the window")
    window_means = np.convolve(residuals, np.ones(n_mean), mode="valid") / n_mean
    return int(np.argmin(window_means))


def scan_fractions(
    family: KernelFamily,
    meas: Measurement,
    scaling: NoiseScaling | None = None,
    n_col: int = 3,
    n_mean: int = DEFAULT_N_MEAN,
) -> FractionScan:
    """Nonnegative-fit residual at every fraction plus the minimal-mean window.

    Ties between equal-mean windows resolve to the lowest starting index; the
    selected sub-indices are the first, third, and fifth window members.
    """
    if scaling is None:
        scaling = NoiseScaling.from_measurement(meas)
    _, stacked = family.level_matrices(n_col)
    w = scaling.normalized_weights
    r = meas.mean_extinction * w
    dim = stacked.shape[2]
    eye = np.eye(dim)
    residuals = np.empty(family.n_fractions)
    hint = None
    for i in range(family.n_fractions):
        K = stacked[i] * w[:, None]
        sol = solve_constrained_tikhonov(
            WeightedProblem(K, r, eye, 0.0), init_passive=hint
        )
        hint = sol.n > 0.0
        residuals[i] = sol.residual_sq
    i0 = minimal_mean_window(residuals, n_mean)
    best_window = np.arange(i0, i0 + n_mean)
    selected = tuple(i0 + k for k in (0, 2, 4) if k < n_mean)
    return FractionScan(residuals, n_mean, best_window, selected)


def generate_models_two_component(
    family: KernelFamily,
    meas: Measurement,
    scaling: NoiseScaling | None = None,
    tau_grid=TAU_GRID_TWO_COMPONENT,
    fallback_tau_grid=FALLBACK_TAU_GRID,
    reg_kind: str = "tikhonov",
    ladder=DEFAULT_LADDER,
    n_mean: int = DEFAULT_N_MEAN,
    gamma_max: float = 1e6,
) -> list[ModelCandidate]:
    """Candidates from the first ladder level admitting any scanned fraction.

    Each level is scanned afresh; the walk stops at the first level where any
    (selected fraction, tau) passes the discrepancy window.  If the primary
    safety-factor grid yields nothing on any level, one retry runs with the
    fallback grid before giving up.
    """
    if scaling is None:
        scaling = NoiseScaling.from_measurement(meas)
    w = scaling.normalized_weights
    data_norm_sq = float(np.sum((meas.mean_extinction * w) ** 2))
    n_l = meas.n_wavelengths
    for grid_attempt in (tuple(tau_grid), tuple(fallback_tau_grid)):
        for n_col in ladder:
            if n_col - 2 > n_l:
                break
            scan = scan_fractions(family, meas, scaling, n_col, n_mean)
            candidates = []
            for fi in scan.selected:
                admissible = any(
                    scan.residuals[fi] < tau * n_l * scaling.delta_sq < data_norm_sq
                    for tau in grid_attempt
                )
                if not admissible:
                    continue
                kernel = family.kernel_matrix(n_col, fi)
                reg = build_regularizer(reg_kind, kernel.interior_dim)
                candidates.extend(
                    _level_candidates(
                        kernel, meas, scaling, grid_attempt, reg,
                        data_norm_sq, gamma_max,
                    )
                )
            if candidates:
                return candidates
    raise NoModels("no fraction/level/tau combination fits the data")


def select_models_two_component(
    candidates,
    meas: Measurement,
    scaling: NoiseScaling | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[ModelCandidate]:
    """Rank (dimension, fraction, tau) triplets; the top fraction is the
    retrieved one."""
    return select_models(candidates, meas, scaling, samples, seed)
