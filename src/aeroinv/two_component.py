"""Kernel families, the package's forward operators, and volume-fraction
retrieval for two-component aerosols.

A kernel family holds the discrete forward operators for a grid of mixing
fractions.  Mie kernels are assembled at a coarser set of anchor fractions
and interpolated entrywise by natural cubic splines onto the full fraction
grid; a single material is a one-fraction family, without a spline.  Model
generation scans the unregularized nonnegative residual across all
fractions, keeps a spread of fractions from the best sliding window, and
applies the discrepancy principle there; ranking is ``select_models`` with a
uniform prior over all stored triplets.  Generation is the ladder walk of
``model_selection`` (``_walk_ladder``), stopped at the first level of
``DEFAULT_LADDER`` that yields candidates; its per-level fit takes the
collocation size and reads the level's stacked matrices from the family.

A level admits a fraction in a pass only if that fraction's nonnegative
residual lies below the pass's largest target.  The walk settles a level
whose every fraction's least-squares bound reaches its limit (the bounds
live on the family's level state, ``KernelFamily.level``).  On any other
level, the fractions whose bound lies below the limit get their admission
NNLS, the level's cold solve; if none lands below it either, the level is
skipped without a scan.  Any other level, including one whose pre-check
solve stops at its iteration cap or fails its passive least-squares step,
gets the same warm-started ``scan_fractions`` as before, kept on its state
for the fallback pass and ``invert2 --emit-plot-data``, so every candidate
comes from the same scan and the records cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretization import (
    KernelMatrix,
    RadiusGrid,
    build_collocation_grid,
    weighted_interior_basis,
)
from .errors import MaxIterations, NoModels
from .model_selection import (
    Measurement,
    ModelCandidate,
    _level_candidates,
    _LevelState,
    _walk_ladder,
    select_models,
)
from .optics import IndexTable, mixed_kernel_rows
from .tikhonov_qp import solve_constrained_tikhonov

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


@dataclass(eq=False)
class KernelFamily:
    """Forward operators on a fraction grid, one stack per ladder level.

    ``family(n_col)`` is the level's matrix at the first fraction: a
    one-fraction family, whose matrices carry no fraction label, is the
    ``kernel_builder`` of every method in ``model_selection``.  The family
    also keeps one state per ladder level for one measurement
    (``level(meas, n_col)``, a ``model_selection._LevelState``) in one slot:
    the latest ``Measurement`` object and a dict from collocation sizes to
    level states, shared by every method run on the family for that
    measurement.  Another measurement object, even with equal arrays,
    replaces the slot, and the states are freed with the family.  Families
    compare and hash by identity, as ``KernelMatrix`` does.
    """

    wavelengths: np.ndarray
    integration_grid: RadiusGrid
    fractions: np.ndarray
    anchor_fractions: np.ndarray
    _anchor_rows: np.ndarray = field(repr=False)  # (anchors, N_l, n_nodes)
    _levels: dict = field(default_factory=dict, repr=False)
    _matrices: dict = field(default_factory=dict, repr=False)
    _state: list = field(default_factory=list, repr=False)  # [meas, {n_col: state}]

    @property
    def n_fractions(self) -> int:
        return self.fractions.size

    def level_matrices(self, n_col: int):
        """Collocation grid and stacked entries (n_frac, N_l, N) for a level."""
        if n_col not in self._levels:
            grid = build_collocation_grid(n_col, self.integration_grid)
            stacked = self._anchor_rows @ weighted_interior_basis(
                self.integration_grid, grid
            )
            if self.n_fractions > 1:
                from scipy.interpolate import CubicSpline  # invert2 and study2

                spline = CubicSpline(
                    self.anchor_fractions, stacked, axis=0, bc_type="natural"
                )
                stacked = spline(self.fractions)
            self._levels[n_col] = (grid, stacked)
        return self._levels[n_col]

    def kernel_matrix(self, n_col: int, fraction_index: int) -> KernelMatrix:
        key = (n_col, fraction_index)
        if key not in self._matrices:
            grid, stacked = self.level_matrices(n_col)
            label = float(self.fractions[fraction_index])
            self._matrices[key] = KernelMatrix(
                stacked[fraction_index], self.wavelengths, grid,
                label if self.n_fractions > 1 else None,
            )
        return self._matrices[key]

    def __call__(self, n_col: int) -> KernelMatrix:
        return self.kernel_matrix(n_col, 0)

    def level(self, meas: Measurement, n_col: int) -> _LevelState:
        """The state of level ``n_col`` for ``meas``, made on first use and
        kept while ``meas`` (held itself, so its id is never reused) is the
        family's latest measurement."""
        slot = self._state
        if not slot or slot[0] is not meas:
            slot[:] = [meas, {}]
        if n_col not in slot[1]:
            stacked = self.level_matrices(n_col)[1]
            slot[1][n_col] = _LevelState(n_col, stacked, meas)
        return slot[1][n_col]


@dataclass(frozen=True)
class FractionScan:
    """Unregularized residuals over the fraction grid and the fractions
    selected from their best window."""

    residuals: np.ndarray
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
    level matrices are assembled and splined lazily.  A single material is
    ``build_kernel_family(p, p, medium, ..., anchor_count=1, n_frac=1)``.
    """
    if not 1 <= anchor_count <= n_frac:
        raise ValueError("anchor_count must lie in [1, n_frac]")
    if anchor_count == 1 and n_frac > 1:
        raise ValueError("a spline over several fractions needs two anchors")
    wavelengths = np.asarray(wavelengths, dtype=float)
    anchors = np.linspace(0.0, 1.0, anchor_count)
    fractions = np.linspace(0.0, 1.0, n_frac)
    rows = mixed_kernel_rows(
        component_a, component_b, medium, anchors, wavelengths,
        integration_grid.points,
    )
    return KernelFamily(wavelengths, integration_grid, fractions, anchors, rows)


def minimal_mean_window(residuals) -> int:
    """Start index of the length-``DEFAULT_N_MEAN`` window with minimal mean
    residual.

    Ties resolve to the lowest starting index.
    """
    residuals = np.asarray(residuals, dtype=float)
    n_mean = DEFAULT_N_MEAN
    if residuals.size < n_mean:
        raise ValueError("residual vector shorter than the window")
    window_means = np.convolve(residuals, np.ones(n_mean), mode="valid") / n_mean
    return int(np.argmin(window_means))


def scan_fractions(
    family: KernelFamily, meas: Measurement, n_col: int = 3
) -> FractionScan:
    """Nonnegative-fit residual at every fraction plus the minimal-mean window
    of ``DEFAULT_N_MEAN`` fractions.

    Ties between equal-mean windows resolve to the lowest starting index; the
    selected sub-indices are the first, third, and fifth window members.
    """
    level = family.level(meas, n_col)
    residuals = np.empty(family.n_fractions)
    hint = None
    for i, entries in enumerate(level.stacked):
        K = entries * level.w[:, None]
        sol = solve_constrained_tikhonov(K, level.r, None, 0.0, hint)
        hint = sol.n > 0.0
        residuals[i] = sol.residual_sq
    i0 = minimal_mean_window(residuals)
    return FractionScan(residuals, (i0, i0 + 2, i0 + 4))


def _may_admit(level, limit: float) -> bool:
    """Whether any fraction's system of ``level`` may have a nonnegative
    residual below ``limit``.

    Only fractions whose least-squares bound lies below ``limit``, or is not
    a number, get their admission NNLS (``_LevelFit.nnls_residual``), and
    the first of those below ``limit`` settles the answer.  A solve that
    stops at its iteration cap, or whose passive least-squares step fails
    (``LinAlgError``), leaves the decision to the scan.  On finite systems a
    cold NNLS raises nothing else, so any other error propagates.
    """
    try:
        for i in np.flatnonzero(~(level.bounds >= limit)):
            if not level.fit(i).nnls_residual >= limit:
                return True
    except (MaxIterations, np.linalg.LinAlgError):
        return True
    return False


def generate_models_two_component(
    family: KernelFamily,
    meas: Measurement,
    tau_grid=TAU_GRID_TWO_COMPONENT,
    reg_kind: str = "tikhonov",
) -> list[ModelCandidate]:
    """Candidates from the first ladder level admitting any scanned fraction.

    The walk stops at the first level where any (selected fraction, tau)
    passes the discrepancy window, with the scanned nonnegative residual as
    each fraction's unregularized residual.  If the primary safety-factor
    grid yields nothing on any level, one retry runs with
    ``FALLBACK_TAU_GRID`` before giving up; it reuses each level's scan,
    bounds and admission solves, kept on the level's state.  A level is
    scanned only if ``_may_admit`` finds that some fraction may lie below
    the pass's largest target (see the module docstring); a level it
    settles has no fraction below that target, so its scan would have
    admitted nothing.
    """
    for taus in (tuple(tau_grid), FALLBACK_TAU_GRID):

        def fit_level(level, kernel, limit):
            if not _may_admit(level, limit):
                return []
            if level.scan is None:
                level.scan = scan_fractions(family, meas, level.n_col)
            out = []
            for fi in level.scan.selected:
                out += _level_candidates(
                    level, fi, family.kernel_matrix(level.n_col, fi), taus,
                    reg_kind, level.scan.residuals[fi],
                )
            return out

        try:
            return _walk_ladder(meas, family, taus, fit_level, max_levels=1)
        except NoModels:
            continue
    raise NoModels("no fraction/level/tau combination fits the data")


select_models_two_component = select_models
