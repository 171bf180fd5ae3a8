"""Radius grids, kernel-matrix assembly, and reconstruction evaluation.

The forward operator is discretized by collocation with triangular (hat)
basis functions on a subgrid of a fixed integration grid.  Reconstructions
are forced to vanish at both domain endpoints, so the two boundary basis
functions are eliminated and the model dimension is the number of interior
collocation nodes.  A ``KernelMatrix`` keeps no wavelengths: its forward
model, a ``two_component.KernelFamily``, keeps them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GridTooCoarse, OutOfRange

__all__ = [
    "RadiusGrid",
    "KernelMatrix",
    "uniform_grid",
    "build_collocation_grid",
    "hat_basis_values",
    "kernel_rows",
    "assemble_kernel_matrix",
    "weighted_interior_basis",
    "evaluate_distribution",
]


@dataclass(frozen=True)
class RadiusGrid:
    """Finite, strictly increasing radius nodes (um) spanning [r_min, r_max]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        ok = pts.ndim == 1 and pts.size >= 2 and np.all(np.isfinite(pts))
        if not (ok and np.all(np.diff(pts) > 0.0)):
            raise ValueError("grid points must be finite, strictly increasing, >= 2")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def r_min(self) -> float:
        return float(self.points[0])

    @property
    def r_max(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return self.points.size


def uniform_grid(r_min: float, r_max: float, n: int) -> RadiusGrid:
    return RadiusGrid(np.linspace(r_min, r_max, n))


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Discrete forward operator mapping interior basis weights to extinctions.

    Compared and hashed by identity: field equality on its arrays would be
    ambiguous.  No cache is keyed by it."""

    entries: np.ndarray  # (N_l, interior_dim)
    collocation_grid: RadiusGrid
    fraction_label: float | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[1] != len(self.collocation_grid) - 2:
            raise ValueError("entries shape must be (N_l, n_col - 2)")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def interior_dim(self) -> int:
        return self.entries.shape[1]


def build_collocation_grid(n_col: int, integration_grid: RadiusGrid) -> RadiusGrid:
    """Snap a linearly spaced pre-grid of n_col points to integration nodes.

    Endpoints are preserved; ties snap to the lower-index node; duplicate
    snaps collapse.
    """
    nodes = integration_grid.points
    if not 3 <= n_col <= nodes.size:
        raise ValueError(f"n_col must lie in [3, {nodes.size}]")
    pre = np.linspace(nodes[0], nodes[-1], n_col)
    # nearest node, lower index on ties: right bisection then compare distances
    right = np.searchsorted(nodes, pre)
    right = np.clip(right, 1, nodes.size - 1)
    left = right - 1
    choose_left = (pre - nodes[left]) <= (nodes[right] - pre)
    idx = np.where(choose_left, left, right)
    idx[0] = 0
    idx[-1] = nodes.size - 1
    idx = np.unique(idx)
    if idx.size < 3:
        raise GridTooCoarse(
            f"collocation grid collapsed to {idx.size} points after snapping"
        )
    return RadiusGrid(nodes[idx])


def hat_basis_values(collocation_grid: RadiusGrid, r: np.ndarray) -> np.ndarray:
    """Evaluate all hat basis functions at radii r; shape (n_col, len(r)).

    A radius in the interval (c[j-1], c[j]] lies on the rising side of hat
    j and the falling side of hat j - 1; r = c[0] is the peak of hat 0, and
    a radius outside [c[0], c[-1]] lies on no hat."""
    c = collocation_grid.points
    r = np.asarray(r, dtype=float).ravel()
    vals = np.zeros((c.size, r.size))
    j = np.searchsorted(c, r)  # c[j-1] < r <= c[j]
    i = np.flatnonzero((j > 0) & (j < c.size))
    j = j[i]
    lo, hi, x = c[j - 1], c[j], r[i]
    vals[j, i] = (x - lo) / (hi - lo)
    vals[j - 1, i] = (hi - x) / (hi - lo)
    vals[0, r == c[0]] = 1.0
    return vals


def kernel_rows(kernel, wavelengths, grid: RadiusGrid) -> np.ndarray:
    """Kernel values on a radius grid, one row per wavelength.

    A kernel with a ``rows`` method (``optics.MieKernel``) builds them in one
    Mie pass; any other callable ``k(r, l)`` is called once per wavelength.
    """
    if hasattr(kernel, "rows"):
        return kernel.rows(wavelengths, grid.points)
    return np.vstack([np.asarray(kernel(grid.points, l)) for l in wavelengths])


def assemble_kernel_matrix(
    kernel,
    wavelengths,
    integration_grid: RadiusGrid,
    collocation_grid: RadiusGrid,
    fraction_label: float | None = None,
) -> KernelMatrix:
    """Assemble the collocation matrix by the composite trapezoidal rule.

    Entry (i, k) approximates the integral of kernel(r, l_i) * b_k(r) over the
    integration grid, for the interior basis functions only.
    """
    wavelengths = np.asarray(wavelengths, dtype=float)
    if len(collocation_grid) - 2 > wavelengths.size:
        raise DimensionError(
            f"model dimension {len(collocation_grid) - 2} exceeds "
            f"{wavelengths.size} measurements"
        )
    rows = kernel_rows(kernel, wavelengths, integration_grid)
    entries = rows @ weighted_interior_basis(integration_grid, collocation_grid)
    return KernelMatrix(entries, collocation_grid, fraction_label)


def weighted_interior_basis(
    integration_grid: RadiusGrid, collocation_grid: RadiusGrid
) -> np.ndarray:
    """Interior hat functions times trapezoid weights, shape (n_nodes, N):
    kernel rows on the integration grid times it give collocation entries."""
    nodes = integration_grid.points
    if not np.all(np.isin(collocation_grid.points, nodes)):
        raise ValueError("collocation grid must be a subgrid of the integration grid")
    basis = hat_basis_values(collocation_grid, nodes)[1:-1]  # interior only
    return (basis * trapezoid_weights(nodes)).T


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoidal quadrature weights for the given nodes."""
    h = np.diff(nodes)
    w = np.zeros(nodes.size)
    w[:-1] += h / 2.0
    w[1:] += h / 2.0
    return w


def evaluate_distribution(weights, grid: RadiusGrid, r):
    """Evaluate the reconstruction at radii r (piecewise linear, zero ends)."""
    weights = np.asarray(weights, dtype=float)
    if weights.size != len(grid) - 2:
        raise ValueError("weights length must equal interior dimension")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((r_arr >= grid.r_min) & (r_arr <= grid.r_max)):
        raise OutOfRange("radius outside reconstruction domain or not a number")
    padded = np.concatenate(([0.0], weights, [0.0]))
    out = np.interp(r_arr, grid.points, padded)
    return out if np.ndim(r) else float(out[0])
