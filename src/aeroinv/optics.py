"""Refractive indices, effective-medium mixing, and Mie extinction kernels.

The extinction kernel is k(r, l) = pi * r^2 * Q_ext with radii and
wavelengths in micrometers.  Q_ext comes from the classical Mie series for a
homogeneous sphere in a non-absorbing medium; the medium index enters through
its real part only, which is immaterial for air.

There is one Mie routine, batched over particle indices: ``mie_qext`` and
``kernel_value`` call it with one index, ``mixed_kernel_rows`` with every
mixing fraction of a wavelength at once.  The Riccati-Bessel functions of
the size parameter are shared by all indices; the downward recurrence for
D_n(mx) starts above both the series truncation order and |mx| (Wiscombe
1980) and carries the series sum with it, so memory is one (orders, radii)
table plus a few (indices, radii) arrays.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DegenerateMix, NonConvergent, OutOfBand

__all__ = [
    "IndexTable",
    "MixedMaterial",
    "load_index_table",
    "get_material",
    "interpolate_index",
    "lorentz_lorenz_mix",
    "mie_qext",
    "kernel_value",
    "make_kernel",
    "make_mixed_kernel",
    "mixed_kernel_rows",
]

# Extra downward-recurrence orders above max(n_trunc, |m x|).  Against a
# start 300 orders higher, 15 leaves pointwise Q_ext errors up to 4e-5 on the
# study's fine grid (water and CsI in air); 30 leaves at most 3e-13.
_LOGDERIV_MARGIN = 30


def _validate_index(m: complex) -> complex:
    m = complex(m)
    if not (m.real > 0.0) or m.imag < 0.0:
        raise ValueError(f"refractive index {m} must have Re > 0 and Im >= 0")
    return m


@dataclass(frozen=True)
class IndexTable:
    """Complex refractive index sampled on an ascending wavelength grid (um)."""

    wavelengths: np.ndarray
    indices: np.ndarray
    material_name: str = ""

    def __post_init__(self):
        w = np.asarray(self.wavelengths, dtype=float)
        m = np.asarray(self.indices, dtype=complex)
        if w.ndim != 1 or w.size != m.size:
            raise ValueError("wavelengths and indices must be 1-D of equal length")
        if w.size < 2 or np.any(np.diff(w) <= 0.0):
            raise ValueError("wavelengths must be strictly increasing, length >= 2")
        if np.any(m.real <= 0.0) or np.any(m.imag < 0.0):
            raise ValueError("indices must have Re > 0 and Im >= 0")
        w.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "wavelengths", w)
        object.__setattr__(self, "indices", m)

    def __call__(self, l: float) -> complex:
        return interpolate_index(self, l)


@dataclass(frozen=True)
class MixedMaterial:
    """Two-component mixture with volume fraction ``fraction_a`` of component a."""

    component_a: IndexTable
    component_b: IndexTable
    fraction_a: float

    def __post_init__(self):
        if not 0.0 <= self.fraction_a <= 1.0:
            raise ValueError("fraction_a must lie in [0, 1]")

    def __call__(self, l: float) -> complex:
        return lorentz_lorenz_mix(
            interpolate_index(self.component_a, l),
            interpolate_index(self.component_b, l),
            self.fraction_a,
        )


def load_index_table(path, material_name: str | None = None) -> IndexTable:
    """Read a ``wavelength_um,real,imag`` text table (header line permitted)."""
    path = Path(path)
    wavelengths, values = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            try:
                l = float(row[0])
            except ValueError:
                continue  # header
            wavelengths.append(l)
            values.append(complex(float(row[1]), float(row[2])))
    return IndexTable(
        np.array(wavelengths), np.array(values), material_name or path.stem
    )


_MATERIAL_ALIASES = {
    "h2o": "h2o",
    "water": "h2o",
    "csi": "csi",
    "air": "air",
}


def get_material(name: str) -> IndexTable:
    """Resolve a material name to its index table.

    Files in ``$AEROSOL_DATA_DIR`` (named ``<name>.csv``, lowercase) take
    precedence over the tables shipped with the package.
    """
    key = _MATERIAL_ALIASES.get(name.strip().lower(), name.strip().lower())
    data_dir = os.environ.get("AEROSOL_DATA_DIR")
    if data_dir:
        candidate = Path(data_dir) / f"{key}.csv"
        if candidate.is_file():
            return load_index_table(candidate, material_name=name)
    ref = resources.files("aeroinv.data").joinpath(f"{key}.csv")
    if not ref.is_file():
        raise FileNotFoundError(f"no refractive-index table for material {name!r}")
    with resources.as_file(ref) as path:
        return load_index_table(path, material_name=name)


def interpolate_index(table: IndexTable, l: float) -> complex:
    """Piecewise-linear interpolation of real and imaginary parts at l (um)."""
    w = table.wavelengths
    if l < w[0] or l > w[-1]:
        raise OutOfBand(
            f"wavelength {l} um outside table range [{w[0]}, {w[-1]}] "
            f"for {table.material_name!r}"
        )
    re = np.interp(l, w, table.indices.real)
    im = np.interp(l, w, table.indices.imag)
    return complex(re, im)


def lorentz_lorenz_mix(m1: complex, m2: complex, f1: float) -> complex:
    """Effective refractive index of a two-component mixture.

    Solves (m^2 - 1)/(m^2 + 2) = f1*L(m1) + (1 - f1)*L(m2) for m, taking the
    root with positive real part and nonnegative imaginary part.
    """
    if not 0.0 <= f1 <= 1.0:
        raise ValueError("f1 must lie in [0, 1]")
    m1 = _validate_index(m1)
    m2 = _validate_index(m2)
    if f1 == 1.0:
        return m1
    if f1 == 0.0:
        return m2
    lhs = f1 * (m1**2 - 1.0) / (m1**2 + 2.0) + (1.0 - f1) * (m2**2 - 1.0) / (m2**2 + 2.0)
    denom = 1.0 - lhs
    if abs(denom) < 1e-14:
        raise DegenerateMix("mixing relation right-hand side equals 1")
    msq = (1.0 + 2.0 * lhs) / denom
    m = complex(np.sqrt(complex(msq)))
    if m.real < 0.0:
        m = -m
    if m.imag < 0.0:
        # physically passive components cannot produce gain; clip rounding noise
        m = complex(m.real, 0.0)
    return m


def _qext_series(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mie extinction efficiencies, shape (A, R), for A relative indices m
    at R size parameters x.

    The series for column x runs to n_trunc = ceil(x + 4 x^(1/3) + 2).
    xi_n(x) = psi_n(x) - i chi_n(x) does not depend on m, so one upward pass
    over the size parameters builds it for every order; a column stops at
    its own n_trunc, so the fast-growing chi cannot overflow.  The
    logarithmic derivative D_n(mx) then runs downward over all (A, R) at
    once, and the term of order n is added in the same step, only for the
    columns still inside their series.  On sorted size parameters those
    columns are a suffix, so x is sorted here and the result is put back in
    the caller's order.

    With t = D_n/m + n/x, a_n = (t psi_n - psi_{n-1}) / (t xi_n - xi_{n-1}).
    The Wronskian psi_n chi_{n-1} - psi_{n-1} chi_n = -1 turns this into
    Re a_n = psi_n^2/|xi_n|^2 - Im(1/z), z = xi_n^2 t - xi_n xi_{n-1}, so the
    per-index work is one reciprocal; b_n is the same with t = D_n m + n/x.

    The downward recurrence starts from D = 0 at
    max(n_trunc, ceil(max |mx|)) + _LOGDERIV_MARGIN (Wiscombe 1980, Appl.
    Opt. 19:1505; the same rule as Bohren and Huffman's BHMIE).  Starting
    below |mx| leaves D inaccurate at the low orders: for CsI in air a start
    at max(n_trunc) + 15 put Q_ext off by up to 12% on the study's fine grid.

    Memory is one (orders, R) complex table and a few (A, R) work arrays,
    updated in place; no (orders, A, R) array is formed.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n_trunc = np.ceil(xs + 4.0 * np.cbrt(xs) + 2.0).astype(int)
    n_max = int(n_trunc[-1])
    # first sorted column whose series still runs at order n
    first = np.searchsorted(n_trunc, np.arange(n_max + 1), side="left")

    # xi[n + 1] holds xi_n(x), n = -1 .. n_max; base sums the psi_n^2/|xi_n|^2
    # parts of Re(a_n + b_n), weighted by 2n + 1
    xi = np.zeros((n_max + 2, xs.size), dtype=complex)
    xi[0] = np.cos(xs) + 1j * np.sin(xs)
    xi[1] = np.sin(xs) - 1j * np.cos(xs)
    base = np.zeros(xs.size)
    for n in range(1, n_max + 1):
        s = first[n]
        xi[n + 1, s:] = (2.0 * n - 1.0) / xs[s:] * xi[n, s:] - xi[n - 1, s:]
        psi_sq = xi[n + 1, s:].real ** 2
        abs_sq = psi_sq + xi[n + 1, s:].imag ** 2
        base[s:] += (2.0 * n + 1.0) * 2.0 * psi_sq / abs_sq

    inv_mx = 1.0 / np.multiply.outer(m, xs)
    factors = (1.0 / m[:, None], m[:, None])  # t = D_n * factor + n / x
    max_mx = int(np.ceil(np.abs(m).max() * xs[-1]))
    n_start = max(n_max, max_mx) + _LOGDERIV_MARGIN
    dn = np.zeros(inv_mx.shape, dtype=complex)
    rn = np.empty_like(dn)
    z_buf = np.empty_like(dn)
    acc = np.zeros_like(dn)  # sum of (2n + 1) / z over a_n and b_n
    for n in range(n_start, 1, -1):  # step computes D_{n-1}
        np.multiply(inv_mx, n, out=rn)
        dn += rn
        np.reciprocal(dn, out=dn)
        np.subtract(rn, dn, out=dn)
        k = n - 1
        if k > n_max:
            continue
        s = first[k]
        # z / (2k + 1) = p t + c, so its reciprocal carries the series weight
        p = xi[k + 1, s:] ** 2 / (2.0 * k + 1.0)
        c = p * (k / xs[s:]) - xi[k + 1, s:] * xi[k, s:] / (2.0 * k + 1.0)
        z = z_buf[:, s:]
        for factor in factors:
            np.multiply(factor, p, out=z)
            z *= dn[:, s:]
            z += c
            np.reciprocal(z, out=z)
            acc[:, s:] += z

    qext = np.empty(acc.shape)
    qext[:, order] = (base - acc.imag) * (2.0 / xs**2)
    if not np.all(np.isfinite(qext)):
        raise NonConvergent("Mie series recurrences produced non-finite values")
    return np.maximum(qext, 0.0)


def _qext(m_med: complex, m_parts, r, l: float) -> np.ndarray:
    """Q_ext of shape (len(m_parts),) + shape(r), one Mie pass for all m_parts."""
    m_med = _validate_index(m_med)
    m = np.array([_validate_index(v) for v in m_parts]) / m_med
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0) or l <= 0.0:
        raise ValueError("radius and wavelength must be positive")
    x = 2.0 * np.pi * m_med.real * r_arr.ravel() / l
    return _qext_series(m, x).reshape((m.size,) + r_arr.shape)


def mie_qext(m_med: complex, m_part: complex, r, l: float):
    """Extinction efficiency Q_ext for spheres of radius r (um) at wavelength l.

    Uses size parameter x = 2*pi*Re(m_med)*r/l and relative index
    m = m_part/m_med.  Accepts a scalar or array of radii.
    """
    q = _qext(m_med, [m_part], r, l)[0]
    return q if np.ndim(r) else float(q[0])


def kernel_value(m_med: complex, m_part: complex, r, l: float):
    """Extinction kernel k(r, l) = pi * r^2 * Q_ext, in um^2."""
    r_arr = np.asarray(r, dtype=float)
    return np.pi * r_arr**2 * mie_qext(m_med, m_part, r, l)


def mixed_kernel_rows(
    component_a: IndexTable,
    component_b: IndexTable,
    medium: IndexTable,
    fractions,
    wavelengths,
    r,
) -> np.ndarray:
    """Mixture kernel rows, shape (fractions, wavelengths, radii).

    ``fractions`` are volume fractions of component a.  Each wavelength
    takes one Mie pass over every fraction; the values are those of
    ``make_mixed_kernel(..., fraction)(r, l)``.
    """
    fractions = np.atleast_1d(np.asarray(fractions, dtype=float))
    wavelengths = np.asarray(wavelengths, dtype=float)
    r = np.asarray(r, dtype=float)
    rows = np.empty((fractions.size, wavelengths.size, r.size))
    for wi, l in enumerate(wavelengths):
        m_a = interpolate_index(component_a, l)
        m_b = interpolate_index(component_b, l)
        m_parts = [lorentz_lorenz_mix(m_a, m_b, float(p)) for p in fractions]
        q = _qext(interpolate_index(medium, l), m_parts, r, l)
        rows[:, wi] = np.pi * r**2 * q
    return rows


def make_kernel(particle: IndexTable, medium: IndexTable):
    """Bind material tables into a kernel closure ``k(r, l)``."""

    def kernel(r, l: float):
        return kernel_value(
            interpolate_index(medium, l), interpolate_index(particle, l), r, l
        )

    return kernel


def make_mixed_kernel(
    component_a: IndexTable,
    component_b: IndexTable,
    medium: IndexTable,
    fraction_a: float,
):
    """Kernel closure for a two-component particle mixture."""
    mix = MixedMaterial(component_a, component_b, fraction_a)

    def kernel(r, l: float):
        return kernel_value(interpolate_index(medium, l), mix(l), r, l)

    return kernel
