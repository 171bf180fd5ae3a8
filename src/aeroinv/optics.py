"""Refractive indices, effective-medium mixing, and Mie extinction kernels.

The extinction kernel is k(r, l) = pi * r^2 * Q_ext with radii and
wavelengths in micrometers.  Q_ext comes from the classical Mie series for a
homogeneous sphere in a non-absorbing medium; the medium index enters through
its real part only, which is immaterial for air.

There is one Mie routine, ``_qext_series``, over (wavelength, radius)
columns that each carry A particle indices.  ``kernel_value`` calls it
for one index at one wavelength, and ``mixed_kernel_rows`` for every mixing
fraction at every wavelength; the package builds every forward operator
from those rows (a single material is fraction 1 of itself).  A
``MieKernel`` (from ``make_kernel``, or built with a fraction) binds the
materials whose rows ``MieKernel.rows`` builds.
It sorts the size parameters of all columns and runs the series over chunks
of neighbouring size parameters.  The Riccati-Bessel functions of the size
parameter are shared by the indices of a column.  Where every index and
column of a call lies in Wiscombe's (1980) regime, Re m >= 1 and small
enough Im(m) x, the logarithmic derivative D_n(mx) runs upward from cot(mx)
beside them and the series sum is added in the same pass, up to each
column's truncation order and no further.  Any other call runs D_n downward
from a start above both the truncation order and |mx| of its chunk.  A
pass with at least ``_WIDE_INDICES`` indices per column (a kernel family's
anchor fractions) runs its chunks on a thread pool of min(usable CPUs,
chunks) workers, created and joined inside the call, while the calling
thread waits.  The usable CPUs follow the process's CPU affinity, so a
caller that wants one core restricts its affinity.  Narrower passes run on
the calling thread alone.  The rows are the same either way.  Apart from
the output, memory is bounded by ``_MIE_BUDGET`` per worker.
"""

from __future__ import annotations

import csv
import os
from concurrent import futures
from dataclasses import dataclass
from importlib import resources
from pathlib import Path, PurePosixPath, PureWindowsPath

import numpy as np

from .errors import DegenerateMix, NonConvergent, OutOfBand, OutOfRange

__all__ = [
    "IndexTable",
    "load_index_table",
    "read_table",
    "get_material",
    "interpolate_index",
    "lorentz_lorenz_mix",
    "kernel_value",
    "MieKernel",
    "make_kernel",
    "mixed_kernel_rows",
]

# Extra orders above max(n_trunc, |m x|) at which the downward kernel, the
# one for calls outside Wiscombe's regime, starts D_n.  Against a start 300
# orders higher, 15 leaves pointwise Q_ext errors up to 4e-5 on the study's
# fine grid (water and CsI in air, run downward); 30 leaves at most 3e-13.
_LOGDERIV_MARGIN = 30
# Work budget of the Mie routine, in elements: a pass sorts the size
# parameters of at most this many (wavelength, radius) columns, and a chunk of
# them holds at most this many (index, column) elements; a downward chunk
# also at most an eighth as many columns, which bounds its table of orders.
_MIE_BUDGET = 16_384
# Indices per column from which a pass runs its chunks on a thread pool.  At
# 8 or more the chunk width is set by the index count and every ufunc call
# covers about ``_MIE_BUDGET`` elements; on a narrower pass (one index, as in
# single-material rows) the ufunc calls are bound by the GIL: 48 x 300 rows
# cut into two upward chunks took 25.2 ms on two threads against 24.1 ms as
# one chunk on the calling thread (median of 15, 2 cores).
_WIDE_INDICES = 8
# Largest size parameter the series runs (the study's largest is 73.3): time
# is linear in x, one Python step per order, 0.36 s at the bound (2 cores).
_X_MAX = 6_000.0


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
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m))):
            raise ValueError("wavelengths and indices must be finite")
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


def read_table(path, names) -> tuple[np.ndarray, list[list[str]]]:
    """Columns ``names`` of a comma-separated text table as numbers, shape
    (rows, len(names)), and the cells of each row after them.

    Fully blank rows are skipped.  A row before the first data row is a
    header if its first cell is non-blank text that is not a number.  Any
    other row with a blank, missing or non-numeric cell among the first
    len(names) is a ValueError naming the file, the row and the column.
    """
    data, rest = [], []
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except csv.Error as exc:  # an overlong field, say
            raise ValueError(f"{path} is not a readable table: {exc}") from None
    for row in rows:
        cells = [v.strip() for v in row] + [""] * (len(names) - len(row))
        if not any(cells):
            continue
        values = [_number(v) for v in cells[: len(names)]]
        if None not in values:
            data.append(values)
            rest.append(row[len(names) :])
        elif data or not cells[0] or values[0] is not None:
            name = names[values.index(None)]
            raise ValueError(f"row {row!r} of {path} has no number for {name}")
    return np.array(data, dtype=float).reshape(-1, len(names)), rest


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_index_table(path, material_name: str | None = None) -> IndexTable:
    """Read a ``wavelength_um,real,imag`` text table (see ``read_table``)."""
    data, _ = read_table(path, ("wavelength_um", "real", "imag"))
    return IndexTable(
        data[:, 0], data[:, 1] + 1j * data[:, 2], material_name or Path(path).stem
    )


_MATERIAL_ALIASES = {
    "h2o": "h2o",
    "water": "h2o",
    "csi": "csi",
    "air": "air",
}


def _is_bare_stem(key: str) -> bool:
    """Whether ``key`` names a file in its directory and nothing else: no
    path separator (POSIX or Windows), no drive, and not ``.`` or ``..``."""
    return key not in ("", ".", "..") and all(
        flavour(key).name == key for flavour in (PurePosixPath, PureWindowsPath)
    )


def get_material(name: str) -> IndexTable:
    """Resolve a material name to its index table.

    Files in ``$AEROSOL_DATA_DIR`` (named ``<name>.csv``, lowercase) take
    precedence over the tables shipped with the package.  A name must be a
    bare file stem; one that is a path (a separator, a drive, ``.`` or
    ``..``) resolves to nothing.
    """
    key = _MATERIAL_ALIASES.get(name.strip().lower(), name.strip().lower())
    if not _is_bare_stem(key):
        raise FileNotFoundError(f"no refractive-index table for material {name!r}")
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
    if not w[0] <= l <= w[-1]:  # NaN included
        raise OutOfBand(
            f"wavelength {l} um outside table range [{w[0]}, {w[-1]}] "
            f"for {table.material_name!r}"
        )
    re = np.interp(l, w, table.indices.real)
    im = np.interp(l, w, table.indices.imag)
    return complex(re, im)


def _interpolate_indices(tables, wavelengths: np.ndarray) -> list[np.ndarray]:
    """``interpolate_index`` of each table at every wavelength, one
    ``np.interp`` per part and table; the same bits as the scalar calls.

    Raises the scalar calls' OutOfBand for the first out-of-band wavelength,
    naming the first table (in order) that does not cover it.
    """
    outside = ~np.array(
        [(wavelengths >= t.wavelengths[0]) & (wavelengths <= t.wavelengths[-1])
         for t in tables]
    )
    if outside.any():
        wi = int(np.argmax(outside.any(axis=0)))
        interpolate_index(tables[int(np.argmax(outside[:, wi]))], wavelengths[wi])
    out = []
    for t in tables:
        m = np.empty(wavelengths.size, dtype=complex)
        m.real = np.interp(wavelengths, t.wavelengths, t.indices.real)
        m.imag = np.interp(wavelengths, t.wavelengths, t.indices.imag)
        out.append(m)
    return out


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


def _qext_series(m: np.ndarray, x: np.ndarray, weight=None) -> np.ndarray:
    """Mie extinction efficiencies, shape (A, W, R), for relative indices m of
    shape (A, W) at size parameters x of shape (W, R).

    Column (w, j) is one wavelength and radius: size parameter x[w, j] and
    the A indices m[:, w].  ``weight`` (length R), if given, multiplies each
    radius in place; pi r^2 turns Q_ext into kernel values.

    The columns go through in passes of whole wavelengths, at most
    ``_MIE_BUDGET`` columns a pass unless one wavelength alone is larger.  A
    pass sorts the size parameters of all its columns, across wavelengths,
    and cuts them into chunks of at most ``_MIE_BUDGET // A`` columns.  Each
    chunk gathers its indices from m, runs one kernel with its own
    truncation orders, and is written back through its (wavelength, radius)
    index arrays.  The work arrays thus stay cache-sized, and a column of
    small x never runs the orders of the largest x of its wavelength.

    The call checks once whether every (index, column) lies in Wiscombe's
    regime (``_upward_regime``).  If so, every chunk runs the upward pass of
    ``_chunk_qext``; the 48 x 300 rows of one material are a single chunk.
    If not, every chunk runs ``_chunk_qext_downward`` and holds at most
    ``_MIE_BUDGET // 8`` columns, which bounds its (orders, columns) table
    when A is small.

    A wide pass, at least ``_WIDE_INDICES`` indices per column, runs its
    chunks, longest series first, on a ``ThreadPoolExecutor`` of
    min(usable CPUs, chunks) workers that lives for this call only: there
    every ufunc call covers about ``_MIE_BUDGET`` elements and releases the
    GIL.  The first error, or an interrupt, cancels the chunks not yet
    started and is raised once the running ones have finished.  A narrower
    pass runs its chunks in order on the calling thread, where threads
    would only contend for the GIL.  Chunks share nothing but disjoint
    elements of the output, so the rows do not depend on the worker count.
    Apart from the output, memory is bounded by the budget per worker.
    """
    n_idx, n_wl = m.shape
    n_r = x.shape[1]
    m_by_wl = np.ascontiguousarray(m.T)
    out = np.empty((n_idx, n_wl, n_r))
    if not out.size:  # no index, wavelength or radius: nothing to sum
        return out
    wl_per_pass = max(_MIE_BUDGET // n_r, 1)
    if _upward_regime(m, x):
        kernel, chunk = _chunk_qext, max(_MIE_BUDGET // n_idx, 1)
    else:
        kernel = _chunk_qext_downward
        chunk = max(min(_MIE_BUDGET // n_idx, _MIE_BUDGET // 8), 1)

    def chunks():
        """(size parameters of the pass, w0, sorted columns of one chunk)."""
        for w0 in range(0, n_wl, wl_per_pass):
            xp = x[w0 : w0 + wl_per_pass].ravel()
            order = np.argsort(xp, kind="stable")
            for c0 in range(0, order.size, chunk):
                yield xp, w0, order[c0 : c0 + chunk]

    def run_chunk(xp, w0, cols):
        wi = w0 + cols // n_r
        ri = cols % n_r
        q = kernel(m_by_wl[wi], xp[cols])
        if not np.all(np.isfinite(q)):
            raise NonConvergent("Mie series recurrences produced non-finite values")
        np.maximum(q, 0.0, out=q)
        if weight is not None:
            q *= weight[ri, None]
        out[:, wi, ri] = q.T

    if n_idx < _WIDE_INDICES:
        for task in chunks():
            run_chunk(*task)
        return out
    # by largest size parameter, so the longest series start first
    tasks = sorted(chunks(), key=lambda task: task[0][task[2][-1]], reverse=True)
    with futures.ThreadPoolExecutor(min(_usable_cpus(), len(tasks))) as pool:
        try:
            running = [pool.submit(run_chunk, *task) for task in tasks]
            for done in futures.as_completed(running):
                done.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, otherwise every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _upward_regime(m: np.ndarray, x: np.ndarray) -> bool:
    """Whether D_n(m x) may run upward from cot(m x) at every index m[a, w]
    (shape (A, W)) and size parameter x[w, :] (shape (W, R)): Re m >= 1 and
    Im(m) x <= 13.78 Re(m)^2 - 10.8 Re(m) + 3.9 (Wiscombe 1980, the MIEV0
    rule).  Outside it the upward pass loses accuracy: 10% for 1.5+0.5j at
    x = 200, 4.5% for 0.75 at x = 150."""
    re = m.real
    bound = (13.78 * re - 10.8) * re + 3.9
    return bool(np.all(re >= 1.0) and np.all(m.imag * x.max(axis=1) <= bound))


class _SeriesSum:
    """The extinction sum of one chunk, C columns with ascending size
    parameters xs and relative indices m of shape (C, A), added order by
    order; both kernels drive it.

    The series for column x runs to n_trunc = ceil(x + 4 x^(1/3) + 2).  On
    ascending size parameters the columns still inside their series at order
    n are a suffix, ``first[n]:``, which in the column-major (C, A) layout is
    one contiguous block; every step touches only that block.

    With t = D_n/m + n/x, a_n = (t psi_n - psi_{n-1}) / (t xi_n - xi_{n-1}),
    xi_n(x) = psi_n(x) - i chi_n(x).  The Wronskian
    psi_n chi_{n-1} - psi_{n-1} chi_n = -1 turns this into
    Re a_n = psi_n^2/|xi_n|^2 + Im z/|z|^2, z = xi_n^2 t - xi_n xi_{n-1}, so
    the per-index work is one squared modulus and no complex division; b_n
    is the same with t = D_n m + n/x.  ``xi_step`` adds the psi part, which
    does not depend on m, once per column; ``add_order`` adds the rest.
    """

    def __init__(self, m: np.ndarray, xs: np.ndarray):
        n_trunc = np.ceil(xs + 4.0 * np.cbrt(xs) + 2.0).astype(int)
        self.n_max = int(n_trunc[-1])
        # first column whose series still runs at order n
        self.first = np.searchsorted(n_trunc, np.arange(self.n_max + 1), side="left")
        self.xs = xs
        self.x_col = xs[:, None]
        # the xi recurrence is real: it runs on interleaved (psi, -chi) pairs
        self.x_pairs = np.repeat(xs, 2)
        # sum of (2n + 1) 2 psi_n^2/|xi_n|^2, the psi parts of Re(a_n + b_n)
        self.base = np.zeros(xs.size)
        self.psi_sq = np.empty(xs.size)
        self.abs_sq = np.empty(xs.size)
        # t = D_n * factor + n / x, for a_n and b_n; the leading axis keeps
        # each factor's (C, A) block contiguous
        self.factors = np.stack((1.0 / m, m))
        self.u = np.empty(m.shape, dtype=complex)
        self.z = np.empty_like(self.factors)
        self.z_flat = self.z.view(float)  # (2, C, 2A): real, imaginary parts
        self.sq = np.empty(self.z_flat.shape)
        self.ratio = np.empty(self.factors.shape, dtype=float)
        self.acc = np.zeros(m.shape)  # sum of (2n + 1) Im z / |z|^2 over a_n, b_n

    def xi_start(self, xi_m1: np.ndarray, xi_0: np.ndarray) -> None:
        """Write xi_{-1}(x) and xi_0(x) into two complex rows."""
        xi_m1[:] = np.cos(self.xs) + 1j * np.sin(self.xs)
        xi_0[:] = np.sin(self.xs) - 1j * np.cos(self.xs)

    def xi_step(self, n: int, new: np.ndarray, cur: np.ndarray, prev: np.ndarray):
        """xi_n into ``new`` from xi_{n-1} (``cur``) and xi_{n-2} (``prev``),
        complex rows, for the columns still inside their series, and add the
        psi part of order n.  A column stops at its own n_trunc, so the
        fast-growing chi cannot overflow."""
        s = self.first[n]
        row = new[s:].view(float)
        np.divide(2.0 * n - 1.0, self.x_pairs[2 * s :], out=row)
        row *= cur[s:].view(float)
        row -= prev[s:].view(float)
        psi_sq, abs_sq = self.psi_sq[s:], self.abs_sq[s:]
        np.square(row[0::2], out=psi_sq)
        np.square(row[1::2], out=abs_sq)
        abs_sq += psi_sq
        psi_sq *= (2.0 * n + 1.0) * 2.0
        self.base[s:] += psi_sq / abs_sq

    def add_order(self, n: int, xi_n, xi_prev, dn: np.ndarray) -> None:
        """Add the D_n part of order n's term, from xi_n and xi_{n-1}
        (complex rows) and D_n(mx) (shape (C, A)), for the columns still
        inside their series."""
        s = self.first[n]
        # z / (2n + 1) = p t + c, so Im z / |z|^2 carries the series weight:
        # p = xi_n^2 / (2n + 1), c = p n / x - xi_n xi_{n-1} / (2n + 1).  A
        # complex divided by the real 2n + 1 is numpy's multiplication by its
        # reciprocal, so the real arithmetic on float views gives the same bits
        inv_w = 1.0 / (2.0 * n + 1.0)
        p = np.square(xi_n[s:])
        p.view(float)[:] *= inv_w
        c = p.view(float) * (n / self.x_pairs[2 * s :])
        cross = (xi_n[s:] * xi_prev[s:]).view(float)
        cross *= inv_w
        c -= cross
        c = c.view(complex)[:, None]
        u, z, z_flat = self.u[s:], self.z[:, s:], self.z_flat[:, s:]
        sq, ratio, acc = self.sq[:, s:], self.ratio[:, s:], self.acc[s:]
        np.multiply(dn[s:], p[:, None], out=u)
        np.multiply(u, self.factors[:, s:], out=z)
        z += c
        np.square(z_flat, out=sq)
        np.add(sq[..., 0::2], sq[..., 1::2], out=ratio)
        np.divide(z_flat[..., 1::2], ratio, out=ratio)
        acc += ratio[0]
        acc += ratio[1]

    def qext(self) -> np.ndarray:
        return (self.base[:, None] + self.acc) * (2.0 / self.x_col**2)


def _chunk_qext(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Q_ext, shape (C, A), of C columns with ascending size parameters xs
    and relative indices m of shape (C, A), in one upward pass.

    Valid only inside Wiscombe's regime (``_upward_regime``).  Each order n
    = 1 .. n_max builds xi_n(x) from three rolling rows, steps the
    logarithmic derivative upward from D_0 = cot(mx),
    D_n = 1/(n/mx - D_{n-1}) - n/mx, and adds the term of order n, each only
    for the columns still inside their series (see ``_SeriesSum``).  No
    order above a column's n_trunc is computed and no table of orders is
    kept: memory is a few (C, A) work arrays, updated in place.

    Above |mx| the upward step amplifies rounding, by about
    ((2n + 1)/|mx|)^2 an order.  That costs nothing where x is not small,
    but at the study's smallest size parameters (x = 0.02 to 0.03) Q_ext
    keeps only 7 to 10 significant digits (5e-8 relative at worst on the
    mixture family), on values below 1e-10 of their row's maximum.
    """
    series = _SeriesSum(m, xs)
    prev, cur, new = np.empty((3, xs.size), dtype=complex)  # rolling xi rows
    series.xi_start(prev, cur)
    mx = m * series.x_col
    inv_mx = 1.0 / mx
    dn = 1.0 / np.tan(mx)
    rn = np.empty_like(dn)
    for n in range(1, series.n_max + 1):
        series.xi_step(n, new, cur, prev)
        s = series.first[n]
        d, r = dn[s:], rn[s:]
        np.multiply(inv_mx[s:], n, out=r)
        np.subtract(r, d, out=d)
        np.reciprocal(d, out=d)
        d -= r
        series.add_order(n, new, cur, dn)
        prev, cur, new = cur, new, prev
    return series.qext()


def _chunk_qext_downward(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``_chunk_qext`` for any index: D_n(mx) runs downward.

    One upward pass builds xi_n(x) for every order into an (orders, C)
    table.  D_n(mx) then runs downward over all (C, A) at once from D = 0 at
    max(n_trunc, ceil(max |mx|)) + _LOGDERIV_MARGIN over the chunk (Wiscombe
    1980, Appl. Opt. 19:1505; the same rule as Bohren and Huffman's BHMIE),
    and the term of order n is added in the same step.  Starting below |mx|
    leaves D inaccurate at the low orders: for CsI in air a start at
    max(n_trunc) + 15 put Q_ext off by up to 12% on the study's fine grid.
    """
    series = _SeriesSum(m, xs)
    n_max, x_col = series.n_max, series.x_col
    # xi[n + 1] holds xi_n(x), n = -1 .. n_max
    xi = np.zeros((n_max + 2, xs.size), dtype=complex)
    series.xi_start(xi[0], xi[1])
    for n in range(1, n_max + 1):
        series.xi_step(n, xi[n + 1], xi[n], xi[n - 1])

    mx = m * x_col
    inv_mx = 1.0 / mx
    n_start = max(n_max, int(np.ceil(np.abs(mx).max()))) + _LOGDERIV_MARGIN
    dn = np.zeros(m.shape, dtype=complex)
    rn = np.empty_like(dn)
    for n in range(n_start, 1, -1):  # step computes D_{n-1}
        np.multiply(inv_mx, n, out=rn)
        dn += rn
        np.reciprocal(dn, out=dn)
        np.subtract(rn, dn, out=dn)
        if n - 1 <= n_max:
            series.add_order(n - 1, xi[n], xi[n - 1], dn)
    return series.qext()


def _extinction(m_med, m_parts, r, wavelengths, weight=None) -> np.ndarray:
    """Q_ext (times ``weight``), shape (A, W, R), of particle indices
    m_parts (A, W) in media m_med (W,) at radii r (R,) and wavelengths (W,)."""
    m_med = np.asarray(m_med, dtype=complex)
    m_parts = np.asarray(m_parts, dtype=complex)
    wavelengths = np.asarray(wavelengths, dtype=float)
    if not all(np.isfinite(v).all() for v in (m_med, m_parts, r, wavelengths)):
        raise ValueError("radii, wavelengths and refractive indices must be finite")
    for v in (m_med, m_parts):
        bad = (v.real <= 0.0) | (v.imag < 0.0)
        if bad.any():
            raise ValueError(
                f"refractive index {v[bad][0]} must have Re > 0 and Im >= 0"
            )
    if np.any(r <= 0.0) or np.any(wavelengths <= 0.0):
        raise ValueError("radius and wavelength must be positive")
    x = 2.0 * np.pi * m_med.real[:, None] * r / wavelengths[:, None]
    if x.max(initial=0.0) > _X_MAX:
        raise OutOfRange(f"size parameter x = {x.max():.4g} above _X_MAX = {_X_MAX:g}")
    return _qext_series(m_parts / m_med, x, weight)


def kernel_value(m_med: complex, m_part: complex, r, l: float):
    """Extinction kernel k(r, l) = pi * r^2 * Q_ext, in um^2, for spheres of
    radius r (um, a scalar or an array) at wavelength l, with size parameter
    x = 2*pi*Re(m_med)*r/l and relative index m = m_part/m_med."""
    r_arr = np.asarray(r, dtype=float)
    q = _extinction([m_med], [[m_part]], r_arr.ravel(), [l])[0, 0]
    return np.pi * r_arr**2 * q.reshape(r_arr.shape)


def mixed_kernel_rows(
    component_a: IndexTable,
    component_b: IndexTable,
    medium: IndexTable,
    fractions,
    wavelengths,
    r,
) -> np.ndarray:
    """Mixture kernel rows, shape (fractions, wavelengths, radii).

    ``fractions`` are volume fractions of component a.  One size-sorted Mie
    pass covers every (fraction, wavelength, radius); the values are those
    of ``kernel_value`` at the Lorentz-Lorenz mixed index.
    """
    fractions = np.atleast_1d(np.asarray(fractions, dtype=float))
    wavelengths = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    m_a, m_b, m_med = _interpolate_indices(
        (component_a, component_b, medium), wavelengths
    )
    m_parts = np.empty((fractions.size, wavelengths.size), dtype=complex)
    for wi, (a, b) in enumerate(zip(m_a, m_b)):
        m_parts[:, wi] = [lorentz_lorenz_mix(a, b, float(p)) for p in fractions]
    return _extinction(m_med, m_parts, r, wavelengths, weight=np.pi * r**2)


@dataclass(frozen=True)
class MieKernel:
    """Extinction kernel of spheres mixing volume fraction ``fraction_a`` of
    component a with component b (Lorentz-Lorenz) in ``medium``.

    ``rows(wavelengths, r)`` builds every row in one Mie pass.  A single
    material is fraction 1 of (material, material).
    """

    component_a: IndexTable
    component_b: IndexTable
    medium: IndexTable
    fraction_a: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.fraction_a <= 1.0:
            raise ValueError("fraction_a must lie in [0, 1]")

    def rows(self, wavelengths, r) -> np.ndarray:
        """Kernel values, shape (wavelengths, radii)."""
        return mixed_kernel_rows(
            self.component_a, self.component_b, self.medium, self.fraction_a,
            wavelengths, r,
        )[0]


def make_kernel(particle: IndexTable, medium: IndexTable) -> MieKernel:
    """Bind material tables into a single-material ``MieKernel``."""
    return MieKernel(particle, particle, medium)

