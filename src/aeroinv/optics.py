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
from a start above both the truncation order and |mx| of its chunk.  The
per-column terms of the series are built once per group of consecutive
chunks, as a table bounded by ``_GROUP_ORDERS`` orders, and each chunk of
the group adds its indices' part from slices of it; a group of one chunk
builds them order by order, with no table.  A pass with at least
``_WIDE_INDICES`` indices per column (a kernel family's anchor fractions)
runs its groups on a thread pool of min(usable CPUs, groups) workers,
created and joined inside the call, while the calling thread waits.  The
usable CPUs follow the process's CPU affinity, so a caller that wants one
core restricts its affinity.  Narrower passes run on the calling thread
alone.  The rows are the same either way.  Apart from the output, memory is
bounded per worker by ``_MIE_BUDGET`` elements and a group's table.
"""

from __future__ import annotations

import csv
import os
import threading
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
# Indices per column from which a pass runs its groups on a thread pool.  At
# 8 or more the chunk width is set by the index count and a chunk's (index,
# column) calls cover about ``_MIE_BUDGET`` elements; on a narrower pass (one
# index, as in single-material rows) the ufunc calls are bound by the GIL:
# 48 x 300 rows cut into two upward chunks took 25.2 ms on two threads
# against 24.1 ms as one chunk on the calling thread (median of 15, 2 cores).
_WIDE_INDICES = 8
# Series orders, summed over its columns, that a group of chunks may run
# together (see ``_qext_series``).  Its table of per-column terms takes 32
# bytes per order and column, so at most 2 MiB; one table for the whole
# 101-anchor pass would raise its tracemalloc peak by 12 MB.
_GROUP_ORDERS = 4 * _MIE_BUDGET
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
    root with positive real part and nonnegative imaginary part.  An index
    whose square overflows (|m| above about 1.3e154) raises DegenerateMix,
    as does a right-hand side within 1e-14 of 1.
    """
    if not 0.0 <= f1 <= 1.0:
        raise ValueError("f1 must lie in [0, 1]")
    m1 = _validate_index(m1)
    m2 = _validate_index(m2)
    if f1 == 1.0:
        return m1
    if f1 == 0.0:
        return m2
    try:
        lhs = (
            f1 * (m1**2 - 1.0) / (m1**2 + 2.0)
            + (1.0 - f1) * (m2**2 - 1.0) / (m2**2 + 2.0)
        )
    except OverflowError as exc:
        raise DegenerateMix(f"mixing {m1} with {m2} overflows: {exc}") from exc
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

    Consecutive chunks of a pass form groups whose columns run at most
    ``_GROUP_ORDERS`` series orders together; a chunk that runs more is a
    group alone.  A group of several chunks builds the per-column terms of
    every order (``_Terms``) for all its columns first, as one table, and
    then runs each chunk's kernel on its slices of that table, so a
    chunk-order makes only its (index, column) calls.  A group of one chunk
    lets its kernel build them order by order, with no table.

    The call checks once whether every (index, column) lies in Wiscombe's
    regime (``_upward_regime``).  If so, every chunk runs the upward pass of
    ``_chunk_qext``; the 48 x 300 rows of one material are a single chunk.
    If not, every chunk runs ``_chunk_qext_downward`` and holds at most
    ``_MIE_BUDGET // 8`` columns, which bounds its table of orders when A is
    small.

    A wide pass, at least ``_WIDE_INDICES`` indices per column, runs its
    groups, longest series first, on a ``ThreadPoolExecutor`` of
    min(usable CPUs, groups) workers that lives for this call only.  There
    a chunk's (index, column) calls cover about ``_MIE_BUDGET`` elements and
    a group's per-column calls up to its column count, so most calls
    release the GIL.  The first error, or an interrupt, stops every chunk
    not yet started: the groups not yet started are cancelled, the running
    ones stop before their next chunk, and the error is raised once they
    have returned.  A narrower pass runs its groups in order on the calling
    thread, where threads would only contend for the GIL.  Chunks share
    nothing but disjoint elements of the output, so the rows depend neither
    on the worker count nor on the grouping.  Apart from the output, memory
    is bounded per worker by the budget and a group's table.
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
    stop = threading.Event()  # set by the first error: no chunk starts after it

    def groups():
        """(size parameters of the pass, w0, sorted columns of one group, the
        bounds of its chunks within them)."""
        for w0 in range(0, n_wl, wl_per_pass):
            xp = x[w0 : w0 + wl_per_pass].ravel()
            order = np.argsort(xp, kind="stable")
            bounds = np.append(np.arange(0, order.size, chunk), order.size)
            cuts, total = [0], 0
            for i, k in enumerate(np.add.reduceat(_n_trunc(xp[order]), bounds[:-1])):
                if total + k > _GROUP_ORDERS and i > cuts[-1]:
                    cuts.append(i)
                    total = 0
                total += k
            cuts.append(bounds.size - 1)
            for a, b in zip(cuts, cuts[1:]):
                lo = bounds[a]
                yield xp, w0, order[lo : bounds[b]], bounds[a : b + 1] - lo

    def run_chunk(xp, w0, cols, terms=None):
        wi = w0 + cols // n_r
        ri = cols % n_r
        if terms is None:
            q = kernel(m_by_wl[wi], xp[cols])
        else:
            q = kernel(m_by_wl[wi], xp[cols], terms)
        if not np.all(np.isfinite(q)):
            raise NonConvergent("Mie series recurrences produced non-finite values")
        np.maximum(q, 0.0, out=q)
        if weight is not None:
            q *= weight[ri, None]
        out[:, wi, ri] = q.T

    def run_group(xp, w0, cols, bounds):
        try:
            table = _term_table(xp[cols]) if bounds.size > 2 else None
            for c0, c1 in zip(bounds[:-1], bounds[1:]):
                if stop.is_set():
                    return
                terms = None if table is None else _chunk_terms(table, c0, c1)
                run_chunk(xp, w0, cols[c0:c1], terms)
        except BaseException:
            stop.set()
            raise

    if n_idx < _WIDE_INDICES:
        for task in groups():
            run_group(*task)
        return out
    # by largest size parameter, so the longest series start first
    tasks = sorted(groups(), key=lambda task: task[0][task[2][-1]], reverse=True)
    with futures.ThreadPoolExecutor(min(_usable_cpus(), len(tasks))) as pool:
        try:
            running = [pool.submit(run_group, *task) for task in tasks]
            for done in futures.as_completed(running):
                done.result()
        except BaseException:
            stop.set()
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


def _n_trunc(xs: np.ndarray) -> np.ndarray:
    """Series length of each size parameter: n_trunc = ceil(x + 4 x^(1/3) + 2)."""
    return np.ceil(xs + 4.0 * np.cbrt(xs) + 2.0).astype(int)


@dataclass
class _Terms:
    """The per-column terms of the extinction sum of C columns with ascending
    size parameters xs, which do not depend on the index.

    The series for column x runs to its n_trunc (``_n_trunc``).  On
    ascending size parameters the columns still inside their series at
    order n are a suffix, ``first[n]:``, and every term covers only that
    suffix.

    With t = D_n/m + n/x, a_n = (t psi_n - psi_{n-1}) / (t xi_n - xi_{n-1}),
    xi_n(x) = psi_n(x) - i chi_n(x).  The Wronskian
    psi_n chi_{n-1} - psi_{n-1} chi_n = -1 turns this into
    Re a_n = psi_n^2/|xi_n|^2 + Im z/|z|^2, z = xi_n^2 t - xi_n xi_{n-1}, so
    the per-index work is one squared modulus and no complex division; b_n
    is the same with t = D_n m + n/x.  ``base`` sums the psi parts,
    (2n + 1) 2 psi_n^2/|xi_n|^2, and z / (2n + 1) = p_n t + c_n with
    p_n = xi_n^2 / (2n + 1) and c_n = p_n n / x - xi_n xi_{n-1} / (2n + 1).
    ``orders`` holds (p_n, c_n) for n = 1 .. n_max: an iterator that adds
    each order's psi part to ``base`` as it goes (``_column_terms``), or a
    table, whose ``base`` is complete (``_term_table``).
    """

    xs: np.ndarray
    first: np.ndarray
    base: np.ndarray
    orders: object


def _column_terms(xs: np.ndarray) -> _Terms:
    """The ``_Terms`` of columns with ascending size parameters xs, built
    order by order as they are consumed; no order is kept."""
    n_trunc = _n_trunc(xs)
    # first column whose series still runs at order n
    first = np.searchsorted(n_trunc, np.arange(n_trunc[-1] + 1), side="left")
    base = np.zeros(xs.size)
    return _Terms(xs, first, base, _term_orders(xs, first, base))


def _term_orders(xs, first, base):
    """Yield (p_n, c_n) for n = 1 .. n_max over the columns ``first[n]:``,
    adding the psi part of order n to ``base`` (see ``_Terms``).

    xi_n(x) steps up from xi_{-1} and xi_0 on three rolling rows, only for
    the columns still inside their series: a column stops at its own
    n_trunc, so the fast-growing chi cannot overflow.  The xi recurrence is
    real, so it runs on interleaved (psi, -chi) pairs.
    """
    x_pairs = np.repeat(xs, 2)
    psi_sq, abs_sq = np.empty((2, xs.size))
    prev, cur, new = np.empty((3, xs.size), dtype=complex)
    prev[:] = np.cos(xs) + 1j * np.sin(xs)
    cur[:] = np.sin(xs) - 1j * np.cos(xs)
    for n in range(1, first.size):
        s = first[n]
        row = new[s:].view(float)
        np.divide(2.0 * n - 1.0, x_pairs[2 * s :], out=row)
        row *= cur[s:].view(float)
        row -= prev[s:].view(float)
        ps, ab = psi_sq[s:], abs_sq[s:]
        np.square(row[0::2], out=ps)
        np.square(row[1::2], out=ab)
        ab += ps
        ps *= (2.0 * n + 1.0) * 2.0
        base[s:] += ps / ab
        # a complex divided by the real 2n + 1 is numpy's multiplication by
        # its reciprocal, so the real arithmetic on float views gives the
        # same bits
        inv_w = 1.0 / (2.0 * n + 1.0)
        p = np.square(new[s:])
        p.view(float)[:] *= inv_w
        c = p.view(float) * (n / x_pairs[2 * s :])
        cross = (new[s:] * cur[s:]).view(float)
        cross *= inv_w
        c -= cross
        yield p, c.view(complex)
        prev, cur, new = cur, new, prev


def _term_table(xs: np.ndarray) -> _Terms:
    """The ``_Terms`` of columns with ascending size parameters xs, every
    order kept: 32 bytes per order and column, sum(n_trunc) in all."""
    terms = _column_terms(xs)
    terms.orders = list(terms.orders)
    return terms


def _chunk_terms(table: _Terms, c0: int, c1: int) -> _Terms:
    """The ``_Terms`` of columns c0:c1 of a table, as slices of it."""
    f = table.first
    n_max = int(np.searchsorted(f, c1, side="left")) - 1  # n_trunc of column c1 - 1
    orders = []
    for n, (p, c) in enumerate(table.orders[:n_max], 1):
        live = slice(max(c0, f[n]) - f[n], c1 - f[n])  # p_n starts at column f[n]
        orders.append((p[live], c[live]))
    first = np.maximum(f[: n_max + 1] - c0, 0)
    return _Terms(table.xs[c0:c1], first, table.base[c0:c1], orders)


class _SeriesSum:
    """The D_n part of the extinction sum of one chunk, C columns with
    relative indices m of shape (C, A) and ``_Terms`` terms, added order by
    order; both kernels drive it.

    In the column-major (C, A) layout the columns still inside their series
    at order n, ``terms.first[n]:``, are one contiguous block, and every
    step touches only that block.
    """

    def __init__(self, m: np.ndarray, terms: _Terms):
        self.terms = terms
        # t = D_n * factor + n / x, for a_n and b_n; the leading axis keeps
        # each factor's (C, A) block contiguous
        self.factors = np.stack((1.0 / m, m))
        self.u = np.empty(m.shape, dtype=complex)
        self.z = np.empty_like(self.factors)
        self.z_flat = self.z.view(float)  # (2, C, 2A): real, imaginary parts
        self.sq = np.empty(self.z_flat.shape)
        self.ratio = np.empty(self.factors.shape, dtype=float)
        self.acc = np.zeros(m.shape)  # sum of (2n + 1) Im z / |z|^2 over a_n, b_n

    def add_order(self, n: int, p, c, dn: np.ndarray) -> None:
        """Add the D_n part of order n's term, from its p_n and c_n and D_n(mx)
        (shape (C, A)), for the columns still inside their series."""
        s = self.terms.first[n]
        u, z, z_flat = self.u[s:], self.z[:, s:], self.z_flat[:, s:]
        sq, ratio, acc = self.sq[:, s:], self.ratio[:, s:], self.acc[s:]
        np.multiply(dn[s:], p[:, None], out=u)
        np.multiply(u, self.factors[:, s:], out=z)
        z += c[:, None]
        np.square(z_flat, out=sq)
        np.add(sq[..., 0::2], sq[..., 1::2], out=ratio)
        np.divide(z_flat[..., 1::2], ratio, out=ratio)
        acc += ratio[0]
        acc += ratio[1]

    def qext(self) -> np.ndarray:
        """Q_ext, shape (C, A), once every order of the terms is added."""
        xs, base = self.terms.xs, self.terms.base
        return (base[:, None] + self.acc) * (2.0 / xs[:, None] ** 2)


def _chunk_qext(
    m: np.ndarray, xs: np.ndarray, terms: _Terms | None = None
) -> np.ndarray:
    """Q_ext, shape (C, A), of C columns with ascending size parameters xs
    and relative indices m of shape (C, A), in one upward pass.

    Valid only inside Wiscombe's regime (``_upward_regime``).  Each order n
    = 1 .. n_max steps the logarithmic derivative upward from
    D_0 = cot(mx), D_n = 1/(n/mx - D_{n-1}) - n/mx, and adds the term of
    order n, each only for the columns still inside their series (see
    ``_SeriesSum``).  ``terms`` are the chunk's slices of its group's table
    (``_qext_series``); without them the chunk builds its own order by order
    (``_column_terms``), so no order above a column's n_trunc is computed,
    no table of orders is kept and memory is a few (C, A) work arrays,
    updated in place.

    Above |mx| the upward step amplifies rounding, by about
    ((2n + 1)/|mx|)^2 an order.  That costs nothing where x is not small,
    but at the study's smallest size parameters (x = 0.02 to 0.03) Q_ext
    keeps only 7 to 10 significant digits (5e-8 relative at worst on the
    mixture family), on values below 1e-10 of their row's maximum.
    """
    terms = _column_terms(xs) if terms is None else terms
    series = _SeriesSum(m, terms)
    mx = m * xs[:, None]
    inv_mx = 1.0 / mx
    dn = 1.0 / np.tan(mx)
    rn = np.empty_like(dn)
    for n, (p, c) in enumerate(terms.orders, 1):
        s = terms.first[n]
        d, r = dn[s:], rn[s:]
        np.multiply(inv_mx[s:], n, out=r)
        np.subtract(r, d, out=d)
        np.reciprocal(d, out=d)
        d -= r
        series.add_order(n, p, c, dn)
    return series.qext()


def _chunk_qext_downward(
    m: np.ndarray, xs: np.ndarray, terms: _Terms | None = None
) -> np.ndarray:
    """``_chunk_qext`` for any index: D_n(mx) runs downward.

    It needs the terms of every order at once: the chunk's slices of its
    group's table, or else its own table (``_term_table``).  D_n(mx) then
    runs downward over all (C, A) at once from D = 0 at
    max(n_trunc, ceil(max |mx|)) + _LOGDERIV_MARGIN over the chunk
    (Wiscombe 1980, Appl. Opt. 19:1505; the same rule as Bohren and
    Huffman's BHMIE), and the term of order n is added in the same step.
    Starting below |mx| leaves D inaccurate at the low orders: for CsI in
    air a start at max(n_trunc) + 15 put Q_ext off by up to 12% on the
    study's fine grid.
    """
    terms = _term_table(xs) if terms is None else terms
    series = _SeriesSum(m, terms)
    n_max = len(terms.orders)
    mx = m * xs[:, None]
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
            series.add_order(n - 1, *terms.orders[n - 2], dn)
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
    of ``kernel_value`` at the Lorentz-Lorenz mixed index.  The indices are
    mixed by ``lorentz_lorenz_mix``, wavelength by wavelength, so the first
    degenerate mix raises its error before any Mie work.
    """
    fractions = np.atleast_1d(np.asarray(fractions, dtype=float))
    wavelengths = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    m_a, m_b, m_med = _interpolate_indices(
        (component_a, component_b, medium), wavelengths
    )
    m_parts = np.empty((fractions.size, wavelengths.size), dtype=complex)
    for w, (a, b) in enumerate(zip(m_a, m_b)):
        for i, f in enumerate(fractions):
            m_parts[i, w] = lorentz_lorenz_mix(a, b, float(f))
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

