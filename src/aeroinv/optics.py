"""Refractive indices, effective-medium mixing, and Mie extinction kernels.

The extinction kernel is k(r, l) = pi * r^2 * Q_ext with radii and
wavelengths in micrometers.  Q_ext comes from the classical Mie series for a
homogeneous sphere in a non-absorbing medium; the medium index enters through
its real part only, which is immaterial for air.

There is one Mie routine, ``_qext_series``, over (wavelength, radius)
columns that each carry A particle indices.  ``mie_qext`` and
``kernel_value`` call it for one index at one wavelength, and
``mixed_kernel_rows`` for every mixing fraction at every wavelength; the
package builds every forward operator from those rows (a single material is
fraction 1 of itself).  ``MieKernel`` (from ``make_kernel``, or built with a
fraction) is the pointwise kernel ``k(r, l)`` over the same routine.
It sorts the size parameters of all columns and runs the series over chunks
of neighbouring size parameters.  The Riccati-Bessel functions of the size
parameter are shared by the indices of a column; the downward recurrence for
D_n(mx) starts above both the series truncation order and |mx| of its chunk
(Wiscombe 1980) and carries the series sum with it.  A pass with at least
``_WIDE_INDICES`` indices per column (a kernel family's anchor fractions)
runs its chunks on min(usable CPUs, chunks) threads: the calling thread and
a pool created and joined inside the call.  The usable CPUs follow the
process's CPU affinity, so a caller that wants one core restricts its
affinity.  Narrower passes run on the calling thread alone.  The rows are the same either
way.  Apart from the output, memory is bounded by ``_MIE_BUDGET`` per
worker.
"""

from __future__ import annotations

import csv
import os
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path, PurePosixPath, PureWindowsPath

import numpy as np

from .errors import DegenerateMix, NonConvergent, OutOfBand

__all__ = [
    "IndexTable",
    "load_index_table",
    "get_material",
    "interpolate_index",
    "lorentz_lorenz_mix",
    "mie_qext",
    "kernel_value",
    "MieKernel",
    "make_kernel",
    "mixed_kernel_rows",
]

# Extra downward-recurrence orders above max(n_trunc, |m x|).  Against a
# start 300 orders higher, 15 leaves pointwise Q_ext errors up to 4e-5 on the
# study's fine grid (water and CsI in air); 30 leaves at most 3e-13.
_LOGDERIV_MARGIN = 30
# Work budget of the Mie routine, in elements: a pass sorts the size
# parameters of at most this many (wavelength, radius) columns, and a chunk of
# them holds at most this many (index, column) elements and an eighth as many
# columns.
_MIE_BUDGET = 16_384
# Indices per column from which a pass runs its chunks on a thread pool.  At
# 8 or more the chunk width is set by the index count and every ufunc call
# covers about ``_MIE_BUDGET`` elements; on a narrower pass (one index, as in
# single-material rows) the small ufunc calls are bound by the GIL and
# threads made rows slower (32 -> 54 ms median for 48 x 300 rows, 2 cores).
_WIDE_INDICES = 8


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


def load_index_table(path, material_name: str | None = None) -> IndexTable:
    """Read a ``wavelength_um,real,imag`` text table.

    Blank rows are skipped and rows before the first data row may be
    headers; any later row that does not parse, or a row with fewer than
    three cells, is a ValueError that names the file and the row.
    """
    path = Path(path)
    wavelengths, values = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not any(v.strip() for v in row):
                continue
            try:
                cells = [float(v) for v in row[:3]]
            except ValueError:
                if not wavelengths:
                    continue  # header
                raise ValueError(f"row {row!r} of {path} is not numeric") from None
            if len(cells) < 3:
                raise ValueError(f"row {row!r} of {path} has fewer than three cells")
            wavelengths.append(cells[0])
            values.append(complex(cells[1], cells[2]))
    return IndexTable(
        np.array(wavelengths), np.array(values), material_name or path.stem
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


def _qext_series(m: np.ndarray, x: np.ndarray, weight=None) -> np.ndarray:
    """Mie extinction efficiencies, shape (A, W, R), for relative indices m of
    shape (A, W) at size parameters x of shape (W, R).

    Column (w, j) is one wavelength and radius: size parameter x[w, j] and
    the A indices m[:, w].  ``weight`` (length R), if given, multiplies each
    radius in place; pi r^2 turns Q_ext into kernel values.

    The columns go through in passes of whole wavelengths, at most
    ``_MIE_BUDGET`` columns a pass unless one wavelength alone is larger.  A
    pass sorts the size parameters of all its columns, across wavelengths,
    and cuts them into chunks of at most ``_MIE_BUDGET // A`` columns, never
    more than ``_MIE_BUDGET // 8``, which bounds the (orders, columns) table
    when A is small.  Each chunk gathers its indices from m, runs
    the series of ``_chunk_qext`` with its own truncation orders and its own
    recurrence start, and is written back through its (wavelength, radius)
    index arrays.  A column of small x thus never runs the recurrence from
    the largest |m x| of its wavelength, and the work arrays stay
    cache-sized.

    A wide pass, at least ``_WIDE_INDICES`` indices per column, runs its
    chunks on min(usable CPUs, chunks) threads (see ``_run_pool``): there
    every ufunc call covers about ``_MIE_BUDGET`` elements and releases the
    GIL.  A narrower pass runs its chunks in order on the calling thread,
    where threads would only contend for the GIL.  Chunks share nothing but
    disjoint elements of the output, so the rows do not depend on the
    worker count.  Apart from the output, memory is bounded by the budget
    per worker.
    """
    n_idx, n_wl = m.shape
    n_r = x.shape[1]
    m_by_wl = np.ascontiguousarray(m.T)
    out = np.empty((n_idx, n_wl, n_r))
    wl_per_pass = max(_MIE_BUDGET // n_r, 1)
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
        q = _chunk_qext(m_by_wl[wi], xp[cols])
        if not np.all(np.isfinite(q)):
            raise NonConvergent("Mie series recurrences produced non-finite values")
        np.maximum(q, 0.0, out=q)
        if weight is not None:
            q *= weight[ri, None]
        out[:, wi, ri] = q.T

    tasks, workers = chunks(), 1
    if n_idx >= _WIDE_INDICES:
        tasks = list(tasks)
        workers = min(_usable_cpus(), len(tasks))
    if workers > 1:
        _run_pool(run_chunk, tasks, workers)
    else:
        for task in tasks:
            run_chunk(*task)
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, otherwise every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_pool(run_chunk, tasks, workers: int) -> None:
    """``run_chunk(*task)`` for every task, on the calling thread and
    ``workers - 1`` threads of a pool that lives for this call only.

    All of them take tasks from one queue, by descending largest size
    parameter, so the longest series start first; the calling thread works
    rather than waits, which also spares a thread its own malloc arena.
    The first error, or an interrupt, stops the queue and is raised once
    the running tasks have finished; no worker outlives the call.
    """
    from concurrent.futures import ThreadPoolExecutor

    tasks.sort(key=lambda task: task[0][task[2][-1]], reverse=True)
    queue = iter(tasks)
    lock = threading.Lock()
    stop = threading.Event()

    def drain():
        while not stop.is_set():
            with lock:
                task = next(queue, None)
            if task is None:
                return
            try:
                run_chunk(*task)
            except BaseException:
                stop.set()
                raise

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        try:
            drain()
        finally:
            stop.set()
    for helper in helpers:
        helper.result()


def _chunk_qext(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Q_ext, shape (C, A), of C columns with ascending size parameters xs
    and relative indices m of shape (C, A).

    The series for column x runs to n_trunc = ceil(x + 4 x^(1/3) + 2).
    xi_n(x) = psi_n(x) - i chi_n(x) does not depend on m, so one upward pass
    builds it for every order; a column stops at its own n_trunc, so the
    fast-growing chi cannot overflow.  The logarithmic derivative D_n(mx)
    then runs downward over all (C, A) at once, and the term of order n is
    added in the same step, only for the columns still inside their series.
    On ascending size parameters those columns are a suffix, which in this
    column-major layout is one contiguous block.

    With t = D_n/m + n/x, a_n = (t psi_n - psi_{n-1}) / (t xi_n - xi_{n-1}).
    The Wronskian psi_n chi_{n-1} - psi_{n-1} chi_n = -1 turns this into
    Re a_n = psi_n^2/|xi_n|^2 + Im z/|z|^2, z = xi_n^2 t - xi_n xi_{n-1}, so
    the per-index work is one squared modulus and no complex division; b_n
    is the same with t = D_n m + n/x.

    The downward recurrence starts from D = 0 at
    max(n_trunc, ceil(max |mx|)) + _LOGDERIV_MARGIN over the chunk (Wiscombe
    1980, Appl. Opt. 19:1505; the same rule as Bohren and Huffman's BHMIE).
    Starting below |mx| leaves D inaccurate at the low orders: for CsI in
    air a start at max(n_trunc) + 15 put Q_ext off by up to 12% on the
    study's fine grid.

    Memory is one (orders, C) complex table and a few (C, A) work arrays,
    updated in place; no (orders, C, A) array is formed.
    """
    n_trunc = np.ceil(xs + 4.0 * np.cbrt(xs) + 2.0).astype(int)
    n_max = int(n_trunc[-1])
    # first column whose series still runs at order n
    first = np.searchsorted(n_trunc, np.arange(n_max + 1), side="left")

    # xi[n + 1] holds xi_n(x), n = -1 .. n_max; base sums the psi_n^2/|xi_n|^2
    # parts of Re(a_n + b_n), weighted by 2n + 1
    xi = np.zeros((n_max + 2, xs.size), dtype=complex)
    xi[0] = np.cos(xs) + 1j * np.sin(xs)
    xi[1] = np.sin(xs) - 1j * np.cos(xs)
    # the recurrence is real: run it on interleaved (psi, -chi) pairs
    xi_flat = xi.view(float)
    x_pairs = np.repeat(xs, 2)
    base = np.zeros(xs.size)
    psi_sq = np.empty(xs.size)
    abs_sq = np.empty(xs.size)
    for n in range(1, n_max + 1):
        s = first[n]
        row = xi_flat[n + 1, 2 * s :]
        np.divide(2.0 * n - 1.0, x_pairs[2 * s :], out=row)
        row *= xi_flat[n, 2 * s :]
        row -= xi_flat[n - 1, 2 * s :]
        np.square(row[0::2], out=psi_sq[s:])
        np.square(row[1::2], out=abs_sq[s:])
        abs_sq[s:] += psi_sq[s:]
        psi_sq[s:] *= (2.0 * n + 1.0) * 2.0
        base[s:] += psi_sq[s:] / abs_sq[s:]

    x_col = xs[:, None]
    mx = m * x_col
    inv_mx = 1.0 / mx
    factors = (1.0 / m, m)  # t = D_n * factor + n / x
    n_start = max(n_max, int(np.ceil(np.abs(mx).max()))) + _LOGDERIV_MARGIN
    dn = np.zeros(m.shape, dtype=complex)
    rn = np.empty_like(dn)
    u = np.empty_like(dn)
    z = np.empty_like(dn)
    z_flat = z.view(float)  # (C, 2A): real and imaginary parts interleaved
    sq = np.empty(z_flat.shape)
    ratio = np.empty(m.shape)
    acc = np.zeros(m.shape)  # sum of (2n + 1) Im z / |z|^2 over a_n and b_n
    for n in range(n_start, 1, -1):  # step computes D_{n-1}
        np.multiply(inv_mx, n, out=rn)
        dn += rn
        np.reciprocal(dn, out=dn)
        np.subtract(rn, dn, out=dn)
        k = n - 1
        if k > n_max:
            continue
        s = first[k]
        # z / (2k + 1) = p t + c, so Im z / |z|^2 carries the series weight
        w = 2.0 * k + 1.0
        p = xi[k + 1, s:, None] ** 2 / w
        c = p * (k / x_col[s:]) - xi[k + 1, s:, None] * xi[k, s:, None] / w
        np.multiply(dn[s:], p, out=u[s:])
        for factor in factors:
            np.multiply(u[s:], factor[s:], out=z[s:])
            z[s:] += c
            np.square(z_flat[s:], out=sq[s:])
            np.add(sq[s:, 0::2], sq[s:, 1::2], out=ratio[s:])
            np.divide(z_flat[s:, 1::2], ratio[s:], out=ratio[s:])
            acc[s:] += ratio[s:]

    return (base[:, None] + acc) * (2.0 / x_col**2)


def _extinction(m_med, m_parts, r, wavelengths, weight=None) -> np.ndarray:
    """Q_ext (times ``weight``), shape (A, W, R), of particle indices
    m_parts (A, W) in media m_med (W,) at radii r (R,) and wavelengths (W,)."""
    m_med = np.asarray(m_med, dtype=complex)
    m_parts = np.asarray(m_parts, dtype=complex)
    for v in (m_med, m_parts):
        bad = (v.real <= 0.0) | (v.imag < 0.0)
        if bad.any():
            raise ValueError(
                f"refractive index {v[bad][0]} must have Re > 0 and Im >= 0"
            )
    wavelengths = np.asarray(wavelengths, dtype=float)
    if np.any(r <= 0.0) or np.any(wavelengths <= 0.0):
        raise ValueError("radius and wavelength must be positive")
    x = 2.0 * np.pi * m_med.real[:, None] * r / wavelengths[:, None]
    return _qext_series(m_parts / m_med, x, weight)


def mie_qext(m_med: complex, m_part: complex, r, l: float):
    """Extinction efficiency Q_ext for spheres of radius r (um) at wavelength l.

    Uses size parameter x = 2*pi*Re(m_med)*r/l and relative index
    m = m_part/m_med.  Accepts a scalar or array of radii.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    q = _extinction([m_med], [[m_part]], r_arr.ravel(), [l])[0, 0]
    return q.reshape(r_arr.shape) if np.ndim(r) else float(q[0])


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

    ``fractions`` are volume fractions of component a.  One size-sorted Mie
    pass covers every (fraction, wavelength, radius); the values are those
    of ``MieKernel(component_a, component_b, medium, fraction)(r, l)``.
    """
    fractions = np.atleast_1d(np.asarray(fractions, dtype=float))
    wavelengths = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    m_med = np.empty(wavelengths.size, dtype=complex)
    m_parts = np.empty((fractions.size, wavelengths.size), dtype=complex)
    for wi, l in enumerate(wavelengths):
        m_a = interpolate_index(component_a, l)
        m_b = interpolate_index(component_b, l)
        m_med[wi] = interpolate_index(medium, l)
        m_parts[:, wi] = [lorentz_lorenz_mix(m_a, m_b, float(p)) for p in fractions]
    return _extinction(m_med, m_parts, r, wavelengths, weight=np.pi * r**2)


@dataclass(frozen=True)
class MieKernel:
    """Extinction kernel of spheres mixing volume fraction ``fraction_a`` of
    component a with component b (Lorentz-Lorenz) in ``medium``.

    Callable as ``k(r, l)``; ``rows(wavelengths, r)`` builds every row in
    one Mie pass.  A single material is fraction 1 of (material, material).
    """

    component_a: IndexTable
    component_b: IndexTable
    medium: IndexTable
    fraction_a: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.fraction_a <= 1.0:
            raise ValueError("fraction_a must lie in [0, 1]")

    def __call__(self, r, l: float):
        m_part = lorentz_lorenz_mix(
            interpolate_index(self.component_a, l),
            interpolate_index(self.component_b, l),
            self.fraction_a,
        )
        return kernel_value(interpolate_index(self.medium, l), m_part, r, l)

    def rows(self, wavelengths, r) -> np.ndarray:
        """Kernel values, shape (wavelengths, radii)."""
        return mixed_kernel_rows(
            self.component_a, self.component_b, self.medium, self.fraction_a,
            wavelengths, r,
        )[0]


def make_kernel(particle: IndexTable, medium: IndexTable) -> MieKernel:
    """Bind material tables into a kernel ``k(r, l)``."""
    return MieKernel(particle, particle, medium)

