"""Pure helpers behind the benchmark's metrics.

Nothing here imports aeroinv, so the rules can be unit-tested on their own:
the tail-percentile rule, interval unions and span self time, the
joint-integral filter, and the input digest.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

# Largest joint-integral std_error that still counts as reliable.  The
# estimator's relative error is capped at 1.0 by construction: with 10 random
# shifts the standard error of the mean of nonnegative shift estimates cannot
# exceed the mean itself, so 1.0 means "one shift carried all the mass".
UNRELIABLE_STD_ERROR = 0.1


# Median time of ``reference_work`` on the machine the bounds were set on
# (2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  Re-measure it if
# ``reference_work`` changes.
REFERENCE_NOMINAL_S = 0.004


def reference_work() -> float:
    """Fixed work resembling the package's mix, timed to gauge machine speed.

    A complex downward recurrence over 300 size parameters (the Mie series),
    small dense solves (the active-set NNLS) and normal tail functions over a
    5000-point batch (the orthant sampler).  It uses no aeroinv code, so no
    change to the package can move it.
    """
    t0 = time.perf_counter()
    x = np.linspace(0.1, 60.0, 300)
    rng = np.random.default_rng(0)
    d = np.zeros(300, dtype=complex)
    for n in range(90, 1, -1):
        rn = n / ((1.33 + 0.01j) * x)
        d = rn - 1.0 / (d + rn)
    a = rng.standard_normal((48, 24))
    g = a.T @ a + np.eye(24)
    for _ in range(60):
        np.linalg.solve(g, a.T @ a[:, 0])
    w = rng.random((5000, 10))
    for i in range(10):
        ndtri_exp(np.log1p(-w[:, i]) + log_ndtr(-w[:, i]))
    return time.perf_counter() - t0


def reference_time(start: float, end: float, probes) -> tuple[float, float]:
    """Busy time of ``[start, end]`` outside the speed probes, and that time
    at reference speed.

    ``probes`` is a time-ordered list of ``(t0, t1, slowdown)``, one of which
    ends at or before ``start`` and one starts at or after ``end``.  Each gap
    between consecutive probes is divided by the mean slowdown of the two.
    """
    if not probes or probes[0][1] > start or probes[-1][0] < end:
        raise ValueError("the probes do not bracket the interval")
    busy = ref = 0.0
    for (_, gap_start, s0), (gap_end, _, s1) in zip(probes, probes[1:]):
        lo, hi = max(gap_start, start), min(gap_end, end)
        if hi > lo:
            busy += hi - lo
            ref += (hi - lo) / (0.5 * (s0 + s1))
    return busy, ref


def trimmed_mean(values, share: float = 0.1) -> float:
    """Mean after dropping the ``floor(share * n)`` lowest and as many
    highest of the n values."""
    ordered = sorted(values)
    k = int(share * len(ordered))
    kept = ordered[k: len(ordered) - k]
    if not kept:
        raise ValueError("no values")
    return sum(kept) / len(kept)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile of n values."""
    return max(math.ceil(p * n / 100.0 - 1e-9), 1)


def tail_percentile(n_ops: int) -> float | None:
    """Highest ladder percentile with at least ``TAIL_BEYOND`` of ``n_ops``
    ops ranked beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n_ops - _rank(p, n_ops) >= TAIL_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    return float(ordered[_rank(p, len(ordered)) - 1])


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children) -> float:
    """A span's duration minus the union of its children's intervals, each
    clipped to the span."""
    start, end = span
    clipped = [
        (max(s, start), min(e, end)) for s, e in children if e > start and s < end
    ]
    return (end - start) - union_length(clipped)


def is_joint(form) -> bool:
    """True for an orthant integral with a nonzero linear term.

    The evidence of a candidate is a joint integral (data and prior, v != 0)
    divided by a prior normalizer (v == 0).  Only the joint integrals carry
    the data, and only they are counted in the evidence-noise metrics.
    """
    return bool(np.any(np.asarray(form.v) != 0.0))


def measurement_digest(measurements) -> str:
    """SHA-256 over the arrays and repeat counts of a measurement sequence."""
    h = hashlib.sha256()
    for meas in measurements:
        for arr in (meas.wavelengths, meas.mean_extinction, meas.variance):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        h.update(int(meas.repeats).to_bytes(8, "little"))
    return h.hexdigest()
