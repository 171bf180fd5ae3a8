"""Gaussian integrals over the nonnegative orthant by quasi-Monte Carlo.

Probabilities are computed with the sequential-conditioning transform to the
unit cube (Genz 1992), after Genz–Bretz variable priority reordering (Genz &
Bretz 2009, sec. 4.1.3): the variable with the smallest conditional tail
probability is conditioned first.  Points are randomly shifted square-root
lattice points, wrapped into the unit cube by x - floor(x) (x mod 1,
exactly, for x >= 0).  All accumulation happens in log space so that
strongly shifted orthants and large normalizing prefactors cannot under- or
overflow; the log-space means use the module's own ``_logsumexp``, which
repeats scipy's arithmetic bit for bit without its array-API dispatch.  The
relative error comes from the spread of the per-shift log estimates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import log_ndtr, ndtri_exp

from .errors import CholeskyFailure

__all__ = [
    "QuadraticForm",
    "IntegralEstimate",
    "genz_orthant_probability",
    "log_orthant_probability",
    "orthant_integral",
    "log_gaussian_integral",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 5_000
_N_SHIFTS = 10
# Most lattice points pushed through the sampler in one pass, which bounds
# the working arrays at any budget.
_BATCH_POINTS = 10_000
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class QuadraticForm:
    """Exponent data for integrals of exp(-0.5*(n'Hn - 2n'v + q))."""

    H: np.ndarray
    v: np.ndarray
    q: float = 0.0

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or v.shape != (H.shape[0],):
            raise ValueError("H must be square and v of matching length")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class IntegralEstimate:
    """Monte Carlo estimate.

    For ``genz_orthant_probability`` ``std_error`` is absolute; elsewhere it
    is relative (approximately the standard error of ``log_value``), since
    the linear value may not be representable.
    """

    value: float
    std_error: float
    samples: int
    log_value: float


@functools.lru_cache(maxsize=None)
def _lattice_roots(count: int) -> np.ndarray:
    """Square roots of the first ``count`` primes (the lattice generator)."""
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    roots = np.sqrt(np.array(primes, dtype=float))
    roots.setflags(write=False)
    return roots


def _factor(H: np.ndarray):
    """Upper Cholesky factor U of H = U'U, log det H and H^-1 = U^-1 U^-T."""
    try:
        U = scipy.linalg.cholesky(H, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise CholeskyFailure("matrix is not positive definite") from exc
    # LAPACK's triangular inverse: at dimensions up to ~50 a threaded BLAS-3
    # solve against the identity spends more on thread start-up than on work
    U_inv, info = scipy.linalg.lapack.dtrtri(U, lower=0)
    if info != 0:
        raise CholeskyFailure(f"Cholesky factor is singular (dtrtri info {info})")
    logdet = 2.0 * float(np.sum(np.log(np.diag(U))))
    return U, logdet, U_inv @ U_inv.T


def _priority_cholesky(cov: np.ndarray, lower: np.ndarray):
    """Lower Cholesky factor of ``cov`` in Genz–Bretz priority order.

    Step k conditions, among the variables not yet placed, the one with the
    smallest conditional tail log-probability log P(Z_j >= lower_j) given
    the placed ones at their truncated-normal means.  Returns the factor and
    the lower bounds, both in the chosen order.
    """
    n = lower.size
    C = np.array(cov, dtype=float)
    a = np.array(lower, dtype=float)
    var = np.diag(C).copy()  # conditional variances of the unplaced rows
    L = np.zeros((n, n))
    y = np.zeros(n)  # truncated-normal means of the placed variables
    for k in range(n):
        ok = var[k:] > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (a[k:] - L[k:, :k] @ y[:k]) / np.sqrt(var[k:])
            log_tail = np.where(ok, log_ndtr(-t), np.inf)
        j = int(np.argmin(log_tail))
        if not ok[j]:
            raise CholeskyFailure("covariance lost positive definiteness")
        t_k, log_tail_k = t[j], log_tail[j]
        j += k
        if j != k:
            for arr in (a, var):
                arr[[k, j]] = arr[[j, k]]
            C[[k, j]] = C[[j, k]]
            C[:, [k, j]] = C[:, [j, k]]
            L[[k, j], :k] = L[[j, k], :k]
        d = np.sqrt(var[k])
        L[k, k] = d
        L[k + 1 :, k] = (C[k + 1 :, k] - L[k + 1 :, :k] @ L[k, :k]) / d
        var[k + 1 :] -= L[k + 1 :, k] ** 2
        # E[Z | Z >= t] = phi(t) / (1 - Phi(t)), formed in log space
        y[k] = np.exp(-0.5 * t_k * t_k - _LOG_SQRT_2PI - log_tail_k)
    return L, a


def _logsumexp(a: np.ndarray, axis=None):
    """log(sum(exp(a))) over ``axis``, bit for bit as
    ``scipy.special.logsumexp`` computes it for real, unweighted input,
    without its array-API dispatch.

    The maxima (all ties) are taken out of the sum: with m of them at a_max,
    the result is log1p(s / m) + log(m) + a_max, s the sum of exp(a - a_max)
    over the rest.  Where that is not finite (an all -inf or an inf row),
    the direct log(sum(exp(a))) is the result.
    """
    a_max = np.max(a, axis=axis, keepdims=True)
    is_max = a == a_max
    m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = np.exp(np.where(is_max, -np.inf, a) - a_max)
        s = np.sum(rest, axis=axis, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        if not np.isfinite(out).all():
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(np.isfinite(out), out, direct)
    return np.squeeze(out, axis=axis)[()]


def _log_orthant_prob_samples(L: np.ndarray, lower: np.ndarray, w: np.ndarray):
    """Per-sample log weights of P(Z >= lower), Z ~ N(0, L L')."""
    dim = L.shape[0]
    n_pts = w.shape[0]
    logf = np.zeros(n_pts)
    y = np.zeros((n_pts, max(dim - 1, 0)))
    for i in range(dim):
        shifted = lower[i] - y[:, :i] @ L[i, :i] if i else np.full(n_pts, lower[i])
        t = shifted / L[i, i]
        log_sf = log_ndtr(-t)
        logf = logf + log_sf
        if i < dim - 1:
            # conditional truncated-normal sample: y = Phi^-1(1 - (1-w)(1-d))
            log_u = np.log1p(-w[:, i]) + log_sf
            y[:, i] = -ndtri_exp(log_u)
    return logf


def _log_probability(cov, lower, samples: int, seed: int):
    """log P(Z >= lower) for Z ~ N(0, cov), its relative standard error and
    the number of points used.

    ``_N_SHIFTS`` independent random shifts of one lattice; the relative
    error is the standard error of the mean of the per-shift estimates,
    each taken relative to that mean in log space, so it stays finite when
    the probability underflows.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    L, a = _priority_cholesky(cov, lower)
    n_w = L.shape[0] - 1
    n_pts = max(samples // _N_SHIFTS, 1)
    rng = np.random.default_rng(seed)
    shifts = rng.random((_N_SHIFTS, n_w))
    roots = _lattice_roots(n_w)
    # Whole shifts are batched up to _BATCH_POINTS points; a shift with more
    # points streams them in chunks of _BATCH_POINTS, whose log-sum-exps are
    # combined below.  A single chunk per shift passes through that
    # combination unchanged, bit for bit.
    chunk = min(n_pts, _BATCH_POINTS)
    per_batch = max(_BATCH_POINTS // n_pts, 1)
    chunk_logs = np.empty((_N_SHIFTS, -(-n_pts // chunk)))
    for start in range(0, _N_SHIFTS, per_batch):
        block = shifts[start : start + per_batch]
        for c, first in enumerate(range(0, n_pts, chunk)):
            idx = np.arange(first + 1, min(first + chunk, n_pts) + 1)
            w = (idx[:, None] * roots)[None, :, :] + block[:, None, :]
            w -= np.floor(w)  # the lattice wrap: x mod 1, exactly, for x >= 0
            logf = _log_orthant_prob_samples(
                L, a, w.reshape(len(block) * idx.size, n_w)
            )
            chunk_logs[start : start + len(block), c] = _logsumexp(
                logf.reshape(len(block), idx.size), axis=1
            )
    shift_logs = _logsumexp(chunk_logs, axis=1) - np.log(n_pts)
    log_value = float(_logsumexp(shift_logs) - np.log(_N_SHIFTS))
    if not np.isfinite(log_value):
        return log_value, np.inf, n_pts * _N_SHIFTS
    ratios = np.exp(shift_logs - log_value)
    rel_err = float(ratios.std(ddof=1) / np.sqrt(_N_SHIFTS))
    return log_value, rel_err, n_pts * _N_SHIFTS


def log_orthant_probability(
    H, lower_shift, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> IntegralEstimate:
    """Probability P(Z >= lower_shift) for Z ~ N(0, H^-1), with a relative
    ``std_error``; ``value`` underflows to 0 below exp(-745), ``log_value``
    does not."""
    lower = np.atleast_1d(np.asarray(lower_shift, dtype=float))
    _, _, cov = _factor(np.asarray(H, dtype=float))
    log_value, rel_err, n = _log_probability(cov, lower, samples, seed)
    return IntegralEstimate(float(np.exp(log_value)), rel_err, n, log_value)


def genz_orthant_probability(
    H, lower_shift, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> IntegralEstimate:
    """Probability P(Z >= lower_shift) for Z ~ N(0, H^-1), with an absolute
    ``std_error``.

    Uses randomly shifted square-root lattice points with ``_N_SHIFTS``
    independent shifts; the spread of the per-shift estimates gives the
    standard error.
    """
    est = log_orthant_probability(H, lower_shift, samples, seed)
    return IntegralEstimate(
        est.value, est.value * est.std_error, est.samples, est.log_value
    )


def _complete_square(form: QuadraticForm):
    """log of the integral of exp(-0.5*(n'Hn - 2n'v + q)) over all of R^N,
    with the mode H^-1 v and the covariance H^-1 of the completed square."""
    H, v, q = form.H, form.v, form.q
    U, logdet, cov = _factor(H)
    mode = scipy.linalg.cho_solve((U, False), v)
    log_full = -0.5 * (q - float(v @ mode)) + 0.5 * (
        form.dim * np.log(2.0 * np.pi) - logdet
    )
    return log_full, mode, cov


def log_gaussian_integral(form: QuadraticForm) -> float:
    """log of the integral of exp(-0.5*(n'Hn - 2n'v + q)) over all of R^N.

    ``orthant_integral`` estimates the same integral over the nonnegative
    orthant as this value plus a log probability, a mean of products of
    conditional tail probabilities that are each at most 1; so every
    ``orthant_integral(form).log_value`` is at most this value, up to
    rounding.
    """
    return _complete_square(form)[0]


def orthant_integral(
    form: QuadraticForm, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> IntegralEstimate:
    """Integral of exp(-0.5*(n'Hn - 2n'v + q)) over the nonnegative orthant.

    Completing the square gives a Gaussian prefactor times the orthant
    probability of N(H^-1 v, H^-1); one Cholesky factor of H yields the
    mode, log det H and H^-1.  The result is carried as ``log_value`` with
    a relative ``std_error``.
    """
    log_prefactor, mode, cov = _complete_square(form)
    log_prob, rel_err, n = _log_probability(cov, -mode, samples, seed)
    log_value = log_prefactor + log_prob
    value = float(np.exp(log_value)) if np.isfinite(log_value) else 0.0
    return IntegralEstimate(value, rel_err, n, float(log_value))
