"""Gaussian integrals over the nonnegative orthant by quasi-Monte Carlo.

Probabilities are computed with the sequential-conditioning transform to the
unit cube (Genz 1992), after Genz–Bretz variable priority reordering (Genz &
Bretz 2009, sec. 4.1.3): the variable with the smallest conditional tail
probability is conditioned first.  Each conditional standard normal is drawn
from a tilted proposal, N(mu_i, 1) truncated to its bound, with the minimax
tilt mu of Botev (2017, J. R. Stat. Soc. B 79:125): the saddle point of
psi(x, mu), found by Newton's method, which also gives the upper bound
exp(psi*) on the probability.  That set-up (the reordered factor and the
tilt) does not depend on the sample budget.  It runs on stacks of integrals
of one dimension: ``prepare`` sets up many forms in one pass per
dimension, and a form set up alone is a stack of one.  Each member's
arithmetic is the same, operation by operation, whatever it is stacked
with, so its set-up and its estimate do not depend on the stack, and a
stack raises ``CholeskyFailure`` exactly when one of its members would
alone.  Points are randomly shifted square-root
lattice points, wrapped into the unit cube by x - floor(x) (x mod 1,
exactly, for x >= 0) and folded by the baker's transform |2w - 1|.  All
accumulation happens in log space so that strongly shifted orthants and
large normalizing prefactors cannot under- or overflow; the log-space means
use the module's own ``_logsumexp``, which repeats scipy's arithmetic bit
for bit without its array-API dispatch.  The relative error comes from the
spread of the per-shift log estimates.
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
    "log_orthant_probability",
    "orthant_integral",
    "log_gaussian_integral",
    "prepare",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 1_000
_N_SHIFTS = 10
# Most lattice points pushed through the sampler in one pass, which bounds
# the working arrays at any budget.
_BATCH_POINTS = 10_000
# Newton's method for the minimax tilt stops once every component of the
# saddle-point gradient is at most _TILT_TOL times 1 + the largest inverse
# Mills ratio (the scale of its terms), and gives up (the sampler then runs
# untilted) after _TILT_STEPS steps or a step halved _TILT_HALVINGS times.
_TILT_TOL = 1e-10
_TILT_STEPS = 100
_TILT_HALVINGS = 40
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_TENT_MAX = 1.0 - 2.0**-53  # the largest double below 1


@dataclass(frozen=True)
class QuadraticForm:
    """Exponent data for integrals of exp(-0.5*(n'Hn - 2n'v + q))."""

    H: np.ndarray
    v: np.ndarray
    q: float = 0.0

    def __post_init__(self):
        H, v = _checked(self.H, self.v)
        if not np.isfinite(self.q):
            raise ValueError("q must be finite")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @functools.cached_property
    def completed_square(self):
        """``(log of the integral over all of R^N, mode H^-1 v, H^-1)``,
        from one Cholesky factor of H, computed on first use; the closed
        form and the orthant integral of one form share it.  ``H`` and
        ``v`` must not change afterwards."""
        U, logdet, cov = _factor(self.H)
        # LAPACK's Cholesky solve, what scipy.linalg.cho_solve calls, without
        # its argument checks
        mode, info = scipy.linalg.lapack.dpotrs(U, self.v, lower=0)
        if info != 0:
            raise CholeskyFailure(f"Cholesky solve failed (dpotrs info {info})")
        log_full = -0.5 * (self.q - float(self.v @ mode)) + 0.5 * (
            self.dim * np.log(2.0 * np.pi) - logdet
        )
        return log_full, mode, cov

    @functools.cached_property
    def sampler_setup(self) -> _SamplerSetup:
        """The orthant sampler's set-up for N(H^-1 v, H^-1), computed on
        first use as a stack of one unless ``prepare`` filled it."""
        _, mode, cov = self.completed_square
        return _setup_of(cov, -mode)


@dataclass(frozen=True)
class _SamplerSetup:
    """What the orthant sampler needs before its first point, for
    P(Z >= lower), Z ~ N(0, L L'), with the variables in Genz–Bretz
    priority order: the factor ``L``, the bounds ``lower`` and the minimax
    tilt ``mu`` in that order, psi* as ``log_bound`` and whether the tilt
    search converged (``tilted``; otherwise mu = 0 and the bound is log 1).
    """

    L: np.ndarray
    lower: np.ndarray
    mu: np.ndarray
    log_bound: float
    tilted: bool


@dataclass(frozen=True)
class IntegralEstimate:
    """Monte Carlo estimate.

    ``std_error`` is relative (approximately the standard error of
    ``log_value``), since the linear value may not be representable.
    ``log_bound`` is an upper bound on the log of the exact value (psi* of
    the minimax tilt; inf where none is known) and ``tilted`` whether the
    sampler ran with the tilt (False after a failed tilt search, which falls
    back to mu = 0).
    """

    std_error: float
    samples: int
    log_value: float
    log_bound: float = np.inf
    tilted: bool = False

    @property
    def value(self) -> float:
        """exp(``log_value``): 0 below exp(-745) and inf above exp(709),
        without an overflow warning."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_value))


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


def _checked(H, v):
    """``H`` and ``v`` as float arrays: a nonempty square matrix and a
    vector of its length, all finite, or a ValueError."""
    H = np.asarray(H, dtype=float)
    v = np.asarray(v, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or v.shape != (H.shape[0],):
        raise ValueError("H must be square and its vector of matching length")
    if H.shape[0] == 0:
        raise ValueError("H must have at least one row")
    if not (np.isfinite(H).all() and np.isfinite(v).all()):
        raise ValueError("H and its vector must be finite")
    return H, v


# LAPACK's Cholesky, the routine scipy.linalg.cholesky resolves for float64
(_POTRF,) = scipy.linalg.get_lapack_funcs(("potrf",), dtype=np.float64)


def _factor(H: np.ndarray):
    """Upper Cholesky factor U of H = U'U, log det H and H^-1 = U^-1 U^-T.
    ``H`` is a ``_checked`` matrix, so ``_POTRF`` runs without the checks
    of ``scipy.linalg.cholesky``."""
    U, info = _POTRF(H, lower=0)
    if info != 0:
        raise CholeskyFailure("matrix is not positive definite")
    # LAPACK's triangular inverse: at dimensions up to ~50 a threaded BLAS-3
    # solve against the identity spends more on thread start-up than on work
    U_inv, info = scipy.linalg.lapack.dtrtri(U, lower=0)
    if info != 0:
        raise CholeskyFailure(f"Cholesky factor is singular (dtrtri info {info})")
    logdet = 2.0 * float(np.sum(np.log(np.diag(U))))
    return U, logdet, U_inv @ U_inv.T


def _priority_cholesky(cov: np.ndarray, lower: np.ndarray):
    """Lower Cholesky factors of a stack of covariances ``cov`` (count, n,
    n) in Genz–Bretz priority order, one order per member.

    Step k conditions, among each member's variables not yet placed, the
    one with the smallest conditional tail log-probability
    log P(Z_j >= lower_j) given the placed ones at their truncated-normal
    means.  Returns the factors, the lower bounds and those means (of the
    standardized variables), all in each member's chosen order.  ``cov``
    itself is never permuted: ``perm[b, i]`` is member b's variable at
    position i, and each step gathers the one column of ``cov`` it needs.
    """
    count, n = lower.shape
    rows = np.arange(count)
    a = np.array(lower, dtype=float)
    # conditional variances of the unplaced rows
    var = np.diagonal(cov, axis1=1, axis2=2).copy()
    perm = np.tile(np.arange(n), (count, 1))
    L = np.zeros((count, n, n))
    y = np.zeros((count, n))  # truncated-normal means of the placed variables
    # one errstate for the whole loop: entering one per step costs more
    # than the step's arithmetic at these sizes
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            placeable = var[:, k:] > 0.0
            shift = np.matmul(L[:, k:, :k], y[:, :k, None])[:, :, 0]
            t = (a[:, k:] - shift) / np.sqrt(var[:, k:])
            log_tail = np.where(placeable, log_ndtr(-t), np.inf)
            j = np.argmin(log_tail, axis=1)
            if not placeable[rows, j].all():
                raise CholeskyFailure("covariance lost positive definiteness")
            t_k, log_tail_k = t[rows, j], log_tail[rows, j]
            j += k
            for arr in (a, var, perm):
                arr[rows, k], arr[rows, j] = arr[rows, j], arr[rows, k]
            L[rows, k, :k], L[rows, j, :k] = L[rows, j, :k], L[rows, k, :k]
            d = np.sqrt(var[:, k])
            L[:, k, k] = d
            column = cov[rows[:, None], perm[:, k + 1 :], perm[:, k, None]]
            placed = np.matmul(L[:, k + 1 :, :k], L[:, k, :k, None])[:, :, 0]
            L[:, k + 1 :, k] = (column - placed) / d[:, None]
            var[:, k + 1 :] -= L[:, k + 1 :, k] ** 2
            # E[Z | Z >= t] = phi(t) / (1 - Phi(t)), formed in log space
            y[:, k] = np.exp(-0.5 * t_k * t_k - _LOG_SQRT_2PI - log_tail_k)
    return L, a, y


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


def _tent(w: np.ndarray) -> np.ndarray:
    """The baker's (tent) transform |2w - 1| of lattice points in [0, 1).

    It makes the integrand's periodic extension continuous, which lifts the
    lattice rule's convergence from about 1/n towards 1/n^2 for smooth
    integrands (Hickernell 2002).  w = 0 would map to 1, where the sampler's
    log(1 - w) is -inf; it is kept just below 1.
    """
    return np.minimum(np.abs(2.0 * w - 1.0), _TENT_MAX)


def _minimax_tilt(L: np.ndarray, lower: np.ndarray, means: np.ndarray):
    """Botev's minimax tilt for P(Z >= lower), Z ~ N(0, L L'), for each
    member of a stack (``L`` of shape (count, d, d), ``lower`` and
    ``means`` (count, d)), with the variables in the order of ``L``:
    ``(mu, psi*, tilted)``.  A member whose Newton's method fails gets
    mu = 0, psi* = 0 (log 1) and ``tilted`` False.

    With c_k(x) = (lower_k - sum_{j<k} L_kj x_j) / L_kk the conditional
    bound of variable k,
    psi(x, mu) = sum_k [log Phi(mu_k - c_k(x)) + mu_k^2 / 2 - x_k mu_k],
    with x_d = mu_d = 0 for the last variable, which is never sampled.
    psi is concave in x and convex in mu, so its stationary point (x*, mu*)
    is the minimax point and psi* = psi(x*, mu*) <= max_x psi(x, 0) <= 0;
    since psi(., mu*) peaks at x*, every tilted sample's log weight, and so
    every estimate, is at most psi*.  grad psi = 0 is solved by Newton
    steps with the analytic Jacobian, each step halved until the squared
    gradient norm decreases (far-shifted orthants need that).  They start
    from mu = 0 and x = ``means``, the Genz–Bretz truncated-normal means,
    which solve the mu half of the system at mu = 0.  Every unfinished
    member takes its step together; one that has converged or failed drops
    out, and each halves its own step.
    """
    count, d = lower.shape
    m = d - 1  # free variables of x and of mu each
    mu_star = np.zeros((count, d))
    psi_star = np.zeros(count)
    tilted = np.zeros(count, dtype=bool)
    diag = np.diagonal(L, axis1=1, axis2=2)
    l = lower / diag
    if m == 0:
        return mu_star, log_ndtr(-l[:, 0]), np.ones(count, dtype=bool)
    B = L[:, :, :m] / diag[:, :, None]
    free = np.arange(m)
    B[:, free, free] = 0.0  # scaled strictly lower factors

    def system(z, B, l):
        """t, log Phi(-t), the inverse Mills ratio P and grad psi at
        z = (x, mu), with the squared norm of grad psi."""
        x, mu = z[:, :m], z[:, m:]
        t = l - np.matmul(B, x[:, :, None])[:, :, 0]
        t[:, :m] -= mu
        log_sf = log_ndtr(-t)
        P = np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_sf)
        BtP = np.matmul(B.transpose(0, 2, 1), P[:, :, None])[:, :, 0]
        grad = np.concatenate((BtP - mu, mu - x + P[:, :m]), axis=1)
        return [t, log_sf, P, grad, _dots(grad, grad)]

    idx = np.arange(count)  # the members still iterating
    z = np.concatenate((means[:, :m], np.zeros((count, m))), axis=1)
    state = system(z, B, l)
    for _ in range(_TILT_STEPS):
        t, log_sf, P, grad, norm_sq = state
        finite = np.isfinite(norm_sq)
        done = finite & (
            np.abs(grad).max(axis=1) <= _TILT_TOL * (1.0 + P.max(axis=1))
        )
        x, mu = z[done, :m], z[done, m:]
        mu_star[idx[done], :m] = mu
        psi_star[idx[done]] = np.sum(log_sf[done], axis=1) + _dots(mu, 0.5 * mu - x)
        tilted[idx[done]] = True
        go = finite & ~done
        if not go.all():
            idx, z, B, l = idx[go], z[go], B[go], l[go]
            state = [arr[go] for arr in state]
            t, _, P, grad, norm_sq = state
        if not idx.size:
            break
        # the Jacobian [[B'dP B, C'], [C, 1 + dP]], C = dP B - I
        dP = (t - P) * P  # dP/dmu, in (-1, 0)
        C = dP[:, :m, None] * B[:, :m]
        C[:, free, free] -= 1.0
        J = np.zeros((idx.size, 2 * m, 2 * m))
        J[:, :m, :m] = np.matmul(B.transpose(0, 2, 1), dP[:, :, None] * B)
        J[:, :m, m:] = C.transpose(0, 2, 1)
        J[:, m:, :m] = C
        J[:, m + free, m + free] = 1.0 + dP[:, :m]
        step = np.empty_like(z)
        solved = np.ones(idx.size, dtype=bool)
        for b in range(idx.size):
            _, _, step[b], info = scipy.linalg.lapack.dgesv(J[b], -grad[b])
            solved[b] = info == 0
        state = [np.empty_like(arr) for arr in state]
        trying = np.flatnonzero(solved)  # the members still halving
        for _ in range(_TILT_HALVINGS):
            if not trying.size:
                break
            trial_z = z[trying] + step[trying]
            trial = system(trial_z, B[trying], l[trying])
            better = trial[4] < norm_sq[trying]  # never a non-finite norm
            won = trying[better]
            z[won] = trial_z[better]
            for arr, value in zip(state, trial):
                arr[won] = value[better]
            trying = trying[~better]
            step[trying] *= 0.5
        moved = solved
        moved[trying] = False
        idx, z, B, l = idx[moved], z[moved], B[moved], l[moved]
        state = [arr[moved] for arr in state]
    return mu_star, psi_star, tilted


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (count, n) stacks, each the same BLAS
    dot a 1-D ``u[b] @ v[b]`` makes."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _log_orthant_prob_samples(
    L: np.ndarray, lower: np.ndarray, w: np.ndarray, mu: np.ndarray
):
    """Per-sample log weights of P(Z >= lower), Z ~ N(0, L L'), each
    conditional standard normal drawn from N(mu_i, 1) truncated to its
    bound.  A zero mu_i is the untilted draw, bit for bit."""
    dim = L.shape[0]
    n_pts = w.shape[0]
    logf = np.zeros(n_pts)
    y = np.zeros((n_pts, max(dim - 1, 0)))
    log_1mw = np.log1p(-w)
    for i in range(dim):
        shifted = lower[i] - y[:, :i] @ L[i, :i] if i else np.full(n_pts, lower[i])
        t = shifted / L[i, i]
        if mu[i]:
            t -= mu[i]
        log_sf = log_ndtr(-t)
        logf += log_sf
        if i < dim - 1:
            # conditional truncated-normal sample: y = Phi^-1(1 - (1-w)(1-d))
            y[:, i] = -ndtri_exp(log_1mw[:, i] + log_sf)
            if mu[i]:
                # the draw's mean and its likelihood ratio mu^2/2 - mu z
                y[:, i] += mu[i]
                logf += mu[i] * (0.5 * mu[i] - y[:, i])
    return logf


def _setups(cov: np.ndarray, lower: np.ndarray) -> list[_SamplerSetup]:
    """The sampler set-up of P(Z >= lower[b]), Z ~ N(0, cov[b]), for every
    member of a stack of one dimension, in one stacked pass."""
    L, a, means = _priority_cholesky(cov, lower)
    mu, log_bound, tilted = _minimax_tilt(L, a, means)
    return [
        _SamplerSetup(L[b], a[b], mu[b], float(log_bound[b]), bool(tilted[b]))
        for b in range(len(a))
    ]


def _setup_of(cov: np.ndarray, lower: np.ndarray) -> _SamplerSetup:
    """The sampler set-up of one probability, as a stack of one."""
    return _setups(cov[None], lower[None])[0]


def prepare(forms) -> None:
    """Set up the orthant sampler of every form in ``forms``
    (``QuadraticForm.sampler_setup``) in one stacked pass per dimension.

    Each form gets the set-up it would compute alone, bit for bit, so
    ``orthant_integral`` returns the same estimate either way; only the
    point loop is left to run.  A member whose reordered factor fails
    would fail alone too, so its ``CholeskyFailure`` propagates from here.
    """
    groups = {}
    for form in forms:
        groups.setdefault(form.dim, []).append(form)
    for group in groups.values():
        squares = [form.completed_square for form in group]
        cov = np.stack([square[2] for square in squares])
        lower = -np.stack([square[1] for square in squares])
        for form, setup in zip(group, _setups(cov, lower)):
            form.__dict__["sampler_setup"] = setup


def _log_probability(setup: _SamplerSetup, samples: int, seed: int):
    """log P(Z >= lower) for the set-up's Z ~ N(0, L L'), its relative
    standard error and the number of points used.

    ``_N_SHIFTS`` independent random shifts of one lattice; the relative
    error is the standard error of the mean of the per-shift estimates,
    each taken relative to that mean in log space, so it stays finite when
    the probability underflows.  The sampler runs at the set-up's tilt
    (mu = 0 if the tilt search failed).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    L, a, mu = setup.L, setup.lower, setup.mu
    n_w = L.shape[0] - 1
    n_pts = max(samples // _N_SHIFTS, 1)
    rng = np.random.default_rng(seed)
    shifts = rng.random((_N_SHIFTS, n_w))
    roots = _lattice_roots(n_w)
    # Whole shifts are batched up to _BATCH_POINTS points; a shift with more
    # points streams them in chunks of _BATCH_POINTS, whose log-sum-exps are
    # combined below.  A single chunk per shift (every budget up to
    # _N_SHIFTS * _BATCH_POINTS) would pass through that combination
    # unchanged, bit for bit, infinities included, so it is taken as is.
    chunk = min(n_pts, _BATCH_POINTS)
    per_batch = max(_BATCH_POINTS // n_pts, 1)
    chunk_logs = np.empty((_N_SHIFTS, -(-n_pts // chunk)))
    for start in range(0, _N_SHIFTS, per_batch):
        block = shifts[start : start + per_batch]
        for c, first in enumerate(range(0, n_pts, chunk)):
            idx = np.arange(first + 1, min(first + chunk, n_pts) + 1)
            w = (idx[:, None] * roots)[None, :, :] + block[:, None, :]
            w -= np.floor(w)  # the lattice wrap: x mod 1, exactly, for x >= 0
            w = _tent(w)
            logf = _log_orthant_prob_samples(
                L, a, w.reshape(len(block) * idx.size, n_w), mu
            )
            chunk_logs[start : start + len(block), c] = _logsumexp(
                logf.reshape(len(block), idx.size), axis=1
            )
    if chunk_logs.shape[1] == 1:
        shift_logs = chunk_logs[:, 0] - np.log(n_pts)
    else:
        shift_logs = _logsumexp(chunk_logs, axis=1) - np.log(n_pts)
    log_value = float(_logsumexp(shift_logs) - np.log(_N_SHIFTS))
    n = n_pts * _N_SHIFTS
    if not np.isfinite(log_value):
        return log_value, np.inf, n
    ratios = np.exp(shift_logs - log_value)
    rel_err = float(ratios.std(ddof=1) / np.sqrt(_N_SHIFTS))
    return log_value, rel_err, n


def log_orthant_probability(
    H, lower_shift, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> IntegralEstimate:
    """Probability P(Z >= lower_shift) for Z ~ N(0, H^-1), with a relative
    ``std_error``; ``value`` underflows to 0 below exp(-745), ``log_value``
    does not.  ``H`` and ``lower_shift`` must be finite."""
    H, lower = _checked(H, np.atleast_1d(np.asarray(lower_shift, dtype=float)))
    _, _, cov = _factor(H)
    setup = _setup_of(cov, lower)
    log_value, rel_err, n = _log_probability(setup, samples, seed)
    return IntegralEstimate(rel_err, n, log_value, setup.log_bound, setup.tilted)


def log_gaussian_integral(form: QuadraticForm) -> float:
    """log of the integral of exp(-0.5*(n'Hn - 2n'v + q)) over all of R^N.

    ``orthant_integral`` estimates the same integral over the nonnegative
    orthant as this value plus a log probability whose every sample's log
    weight is at most psi* <= 0 (at most 0 untilted, a product of tail
    probabilities); so every ``orthant_integral(form).log_value`` is at
    most this value, up to rounding.
    """
    return form.completed_square[0]


def orthant_integral(
    form: QuadraticForm, samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> IntegralEstimate:
    """Integral of exp(-0.5*(n'Hn - 2n'v + q)) over the nonnegative orthant.

    Completing the square gives a Gaussian prefactor times the orthant
    probability of N(H^-1 v, H^-1); one Cholesky factor of H yields the
    mode, log det H and H^-1.  The sampler runs from the form's
    ``sampler_setup`` (made on first use, or by ``prepare``).  The result
    is carried as ``log_value`` with a relative ``std_error``;
    ``log_bound`` is the prefactor plus psi*.
    """
    log_prefactor = form.completed_square[0]
    setup = form.sampler_setup
    log_prob, rel_err, n = _log_probability(setup, samples, seed)
    return IntegralEstimate(
        rel_err, n, float(log_prefactor + log_prob),
        float(log_prefactor + setup.log_bound), setup.tilted,
    )
