"""Model generation over discretization levels and Bayesian model ranking.

Every method walks the collocation sizes of ``DEFAULT_LADDER`` coarse to
fine in one ladder walk and differs only in its per-level fit.  On each
level the unregularized fit decides, together with the data norm, which
residual targets from the safety-factor grid are attainable; each one
yields a reconstruction whose parameter the discrepancy principle sets
(``tikhonov_qp``).  Each ridge curve of the level roots all of its open
targets in one call, and each target's search starts from the passive set
where the previous one ended.  Candidates from at most ``DEFAULT_MAX_DISC``
levels are ranked by their evidence, the orthant integral of one quadratic
form each (``_statistical_system``).

What every method computes on a level for a measurement is computed once,
on first use, in the level's one state (``_LevelState``), which the forward
model, a ``KernelFamily``, keeps for its latest measurement
(``KernelFamily.level``): the weighted data, every fraction's least-squares
bound and, per fraction, a ``_LevelFit`` (the weighted kernel matrix, the
admission NNLS residual, the least-squares fit and, per regularizer kind,
the discrepancy-search state with its ridge curves).  Every method run on
the family reuses it, and it is freed with the family.

A level can open a target only if its unregularized residual lies below the
walk's largest target, max(tau) * N_l * delta^2.  No nonnegative or
least-squares residual lies below the least-squares bound ||r - Q Q'r||^2
(``_least_squares_bounds``, one Householder QR of [K | r]), so the ladder
walk (``_walk_ladder``), the one place a level is settled, first compares
the level's smallest bound with that target times 1 + ``_PRECHECK_MARGIN``
(``_admission_limit``).  A settled level opens no target: no fit of it is
computed and its weighted kernel matrix is never formed (the bound weights
[K | r] in a block of its own).  Any other level is fitted as before, so
every candidate stays the same.

Fits: constrained (nonnegative fit, constrained Tikhonov, whose search
starts on the level's ridge curve, goes on to passive-set ridge curves and
bisects its log-gamma bracket where no curve has a root in it) and its
single-factor "morozov" variant; unconstrained (least squares, then the
level's ridge curve, whose eigendecomposition also gives the Gaussian
evidence in closed form: one stacked pass per level roots, fits, certifies
and scores every open target at once, with the bits of one target at a
time); and BIC, which admits a level by the nonnegative fit and scores its
least-squares fit.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import operator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import scipy.linalg

from .discretization import KernelMatrix
from .errors import (
    AeroinvError,
    BracketFailure,
    EmptyCandidates,
    NoModels,
    TargetOutOfRange,
)
from .orthant_mvn import (
    DEFAULT_SAMPLES,
    IntegralEstimate,
    QuadraticForm,
    log_gaussian_integral,
    log_orthant_probability,
    orthant_integral,
    prepare,
)
from .tikhonov_qp import (
    Regularizer,
    SearchState,
    _row_dots,
    solve_discrepancy,
    solve_nnls,
)

__all__ = [
    "Regularizer",
    "Measurement",
    "NoiseScaling",
    "ModelCandidate",
    "LogEvidence",
    "REGULARIZER_KINDS",
    "DEFAULT_TAU_GRID",
    "MOROZOV_TAU",
    "DEFAULT_LADDER",
    "build_regularizer",
    "generate_models",
    "prior_normalizer",
    "log_marginal_likelihood",
    "select_models",
    "top_within_noise",
    "invert_constrained",
    "invert_morozov",
    "invert_unconstrained",
    "bic_select",
]

REGULARIZER_KINDS = ("tikhonov", "first_diff", "twomey")
DEFAULT_TAU_GRID = tuple(np.round(np.arange(0.6, 1.71, 0.1), 10))
MOROZOV_TAU = 1.1
DEFAULT_LADDER = tuple(range(3, 51))
DEFAULT_MAX_DISC = 3
LOW_NOISE_DELTA_SQ = 1e-10
# Budget and seed of the one-off prior orthant probability per (kind, N).
_PRIOR_SAMPLES = 100_000
_PRIOR_SEED = 0
# Package resource holding those estimates for twomey, N = 1..48.
_TWOMEY_PRIOR_TABLE = "tables/twomey_prior.csv"
# The ranking screen: a candidate whose log-evidence bound lies more than
# _SCREEN_NATS below the best full-budget log evidence gets
# 1/_SCREEN_DIVISOR of the sample budget.
_SCREEN_NATS = 10.0
_SCREEN_DIVISOR = 5
# Relative slack on a walk's largest target when the least-squares bound
# settles a level.  The bound and the residuals it bounds are rounded, and
# the two-component pre-check's cold NNLS may stop at another point than the
# scan's warm-started one within the solver's dual tolerance (1e-10 of
# max |K'r|); both move a residual by far less than 1e-6 of the target, so a
# settled level has no residual below the target.
_PRECHECK_MARGIN = 1e-6


@functools.lru_cache(maxsize=None)
def build_regularizer(kind: str, N: int) -> Regularizer:
    """The regularizer stencil of the given kind and dimension, factored
    (cached: one read-only instance per kind and dimension)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if kind == "tikhonov":
        R = np.eye(N)
    elif kind == "first_diff":
        # forward differences of the zero-padded weight vector
        H = np.zeros((N + 1, N))
        H[np.arange(N), np.arange(N)] = -1.0
        H[np.arange(1, N + 1), np.arange(N)] += 1.0
        R = H.T @ H
    elif kind == "twomey":
        H = 2.0 * np.eye(N)
        H[np.arange(N - 1), np.arange(1, N)] = -1.0
        H[np.arange(1, N), np.arange(N - 1)] = -1.0
        R = H.T @ H
    else:
        raise ValueError(f"unknown regularizer kind {kind!r}")
    return Regularizer(R, kind)


@dataclass(frozen=True)
class Measurement:
    """Per-wavelength sample means and variances of repeated extinctions."""

    wavelengths: np.ndarray
    mean_extinction: np.ndarray
    variance: np.ndarray
    repeats: int = 1
    # ``NoiseScaling.from_measurement(self)``: the noise scaling the
    # measurement fixes, made once on construction and shared by every
    # method that reads it
    scaling: NoiseScaling = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.wavelengths, dtype=float)
        m = np.asarray(self.mean_extinction, dtype=float)
        v = np.asarray(self.variance, dtype=float)
        if not (w.shape == m.shape == v.shape) or w.ndim != 1:
            raise ValueError("wavelengths, means, variances must be 1-D, equal length")
        if not all(np.all(np.isfinite(a)) for a in (w, m, v)):
            raise ValueError("wavelengths, means and variances must be finite")
        if np.any(np.diff(w) <= 0.0):
            raise ValueError("wavelengths must be strictly increasing")
        if np.any(v <= 0.0):
            raise ValueError("variances must be positive")
        try:
            repeats = operator.index(self.repeats)
        except TypeError:
            repeats = 0
        if repeats < 1:
            raise ValueError(f"repeats must be an integer >= 1, got {self.repeats!r}")
        for arr in (w, m, v):
            arr.setflags(write=False)
        object.__setattr__(self, "wavelengths", w)
        object.__setattr__(self, "mean_extinction", m)
        object.__setattr__(self, "variance", v)
        object.__setattr__(self, "repeats", repeats)
        scaling = NoiseScaling.from_measurement(self)
        # every level's weighted data r = m * weights has this norm; no fit
        # or residual of a level can be formed once it overflows (or once a
        # variance of the mean underflows to 0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            r = m * scaling.normalized_weights
            if not np.isfinite((r**2).sum()):
                raise ValueError("the weighted data norm of the means is not finite")
        object.__setattr__(self, "scaling", scaling)

    @property
    def n_wavelengths(self) -> int:
        return self.wavelengths.size

    @functools.cached_property
    def log_likelihood_normalizer(self) -> float:
        """log of the Gaussian likelihood's normalizing constant, computed
        on first use."""
        return 0.5 * self.n_wavelengths * np.log(2.0 * np.pi) + 0.5 * float(
            np.sum(np.log(self.scaling.obs_variance))
        )


@dataclass(frozen=True)
class NoiseScaling:
    """Observation covariance split into a level delta^2 and a normalized shape.

    The observed extinction vector is the sample mean of the repeated draws,
    so its per-wavelength variance is the sample variance divided by the
    repeat count; delta^2 is the largest of these.
    """

    delta_sq: float
    sigma_normalized: np.ndarray
    obs_variance: np.ndarray

    @classmethod
    def from_measurement(cls, meas: Measurement) -> "NoiseScaling":
        obs_variance = meas.variance / meas.repeats
        delta_sq = float(obs_variance.max())
        return cls(delta_sq, obs_variance / delta_sq, obs_variance)

    @property
    def normalized_weights(self) -> np.ndarray:
        """Row weights applying the inverse square root of the normalized
        covariance."""
        return 1.0 / np.sqrt(self.sigma_normalized)


@dataclass(frozen=True)
class ModelCandidate:
    """One regularized reconstruction plus everything needed to score it."""

    weights: np.ndarray
    kernel: KernelMatrix
    regularizer: Regularizer
    gamma: float
    tau: float | None
    residual_sq: float
    log_marginal: float | None = None
    posterior: float | None = None
    fraction: float | None = None
    log_marginal_se: float | None = None
    log_marginal_samples: int | None = None
    log_marginal_tilted: bool | None = None

    @property
    def dim(self) -> int:
        return self.kernel.interior_dim


def _least_squares_bounds(stacked: np.ndarray, w: np.ndarray, r: np.ndarray):
    """Least-squares residual of each weighted system (``stacked[i] *
    w[:, None]``, r): a lower bound on its nonnegative and least-squares
    residuals.

    One LAPACK Householder QR (``dgeqrf``) of each weighted [K | r], N_l x
    (N + 1), leaves |R[N, N]| = ||r - Q Q'r||, Q the first N Householder
    columns, which is never formed.  Range K lies in span Q even when K is
    rank-deficient, so no least-squares or nonnegative residual of the
    system lies below R[N, N]^2 (Lawson & Hanson 1974, ch. 23).  With
    N >= N_l the bound is 0.  The systems are weighted one at a time into
    one block, so a stack of one costs one product and one ``dgeqrf``.
    """
    count, n_l, N = stacked.shape
    bounds = np.zeros(count)
    if N >= n_l:
        return bounds
    # a C-ordered (N + 1, N_l) block is the column-major [K | r] that
    # dgeqrf factors in place
    block = np.empty((N + 1, n_l))
    for i, K in enumerate(stacked):
        np.multiply(K.T, w, out=block[:N])
        block[N] = r
        qr, _, _, info = scipy.linalg.lapack.dgeqrf(block.T, overwrite_a=True)
        if info != 0:
            raise AeroinvError(f"Householder QR failed (dgeqrf info {info})")
        bounds[i] = qr[N, N] ** 2
    return bounds


def _admission_limit(meas: Measurement, tau_grid) -> float:
    """The largest target of ``tau_grid``, max(tau) * N_l * delta^2, times
    1 + ``_PRECHECK_MARGIN``: a level whose least-squares bound reaches it
    opens no target of the grid."""
    top = max(tau_grid, default=0.0) * meas.n_wavelengths * meas.scaling.delta_sq
    return top * (1.0 + _PRECHECK_MARGIN)


class _LevelFit:
    """The fits of one fraction's system on a level, each made on first use.
    A discrepancy-search state (``tikhonov_qp.SearchState``) holds the ridge
    curve of every passive set its searches met, each with its table of
    roots; the all-free curve is the one the unconstrained fit and its
    evidence read.  Every pass opens with ``SearchState.begin``, so a
    neighbour start serves one pass only.  A fit holds the level's weighted
    data and weights, not the level.  All arrays are read-only."""

    def __init__(self, entries: np.ndarray, w: np.ndarray, r: np.ndarray):
        self._entries, self._w, self.r = entries, w, r
        self._searches = {}  # regularizer kind -> SearchState

    @functools.cached_property
    def K(self) -> np.ndarray:
        """The weighted kernel matrix, formed on first use: a level its
        least-squares bound settles never forms it."""
        K = self._entries * self._w[:, None]
        K.setflags(write=False)
        return K

    @functools.cached_property
    def nnls_residual(self) -> float:
        """Residual of the unregularized nonnegative fit, solved cold."""
        return solve_nnls(self.K, self.r).residual_sq

    @functools.cached_property
    def lstsq(self):
        """The unconstrained least-squares fit and its residual."""
        ls = np.linalg.lstsq(self.K, self.r, rcond=None)[0]
        ls.setflags(write=False)
        d = self.K @ ls - self.r
        return ls, float(d @ d)

    def search(self, kind: str) -> SearchState:
        """The discrepancy-search state under the ``kind`` regularizer, made
        on first use per kind."""
        if kind not in self._searches:
            reg = build_regularizer(kind, self.K.shape[1])
            self._searches[kind] = SearchState(self.K, self.r, reg)
        return self._searches[kind]


class _LevelState:
    """One ladder level of a family for one measurement: the stacked
    matrices (fractions, N_l, N), the weighted data r, its norm, delta^2,
    every fraction's least-squares bound (``bounds``) and the smallest of
    them (``bound``, not a number if any bound is not); on first use a
    ``_LevelFit`` per fraction index and, for a mixture, the fraction scan
    (``two_component.FractionScan``).  It holds no reference to its family
    and its fits none to it, so a dropped family is freed without a
    collection."""

    def __init__(self, n_col: int, stacked: np.ndarray, meas: Measurement):
        self.n_col, self.stacked = n_col, stacked
        self.w = meas.scaling.normalized_weights
        self.delta_sq = meas.scaling.delta_sq
        self.r = meas.mean_extinction * self.w
        self.r.setflags(write=False)
        self.data_norm_sq = float((self.r**2).sum())
        self.bounds = _least_squares_bounds(stacked, self.w, self.r)
        self.bounds.setflags(write=False)
        self.bound = float(self.bounds.min())
        self.scan = None
        self._fits = {}  # fraction index -> _LevelFit

    def fit(self, i: int) -> _LevelFit:
        """The fits of fraction ``i``'s system, made on first use."""
        if i not in self._fits:
            self._fits[i] = _LevelFit(self.stacked[i], self.w, self.r)
        return self._fits[i]

    def open_targets(self, base_res: float, tau_grid):
        """(tau, target) pairs whose residual target tau * N_l * delta^2
        lies strictly between the unregularized residual ``base_res`` and
        the data norm."""
        n_l = self.r.size
        targets = [(float(tau), tau * n_l * self.delta_sq) for tau in tau_grid]
        return [(tau, t) for tau, t in targets if base_res < t < self.data_norm_sq]


def _level_candidates(level, i, kernel, tau_grid, reg_kind, base_res):
    """Constrained candidates for fraction ``i`` of ``level``, whose matrix
    is ``kernel`` (empty if none admissible).

    ``base_res`` is the system's unregularized residual, which decides the
    admissible targets.  One pass of its search state (``_LevelFit.search``)
    is opened over them, so each ridge curve roots them all in one call and
    each search after the first starts from the positive set of the last one
    that returned; ``solve_discrepancy`` fits each target, in ascending
    order, on the weighted system.
    """
    targets = level.open_targets(base_res, tau_grid)
    if not targets:
        return []
    search = level.fit(i).search(reg_kind)
    search.begin(t for _, t in targets)
    fits = []
    for tau, target in targets:
        try:
            gamma, sol = solve_discrepancy(
                search.K, search.r, search.reg, target, base_res, state=search
            )
        except (TargetOutOfRange, BracketFailure):
            continue
        fits.append((tau, gamma, sol.n, sol.residual_sq))
    return _candidates(kernel, search.reg, fits)


def _candidates(kernel, reg, fits):
    """A candidate on the level ``kernel`` under ``reg`` for each ``(tau,
    gamma, weights, residual_sq)`` of ``fits``."""
    return [
        ModelCandidate(
            weights=weights,
            kernel=kernel,
            regularizer=reg,
            gamma=gamma,
            tau=tau,
            residual_sq=res,
            fraction=kernel.fraction_label,
        )
        for tau, gamma, weights, res in fits
    ]


def _walk_ladder(meas, family, tau_grid, fit_level, max_levels):
    """Visit the ``DEFAULT_LADDER`` levels of ``family`` coarse to fine,
    collecting the list ``fit_level(level, kernel, limit)`` returns for the
    state ``family.level(meas, n_col)`` and matrix ``family(n_col)`` of
    each level that is not settled.

    This is the one place a level is settled: when its smallest
    least-squares bound reaches ``limit`` (``_admission_limit`` of
    ``tau_grid``), no residual of it lies below any target; a bound that is
    not a number leaves the level open.  Levels whose model dimension
    exceeds the number of wavelengths are not visited.  Stops after
    ``max_levels`` levels gave results; raises NoModels if none did.
    """
    limit = _admission_limit(meas, tau_grid)
    found = []
    filled_levels = 0
    for n_col in DEFAULT_LADDER:
        if n_col - 2 > meas.n_wavelengths:
            break
        kernel = family(n_col)
        level = family.level(meas, n_col)
        if level.bound >= limit:
            continue
        fitted = fit_level(level, kernel, limit)
        if fitted:
            found.extend(fitted)
            filled_levels += 1
            if filled_levels >= max_levels:
                break
    if not found:
        raise NoModels("no admissible (level, tau) combination fits the data")
    return found


def generate_models(
    meas: Measurement,
    kernel_builder,
    tau_grid=DEFAULT_TAU_GRID,
    reg_kind: str = "tikhonov",
    max_disc: int = DEFAULT_MAX_DISC,
) -> list[ModelCandidate]:
    """Walk the discretization ladder coarse-to-fine collecting candidates.

    ``kernel_builder`` is the forward model, a ``KernelFamily``:
    ``kernel_builder(n_col)`` is the KernelMatrix for a collocation size,
    and its level states (``KernelFamily.level``) let the methods run on one
    family for one measurement fit each level once.  A settled level gets
    no NNLS solve.  Stops after ``max_disc`` levels produced candidates;
    raises NoModels if none did.
    """

    def fit_level(level, kernel, limit):
        base_res = level.fit(0).nnls_residual
        return _level_candidates(level, 0, kernel, tau_grid, reg_kind, base_res)

    return _walk_ladder(meas, kernel_builder, tau_grid, fit_level, max_disc)


def _statistical_system(candidate, meas) -> QuadraticForm:
    """The candidate's evidence form: the log of its orthant integral is the
    log evidence, and the log of its integral over all of R^N
    (``log_gaussian_integral``) bounds every estimate of it from above.

    Statistics run on the unnormalized covariance, so the regularizer stored
    with the normalized-problem parameter is rescaled by 1/delta^2 here: the
    prior precision is ``scale * R``.  The likelihood's normalizer b and the
    prior's Z_prior divide the integral, so q = e'e + 2 (log b + log
    Z_prior).
    """
    scaling = meas.scaling
    var = scaling.obs_variance
    K_stat = candidate.kernel.entries / np.sqrt(var)[:, None]
    e_stat = meas.mean_extinction / np.sqrt(var)
    scale = candidate.gamma / scaling.delta_sq
    R_stat = scale * candidate.regularizer.matrix
    log_prior_norm = prior_normalizer(candidate.regularizer, scale).log_value
    q = float(e_stat @ e_stat) + 2.0 * (meas.log_likelihood_normalizer + log_prior_norm)
    return QuadraticForm(K_stat.T @ K_stat + R_stat, K_stat.T @ e_stat, q)


def _estimate_log_prior_orthant_probability(kind: str, N: int):
    """The orthant estimator's log P(Z >= 0) for Z ~ N(0, R^-1), R the
    (kind, N) regularizer, at the fixed prior budget and seed, which makes
    the value independent of which caller asks for it: ``(log_value,
    std_error, samples)``.  The shipped ``twomey`` table holds exactly these
    values (``tools/twomey_prior_table.py`` writes it)."""
    est = log_orthant_probability(
        build_regularizer(kind, N).matrix, np.zeros(N), _PRIOR_SAMPLES, _PRIOR_SEED
    )
    return est.log_value, est.std_error, est.samples


@functools.cache
def _twomey_prior_table() -> dict[int, tuple[float, float, int]]:
    """N -> (log P0, std_error, samples) from the shipped ``twomey`` table,
    read on first use."""
    ref = resources.files("aeroinv").joinpath(_TWOMEY_PRIOR_TABLE)
    with ref.open(newline="") as fh:
        return {
            int(row["N"]): (
                float(row["log_p0"]), float(row["std_error"]), int(row["samples"])
            )
            for row in csv.DictReader(fh)
        }


@functools.lru_cache(maxsize=None)
def _log_prior_orthant_probability(kind: str, N: int) -> tuple[float, float, int]:
    """log P(Z >= 0) for Z ~ N(0, R^-1), R the (kind, N) regularizer, with
    its relative standard error and sample count.

    The probability does not depend on the scale of R, so it is computed
    once per (kind, N).  It is exact for two kinds: 2^-N for the diagonal
    ``tikhonov`` stencil, and 1/(N+1) for ``first_diff``, whose R = D'D (D
    the zero-padded forward difference) is the precision of a Gaussian
    random-walk bridge pinned at 0 at both ends; its N+1 increments are
    exchangeable, so by the cycle lemma exactly one of their N+1 cyclic
    shifts keeps every partial sum positive (Spitzer 1956, Trans. AMS 82,
    323).  ``twomey`` has no closed form: N = 1..48 come from the shipped
    table of orthant estimates, and any other N runs the same estimator
    once (``_estimate_log_prior_orthant_probability``).
    """
    if kind == "tikhonov":
        return -N * np.log(2.0), 0.0, 0
    if kind == "first_diff":
        return -np.log(N + 1.0), 0.0, 0
    if kind == "twomey" and N in _twomey_prior_table():
        return _twomey_prior_table()[N]
    return _estimate_log_prior_orthant_probability(kind, N)


def prior_normalizer(regularizer: Regularizer, scale: float) -> IntegralEstimate:
    """Integral of exp(-0.5 n' (scale R) n) over the nonnegative orthant.

    The Gaussian part, (2 pi)^(N/2) det(scale R)^(-1/2), is closed form with
    log det R from the stored Cholesky factor; the orthant probability is
    cached per (kind, N).  ``std_error`` is relative, as for
    ``orthant_integral``.
    """
    N = regularizer.matrix.shape[0]
    log_p0, rel_err, samples = _log_prior_orthant_probability(regularizer.kind, N)
    logdet = N * np.log(scale) + 2.0 * float(
        np.sum(np.log(np.diag(regularizer.cholesky)))
    )
    log_value = 0.5 * (N * np.log(2.0 * np.pi) - logdet) + log_p0
    return IntegralEstimate(rel_err, samples, log_value)


class LogEvidence(float):
    """A log marginal likelihood carrying the standard error of its Monte
    Carlo estimate in ``std_error``, its number of QMC points in
    ``samples`` and whether its sampler ran with the minimax tilt in
    ``tilted``."""

    def __new__(cls, value: float, std_error: float, samples: int, tilted: bool):
        self = super().__new__(cls, value)
        self.std_error = float(std_error)
        self.samples = int(samples)
        self.tilted = bool(tilted)
        return self


def _log_evidence(form: QuadraticForm, samples: int, seed: int) -> LogEvidence:
    """One QMC orthant integral of the evidence form; its relative error
    (the standard error of its log) is the returned ``std_error``."""
    est = orthant_integral(form, samples, seed)
    return LogEvidence(est.log_value, est.std_error, est.samples, est.tilted)


def log_marginal_likelihood(
    candidate: ModelCandidate,
    meas: Measurement,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> LogEvidence:
    """Log evidence of one candidate under its truncated-Gaussian prior."""
    return _log_evidence(_statistical_system(candidate, meas), samples, seed)


def _rank(candidates, log_marginals):
    """Posterior-sorted copies; a ``LogEvidence`` also sets ``log_marginal_se``,
    ``log_marginal_samples`` and ``log_marginal_tilted``."""
    values = np.asarray(log_marginals, dtype=float)
    post = np.exp(values - values.max())
    post /= post.sum()
    enriched = [
        dataclasses.replace(
            c,
            log_marginal=float(lm),
            posterior=float(p),
            log_marginal_se=getattr(lm, "std_error", None),
            log_marginal_samples=getattr(lm, "samples", None),
            log_marginal_tilted=getattr(lm, "tilted", None),
        )
        for c, lm, p in zip(candidates, log_marginals, post)
    ]
    enriched.sort(
        key=lambda c: (-c.posterior, c.dim, c.tau if c.tau is not None else 0.0)
    )
    return enriched


def top_within_noise(ranked) -> bool | None:
    """Whether the top candidate's log-evidence lead over the runner-up is
    at most two combined standard errors, 2 sqrt(se_1^2 + se_2^2), so that
    the Monte Carlo noise could have swapped them.  None with fewer than two
    candidates or when either standard error is unknown.  The ranking is
    not changed.
    """
    if len(ranked) < 2:
        return None
    first, second = ranked[0], ranked[1]
    if first.log_marginal_se is None or second.log_marginal_se is None:
        return None
    lead = first.log_marginal - second.log_marginal
    noise = np.hypot(first.log_marginal_se, second.log_marginal_se)
    return bool(lead <= 2.0 * noise)


def select_models(
    candidates,
    meas: Measurement,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[ModelCandidate]:
    """Rank candidates by posterior probability under a uniform model prior.

    Each candidate's evidence form (``_statistical_system``) is built once
    and serves both its bound, the log of its integral over all of R^N
    (``log_gaussian_integral``), and its estimate, which share one Cholesky
    factor.  The samplers of candidates of one dimension are set up
    together (``orthant_mvn.prepare``), which changes no estimate; each
    estimate then runs only its points.  A candidate whose reordered factor
    fails raises ``CholeskyFailure`` there, before any integral runs.
    Candidates are visited in descending bound (a stable sort, so ties keep
    their order).  One whose bound lies more than ``_SCREEN_NATS`` below
    the largest full-budget log evidence so far is screened: its estimate
    gets ``samples // _SCREEN_DIVISOR`` points.  Every other candidate gets
    ``samples`` points, the same call with the same arguments as without
    the screen.  Since every estimate is at most its bound, a screened
    candidate never ranks first and its posterior is below
    exp(-_SCREEN_NATS) of the top's.
    """
    if not candidates:
        raise EmptyCandidates("no candidates to select from")
    forms = [_statistical_system(c, meas) for c in candidates]
    bounds = [log_gaussian_integral(form) for form in forms]
    prepare(forms)
    log_marginals = [None] * len(candidates)
    best = -np.inf
    for i in sorted(range(len(candidates)), key=lambda i: -bounds[i]):
        screened = bounds[i] < best - _SCREEN_NATS
        budget = max(samples // _SCREEN_DIVISOR, 1) if screened else samples
        log_marginals[i] = _log_evidence(forms[i], budget, seed)
        if not screened:
            best = max(best, log_marginals[i])
    return _rank(candidates, log_marginals)


def is_low_noise(meas: Measurement) -> bool:
    """Whether the measurement is nearly noise-free, delta^2 below
    ``LOW_NOISE_DELTA_SQ``: there the statistical computations degenerate,
    and ``invert_constrained`` returns Morozov's candidate instead."""
    return meas.scaling.delta_sq < LOW_NOISE_DELTA_SQ


def invert_constrained(
    meas: Measurement,
    kernel_builder,
    tau_grid=DEFAULT_TAU_GRID,
    reg_kind: str = "tikhonov",
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> list[ModelCandidate]:
    """Full constrained pipeline: generate candidates, rank them.

    For nearly noise-free data (``is_low_noise``) the Bayesian ranking is
    skipped in favor of the coarsest admissible model at the classical
    safety factor.
    """
    if is_low_noise(meas):
        return invert_morozov(meas, kernel_builder, reg_kind)
    candidates = generate_models(meas, kernel_builder, tau_grid, reg_kind)
    return select_models(candidates, meas, samples, seed)


def invert_morozov(
    meas: Measurement,
    kernel_builder,
    reg_kind: str = "tikhonov",
) -> list[ModelCandidate]:
    """Single-factor variant: tau = 1.1, coarsest admissible level only."""
    candidates = generate_models(
        meas, kernel_builder, (MOROZOV_TAU,), reg_kind, max_disc=1
    )
    return [dataclasses.replace(candidates[0], posterior=1.0)]


def _log_evidence_unconstrained(curve, gamma, residual_sq, meas):
    """Closed-form Gaussian evidence (no orthant restriction) of the ridge
    solutions at ``gamma`` (one or an array) with residuals ``residual_sq``
    on the level's all-free ``curve``.

    On the weighted system the statistical precision is
    (K'K + gamma R) / delta^2, so the ridge curve diagonalizes it: with y
    its coefficients at gamma, the misfit is (residual + gamma y'y) /
    delta^2, and the prior-to-posterior determinant ratio is
    prod gamma / (lam + gamma), summed as logs along each row; det V
    cancels.
    """
    y = curve.coefficients(gamma)
    misfit = (residual_sq + gamma * _row_dots(y)) / meas.scaling.delta_sq
    log_ratios = np.log1p(curve.eigenvalues / np.asarray(gamma)[..., None])
    log_det_ratio = -log_ratios.sum(axis=-1)
    return -0.5 * misfit + 0.5 * log_det_ratio - meas.log_likelihood_normalizer


def invert_unconstrained(
    meas: Measurement,
    kernel_builder,
    tau_grid=DEFAULT_TAU_GRID,
    reg_kind: str = "tikhonov",
) -> list[ModelCandidate]:
    """Same pipeline with the constraints dropped and analytic evidence,
    over at most ``DEFAULT_MAX_DISC`` levels.  A level its least-squares
    bound settles gets no least-squares fit.

    Each level is one stacked pass on its all-free ridge curve: one
    ``roots`` call for its open targets, then the weights, certificates and
    evidence of every rooted target at once.  A target with no root is
    skipped; the first root, in tau order, that fails its certificate
    raises RootFailure.
    """

    def fit_level(level, kernel, limit):
        fit = level.fit(0)
        opened = level.open_targets(fit.lstsq[1], tau_grid)
        if not opened:
            return []
        search = fit.search(reg_kind)
        targets = [t for _, t in opened]
        search.begin(targets)
        curve, roots = search.roots(None, targets)
        rooted = np.isfinite(roots)
        if not rooted.any():
            return []
        gamma, weights, res = curve.discrepancy(
            np.array(targets)[rooted], roots[rooted]
        )
        log_marginals = _log_evidence_unconstrained(curve, gamma, res, meas)
        taus = [tau for (tau, _), ok in zip(opened, rooted) if ok]
        fitted = zip(taus, gamma.tolist(), weights, res.tolist())
        return list(zip(_candidates(kernel, search.reg, fitted), log_marginals.tolist()))

    scored = _walk_ladder(meas, kernel_builder, tau_grid, fit_level, DEFAULT_MAX_DISC)
    return _rank([c for c, _ in scored], [lm for _, lm in scored])


def bic_select(
    meas: Measurement,
    kernel_builder,
    tau_grid=DEFAULT_TAU_GRID,
):
    """Score the coarsest admissible levels by the information criterion.

    Admissibility reuses the constrained residual window of the model
    generation step; the scored fit per level is the unconstrained
    maximum-likelihood solution.  Like the other methods it scores at most
    ``DEFAULT_MAX_DISC`` levels.  A level its least-squares bound settles
    gets neither fit.  Returns ``(candidate, score)`` with ties resolved
    toward the smaller dimension.
    """
    n_l = meas.n_wavelengths
    log_norm_const = 2.0 * meas.log_likelihood_normalizer

    def fit_level(level, kernel, limit):
        fit = level.fit(0)
        if not level.open_targets(fit.nnls_residual, tau_grid):
            return []
        ls, res = fit.lstsq
        dim = kernel.interior_dim
        score = log_norm_const + res / level.delta_sq + dim * np.log(n_l)
        return [(float(score), dim, ls, res, kernel)]

    scored = _walk_ladder(meas, kernel_builder, tau_grid, fit_level, DEFAULT_MAX_DISC)
    score, _, ls, res, kernel = min(scored, key=lambda t: (t[0], t[1]))
    candidate = ModelCandidate(
        weights=ls,
        kernel=kernel,
        regularizer=build_regularizer("tikhonov", kernel.interior_dim),
        gamma=0.0,
        tau=None,
        residual_sq=res,
        posterior=1.0,
    )
    return candidate, float(score)
