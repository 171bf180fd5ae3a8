"""Nonnegativity-constrained Tikhonov solvers and the discrepancy search.

All solvers operate on pre-weighted inputs: the caller applies the inverse
noise scaling to both the kernel matrix and the data before calling in, and
is responsible for any back-scaling of the regularization parameter used in
statistical computations.

The generalized problem  min 0.5*||K n - r||^2 + 0.5*gamma*n'Rn  s.t. n >= 0
is a nonnegative least-squares problem on the Gram form G = K'K + gamma*U'U,
c = K'r, with R = U'U.  A ``Regularizer`` holds R with U, U^-1 and the Gram
U'U, computed once when it is built, and every solver takes one in place
of R; a gamma > 0 solve adds gamma * U'U to K'K.  One
Lawson-Hanson active-set loop (Lawson & Hanson 1974, Solving Least Squares
Problems, ch. 23) solves it, entered with a caller's passive set or else
with that of scipy's compiled NNLS on (K, r).  It returns n as a fresh solve
on its final passive set once no dual is violated, so its KKT check is the
one certificate of a constrained solution; for gamma > 0 the minimizer is
unique, and the start changes the loop's path, not its answer.

With the constraints dropped (or at a fixed set of free variables) the
solution is a ridge solution.  A ``RidgeCurve`` holds one generalized
eigendecomposition K'K V = R V diag(lam), V'RV = I (Hansen 1998,
Rank-Deficient and Discrete Ill-Posed Problems, ch. 2), after which
n(gamma) = V z / (lam + gamma), z = V'K'r, and its residual cost
O(N * N_lambda) per gamma.  It is computed in standard form, from the
singular values and singular vectors of K U^-1, so that K'K is never
formed and the small eigenvalues keep their accuracy; the left singular
vectors also give the residual in closed form (the secular equation).
The SVD (``gesvd``) and the Cholesky factor of R (``potrf``) are LAPACK
called directly: the routines scipy's wrappers resolve, with the same
workspace and the same check that the input is finite, so the factors are
the wrappers' bit for bit without their per-call overhead, which on these
small systems costs as much as the work.  A LAPACK failure raises a typed
error.  ``evaluate`` and ``discrepancy`` take a stack of gamma as well as
one: the coefficients of every gamma form the rows of one array, and n,
K n - r and the residuals come from one stacked ``np.matmul`` each, whose
per-row products are the BLAS calls of a single gamma, so a stack equals
its rows evaluated alone bit for bit; a single gamma runs the same code
with no stack axis.

The discrepancy principle picks gamma so that the residual equals a target.
The residual increases strictly with gamma.  On a ridge curve every target
of a level is solved at once: the closed-form residual (and nothing else)
on a fixed grid of log gamma brackets each root, and a vectorized,
safeguarded Newton iteration on log gamma finishes inside the bracket.  The
unconstrained fit recomputes the residual from n at its roots, all in one
stacked evaluation, and each must meet its target within
``_DISCREPANCY_RTOL``: a target the grid cannot bracket raises
BracketFailure, and a root that fails this certificate RootFailure.  The
grid spans the whole gamma range of the constrained search, so no other
bracket finds more.

The constrained fit keeps a bracket on log10 gamma, from 1e-30 to 1e12, and
a passive set P, starting with every variable free.  Each step has one
rule.  The trial gamma is the root of P's ridge curve if that root lies
strictly inside the bracket, and the bracket's log-midpoint otherwise: a
gamma outside the bracket cannot meet the target, since the residual rises
with gamma.  The trial is solved by the active-set loop entered with P, and
its residual moves one end of the bracket; its solution's positive set is
the next P.  A search that meets no target within ``_SEARCH_STEPS`` steps
raises BracketFailure if an end of the bracket never moved and RootFailure
otherwise.  The ridge curve of a passive set P depends only on (K[:, P], r,
R_PP), not on the target, so the searches of several targets on one system
share a ``SearchState``: it builds each P's curve once, and that curve
roots every target of the pass in one ``RidgeCurve.roots`` call, whose
roots equal single-target ones bit for bit.  Within a pass, each search
starts from the positive set of the previous search that returned
(neighbouring targets tend to share it) instead of the all-free set, and
``begin`` opens the next pass with no start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    AeroinvError,
    BracketFailure,
    IllConditioned,
    MaxIterations,
    RootFailure,
    TargetOutOfRange,
)

__all__ = [
    "Regularizer",
    "QpSolution",
    "RidgeCurve",
    "SearchState",
    "solve_constrained_tikhonov",
    "solve_nnls",
    "solve_discrepancy",
]

# decade exponents bounding the discrepancy search on log10 gamma
_LOG_GAMMA_FLOOR = -30
_LOG_GAMMA_CEILING = 12
_DISCREPANCY_RTOL = 1e-6
# step cap of the constrained search
_SEARCH_STEPS = 100
# closed-form roots: the ln gamma grid (4 points per decade) that brackets
# them, and the Newton iteration's relative residual tolerance and step cap
_ROOT_GRID = np.log(10.0) * np.arange(
    4 * _LOG_GAMMA_FLOOR, 4 * _LOG_GAMMA_CEILING + 1
) / 4.0
_ROOT_GRID.setflags(write=False)
_ROOT_GAMMAS = np.exp(_ROOT_GRID)[:, None]  # the grid's gamma, one per row
_ROOT_GAMMAS.setflags(write=False)
_NEWTON_RTOL = 1e-2 * _DISCREPANCY_RTOL
_NEWTON_STEPS = 60


@dataclass(frozen=True)
class QpSolution:
    """KKT-certified minimizer of a nonnegativity-constrained problem, with
    the count of passive solves that fell back to least squares."""

    n: np.ndarray
    duals: np.ndarray
    residual_sq: float
    active_set: np.ndarray = field(repr=False)
    lstsq_fallbacks: int = 0

    @property
    def dim(self) -> int:
        return self.n.size


# LAPACK's SVD and Cholesky, called directly: the routines that
# scipy.linalg.svd(..., lapack_driver="gesvd") and scipy.linalg.cholesky
# resolve for float64, without their argument checks and workspace queries
_GESVD, _GESVD_LWORK = scipy.linalg.get_lapack_funcs(
    ("gesvd", "gesvd_lwork"), dtype=np.float64, ilp64="preferred"
)
(_POTRF,) = scipy.linalg.get_lapack_funcs(("potrf",), dtype=np.float64)


def _cholesky_upper(R: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of R, what ``scipy.linalg.cholesky(R)``
    returns, with its checks on R."""
    if not np.isfinite(R).all():
        raise ValueError("array must not contain infs or NaNs")
    R = np.atleast_2d(R)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(
            f"Input array is expected to be square but has the shape: {R.shape}."
        )
    U, info = _POTRF(R, lower=0)
    if info != 0:
        raise IllConditioned("regularizer is not positive definite")
    return U


def _svd(A: np.ndarray, full_matrices: bool):
    """``scipy.linalg.svd(A, full_matrices, lapack_driver="gesvd")``: the
    same LAPACK call with the same workspace, and the same check that A is
    finite; a LAPACK failure raises AeroinvError."""
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    if A.size == 0:  # LAPACK rejects it; scipy returns the empty factors
        return scipy.linalg.svd(A, full_matrices, lapack_driver="gesvd")
    lwork = int(_GESVD_LWORK(*A.shape, compute_uv=1, full_matrices=full_matrices)[0])
    Q, s, Wt, info = _GESVD(
        A, compute_uv=1, full_matrices=full_matrices, lwork=lwork, overwrite_a=True
    )
    if info != 0:
        raise AeroinvError(f"SVD failed (dgesvd info {info})")
    return Q, s, Wt


@dataclass(frozen=True)
class Regularizer:
    """SPD regularization matrix R with its upper Cholesky factor U, U^-1
    and the Gram U'U (R up to rounding, the form every gamma > 0 solve
    adds), all read-only, computed once on construction.  ``kind`` names
    the stencil (``model_selection.build_regularizer`` shares one instance
    per kind and size); a principal block of R has none."""

    matrix: np.ndarray
    kind: str | None = None
    cholesky: np.ndarray = field(init=False, repr=False)
    cholesky_inverse: np.ndarray = field(init=False, repr=False)
    gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        R = np.asarray(self.matrix, dtype=float)
        U = _cholesky_upper(R)
        U_inv, info = scipy.linalg.lapack.dtrtri(U, lower=0)
        if info != 0:
            raise IllConditioned(
                f"regularizer factor is singular (dtrtri info {info})"
            )
        R = R.copy()  # the caller's array stays writeable
        for name, a in (
            ("matrix", R), ("cholesky", U), ("cholesky_inverse", U_inv),
            ("gram", U.T @ U),
        ):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _solve_passive(G, c, passive, fallbacks) -> np.ndarray:
    """Minimizer of 0.5 n'Gn - c'n on the passive variables, 0 elsewhere; a
    singular block falls back to least squares, counted in ``fallbacks[0]``."""
    idx = np.flatnonzero(passive)
    sub = G[idx[:, None], idx]
    try:
        s = np.linalg.solve(sub, c[idx])
    except np.linalg.LinAlgError:
        fallbacks[0] += 1
        s = np.linalg.lstsq(sub, c[idx], rcond=None)[0]
    out = np.zeros(c.size)
    out[idx] = s
    return out


def _nnls_gram(G, c, max_iter, dual_tol, init_passive, fallbacks):
    """Lawson-Hanson NNLS on the Gram form: min 0.5 n'Gn - c'n s.t. n >= 0.

    Entering index is the most negative gradient component; exact ties break
    to the lowest index (Bland-style), which with the iteration cap rules out
    cycling.  A start ``init_passive`` is the passive set the inner loop is
    entered with, from n = 0 and with no entering variable: every step length
    is then 0, so the loop drops the passive variables whose solve is
    nonpositive until the rest are positive, and goes on from there.
    Returns (n, gradient, passive mask); ``fallbacks`` (``_solve_passive``)
    keeps its count when the cap raises.
    """
    N = c.size
    n = np.zeros(N)
    banned = np.zeros(N, dtype=bool)
    passive = np.zeros(N, dtype=bool) if init_passive is None else init_passive.copy()
    entered = False
    iters = 0
    while True:
        if passive.any():  # false only for a missing or empty start
            while True:
                iters += 1
                if iters > max_iter:
                    raise MaxIterations(f"active-set iteration cap {max_iter} exceeded")
                s = _solve_passive(G, c, passive, fallbacks)
                if entered and s[j] <= 0.0:
                    # degenerate entry: the new variable came back nonpositive,
                    # so ban it for this pass instead of cycling on it
                    passive[j] = False
                    banned[j] = True
                    break
                entered = False
                neg = passive & (s <= 0.0)
                if not neg.any():
                    n = s
                    banned[:] = False
                    break
                idx = np.flatnonzero(neg)
                # a start's variables have n = 0; where s = 0 too, alpha is 0
                d = n[idx] - s[idx]
                alphas = np.divide(n[idx], d, out=np.zeros(d.size), where=d != 0.0)
                alpha = max(min(alphas.min(), 1.0), 0.0)
                n = n + alpha * (s - n)
                drop = np.zeros(N, dtype=bool)
                drop[idx[alphas <= alpha + 1e-12]] = True
                n[drop] = 0.0
                passive &= ~drop
        g = G @ n - c
        w = -g
        w[passive | banned] = -np.inf
        j = int(np.argmax(w))
        if w[j] == -np.inf or w[j] <= dual_tol:
            return n, g, passive
        passive[j] = True
        entered = True


def _dual_tol(c: np.ndarray) -> float:
    """Smallest gradient component that counts as a violated dual."""
    return 1e-10 * max(np.abs(c).max(initial=0.0), 1e-300)


def _compiled_passive_set(K: np.ndarray, r: np.ndarray):
    """Passive set of scipy's compiled Lawson-Hanson NNLS on (K, r), the
    unregularized problem, or None if it stopped at its iteration cap."""
    try:
        x, _ = scipy.optimize.nnls(K, r)
    except RuntimeError:
        return None
    return x > 0.0


def solve_constrained_tikhonov(
    K, r, reg: Regularizer | None, gamma: float,
    init_passive: np.ndarray | None = None,
) -> QpSolution:
    """Global minimizer of the constrained (generalized) Tikhonov functional
    on pre-weighted (K, r) with regularizer ``reg`` and finite gamma >= 0; a
    gamma = 0 solve needs no regularizer.

    The Gram-form loop starts from ``init_passive`` if given, otherwise from
    the passive set of the compiled NNLS on (K, r), whatever gamma is; a
    start it cannot finish within the iteration cap is dropped for a start
    from scratch.
    """
    K = np.asarray(K, dtype=float)
    r = np.asarray(r, dtype=float)
    if K.ndim != 2 or r.shape != (K.shape[0],) or (
        reg is not None and reg.matrix.shape != (K.shape[1],) * 2
    ):
        raise ValueError("inconsistent problem dimensions")
    if not np.isfinite(K).all() or not np.isfinite(r).all():
        raise ValueError("K and r must be finite")
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    if gamma > 0.0 and reg is None:
        raise ValueError("gamma > 0 needs a regularizer")
    N = K.shape[1]
    G = K.T @ K
    c = K.T @ r
    if gamma > 0.0:
        G += gamma * reg.gram
    if init_passive is None:
        init_passive = _compiled_passive_set(K, r)
    cap, dual_tol, fallbacks = 10 * max(N, 1), _dual_tol(c), [0]
    try:
        n, g, passive = _nnls_gram(G, c, cap, dual_tol, init_passive, fallbacks)
    except MaxIterations:
        if init_passive is None:
            raise
        n, g, passive = _nnls_gram(G, c, cap, dual_tol, None, fallbacks)
    duals = np.where(passive, 0.0, np.maximum(g, 0.0))
    resid = K @ n - r
    return QpSolution(
        n=n,
        duals=duals,
        residual_sq=float(resid @ resid),
        active_set=np.flatnonzero(~passive),
        lstsq_fallbacks=fallbacks[0],
    )


def solve_nnls(K, r) -> QpSolution:
    """Nonnegative least squares (the gamma = 0 subproblem)."""
    return solve_constrained_tikhonov(K, r, None, 0.0)


class RidgeCurve:
    """Minimizers of ||K n - r||^2 + gamma n'Rn over all n, for every gamma.

    The generalized eigendecomposition K'K V = R V diag(lam), V'RV = I,
    comes from the SVD K U^-1 = Q diag(s) W' with R = U'U: lam = s^2 (and 0
    past the rank) and V = U^-1 W.  Then n(gamma) = V z / (lam + gamma) with
    z = V'K'r (0 past the rank); ``evaluate(gamma)`` returns
    ``(residual_sq, n)`` with the residual computed from n.  With b = Q'r
    the residual is also closed form,
    res(gamma) = res_ls + sum (gamma / (s^2 + gamma))^2 b^2 with
    res_ls = ||r - Q b||^2, which ``roots`` solves for gamma.
    """

    def __init__(self, K: np.ndarray, r: np.ndarray, reg: Regularizer):
        U_inv = reg.cholesky_inverse
        K_std = K @ U_inv
        Q, s, Wt = _svd(K_std, full_matrices=K.shape[0] < K.shape[1])
        self.K, self.r = K, r
        self.eigenvalues = np.zeros(K.shape[1])
        self.eigenvalues[: s.size] = s**2
        self.V = U_inv @ Wt.T
        self.z = self.V.T @ (K.T @ r)
        # past the rank V spans the null space of K, so these entries are
        # rounding noise that 1 / gamma would amplify; _secular drops them
        self.z[s.size :] = 0.0
        b = Q.T @ r
        d = r - Q @ b
        self.residual_ls = float(d @ d)
        self._lam, self._b_sq = self.eigenvalues[: s.size], b**2

    def coefficients(self, gamma) -> np.ndarray:
        """y = z / (lam + gamma), the solution in the eigenbasis; y'y = n'Rn.
        An array of gamma gives one row of y per entry."""
        return self.z / (self.eigenvalues + np.asarray(gamma)[..., None])

    def evaluate(self, gamma):
        """``(residual_sq, n)`` at ``gamma``, the residual computed from n.
        An array of gamma gives a residual per entry and n in rows, each
        equal bit for bit to its gamma evaluated alone."""
        n = np.matmul(self.V, self.coefficients(gamma)[..., None])[..., 0]
        res = _row_dots(np.matmul(self.K, n[..., None])[..., 0] - self.r)
        return (float(res) if res.ndim == 0 else res), n

    def _grid_residuals(self) -> np.ndarray:
        """The closed-form residual at each gamma of ``_ROOT_GRID``: the row
        sums of (gamma / (lam + gamma))^2 b^2, formed in one buffer, plus
        residual_ls."""
        terms = np.add(self._lam, _ROOT_GAMMAS)
        np.divide(_ROOT_GAMMAS, terms, out=terms)
        np.square(terms, out=terms)
        terms *= self._b_sq
        res = terms.sum(axis=1)
        res += self.residual_ls
        return res

    def _secular(self, log_gamma: np.ndarray, work=None):
        """Closed-form residual at each gamma = exp(log_gamma) and its
        derivative with respect to log gamma.  ``work`` is three buffers,
        one column and two (len(log_gamma), rank) arrays, that hold gamma
        and the terms, so an iteration allocates no intermediate rows."""
        if work is None:
            work = _secular_work(log_gamma.size, self._lam.size)
        gamma, shifted, terms = work
        np.exp(log_gamma[:, None], out=gamma)
        np.add(self._lam, gamma, out=shifted)
        np.divide(gamma, shifted, out=terms)
        np.square(terms, out=terms)
        terms *= self._b_sq
        res = terms.sum(axis=1)
        res += self.residual_ls
        # slope = 2 sum terms * lam / (lam + gamma), in the buffer of lam + gamma
        np.divide(self._lam, shifted, out=shifted)
        shifted *= terms
        slope = shifted.sum(axis=1)
        slope *= 2.0
        return res, slope

    def roots(self, targets) -> np.ndarray:
        """The gamma whose closed-form residual meets each target, all at once.

        The residual alone on ``_ROOT_GRID``, four points per decade from
        1e-30 to 1e12, brackets each target between two grid points;
        safeguarded Newton on log gamma then runs inside that bracket,
        bisecting whenever a step leaves it.  A target the grid does not
        bracket, or whose iteration has not converged to within
        ``_NEWTON_RTOL`` after ``_NEWTON_STEPS`` steps, gets nan.
        """
        targets = np.asarray(targets, dtype=float)
        ladder = np.maximum.accumulate(self._grid_residuals())
        j = np.searchsorted(ladder, targets)
        j = np.minimum(np.maximum(j, 1), _ROOT_GRID.size - 1)
        lo, hi = _ROOT_GRID[j - 1], _ROOT_GRID[j]
        f_lo, f_hi = ladder[j - 1] - targets, ladder[j] - targets
        bracketed = (f_lo < 0.0) & (f_hi >= 0.0)
        tol, unbracketed = _NEWTON_RTOL * targets, ~bracketed
        # each step writes into these buffers: the secular terms, the
        # Newton step and the bisection point
        work = _secular_work(targets.size, self._lam.size)
        step, mid = np.empty(targets.size), np.empty(targets.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(bracketed, lo - f_lo * (hi - lo) / (f_hi - f_lo), lo)
            for _ in range(_NEWTON_STEPS):
                f, slope = self._secular(t, work)
                f -= targets
                done = np.abs(f) <= tol
                if (done | unbracketed).all():
                    break
                np.copyto(lo, t, where=f < 0.0)
                np.copyto(hi, t, where=f > 0.0)
                np.divide(f, slope, out=step)
                np.subtract(t, step, out=step)
                np.add(lo, hi, out=mid)
                mid *= 0.5
                np.copyto(mid, step, where=(step > lo) & (step < hi))
                np.copyto(t, mid, where=~done)
        return np.where(bracketed & done, np.exp(t), np.nan)

    def discrepancy(self, target_sq, gamma):
        """``(gamma, n, residual_sq)`` at ``gamma``, the target's entry of
        ``roots``; arrays of targets and their roots give arrays (n in
        rows) from one stacked ``evaluate``.  A nan root (the grid of
        ``roots`` cannot bracket the target) raises BracketFailure before
        anything is evaluated.  The residual is recomputed from n at the
        root; the first one outside ``_DISCREPANCY_RTOL`` of its target
        raises RootFailure.
        """
        target_sq = np.asarray(target_sq, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        unrooted = np.flatnonzero(~np.isfinite(gamma))
        if unrooted.size:
            t = float(np.ravel(target_sq)[unrooted[0]])
            raise BracketFailure(f"no ridge-curve root for target {t}")
        res, n = self.evaluate(gamma)
        miss = np.flatnonzero(np.abs(res - target_sq) > _DISCREPANCY_RTOL * target_sq)
        if miss.size:
            g, t, d = (float(np.ravel(a)[miss[0]]) for a in (gamma, target_sq, res))
            raise RootFailure(f"ridge root {g} misses target {t}: {d}")
        return (float(gamma) if gamma.ndim == 0 else gamma), n, res


def _secular_work(count: int, rank: int):
    """Buffers of ``RidgeCurve._secular`` for ``count`` values of gamma."""
    return np.empty((count, 1)), np.empty((count, rank)), np.empty((count, rank))


def _row_dots(a: np.ndarray):
    """a_i . a_i for each row of a stack: one ``np.matmul`` whose per-row
    products are the dot products of the rows alone, bit for bit."""
    return np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0]


class SearchState:
    """What the discrepancy searches on one weighted system (K, r) under
    the regularizer ``reg`` share.

    Each passive set P (a boolean mask; None frees every variable) gets one
    ridge curve, built on first use from the columns of P and the principal
    block R_PP: it depends on (K[:, P], r, R_PP) alone.  Each curve keeps a
    table of its roots.  ``roots(P, targets)`` looks the targets up there;
    if one is not yet in it, every target of the open pass and of
    ``targets`` not in it is rooted in one ``RidgeCurve.roots`` call.
    ``begin(targets)`` opens a pass over ``targets`` and clears ``start``.
    ``solve_discrepancy`` sets ``start`` to the positive set of every
    solution it returns, and the next search on the state starts from that
    passive set.
    """

    def __init__(self, K: np.ndarray, r: np.ndarray, reg: Regularizer):
        self.K, self.r, self.reg = K, r, reg
        self.start = None
        self._targets = ()
        self._all_free = np.ones(K.shape[1], dtype=bool).tobytes()
        self._curves = {}  # passive-set bytes -> (RidgeCurve, {target: root})

    def begin(self, targets) -> None:
        """Open a pass over ``targets``; its first search starts all-free."""
        self._targets = tuple(targets)
        self.start = None

    def _entry(self, passive):
        key = self._all_free if passive is None else passive.tobytes()
        entry = self._curves.get(key)
        if entry is None:
            K, reg = self.K, self.reg
            if key != self._all_free:
                idx = np.flatnonzero(passive)
                K, reg = K[:, idx], Regularizer(reg.matrix[np.ix_(idx, idx)])
            entry = self._curves[key] = (RidgeCurve(K, self.r, reg), {})
        return entry

    def roots(self, passive, targets):
        """``(curve, gammas)``: P's curve and the ``roots`` entry of each
        target, an array (nan where the grid cannot bracket the target)."""
        curve, table = self._entry(passive)
        if any(t not in table for t in targets):
            new = [
                t for t in dict.fromkeys((*self._targets, *targets))
                if t not in table
            ]
            table.update(zip(new, curve.roots(new)))
        return curve, np.array([table[t] for t in targets])


def solve_discrepancy(
    K, r, reg: Regularizer, target_sq: float, base_residual_sq=None, *,
    state: SearchState | None = None,
):
    """Find gamma whose constrained solution has residual equal to target_sq.

    Valid targets lie strictly between the unregularized residual and
    ||r||^2; within that range the residual-parameter map is a strictly
    monotone bijection, so a bracket on log10 gamma holds the root.
    ``base_residual_sq`` is the unregularized (NNLS) residual if the caller
    has it; otherwise it is solved for here.  Each step's trial gamma is the
    ridge-curve root of the passive set P if it lies strictly inside the
    bracket, and the bracket's log-midpoint otherwise; every trial is solved
    warm from P (see the module docstring).  ``state`` is a ``SearchState``
    on the same (K, r, reg) if the caller shares one across targets;
    otherwise the search makes its own.  The first P is the state's
    ``start`` if that is neither empty nor full, and every variable
    otherwise.  Returns ``(gamma, QpSolution)``.
    """
    K = np.asarray(K, dtype=float)
    r = np.asarray(r, dtype=float)
    if base_residual_sq is None:
        base_residual_sq = solve_nnls(K, r).residual_sq
    r_norm_sq = float(r @ r)
    if not base_residual_sq < target_sq < r_norm_sq:
        raise TargetOutOfRange(
            f"target {target_sq} outside attainable range "
            f"({base_residual_sq}, {r_norm_sq})"
        )
    if state is None:
        state = SearchState(K, r, reg)
    N = K.shape[1]
    tol = _DISCREPANCY_RTOL * target_sq
    lo, hi = _LOG_GAMMA_FLOOR, _LOG_GAMMA_CEILING
    passive = state.start
    if passive is None or not 0 < np.count_nonzero(passive) < N:
        passive = np.ones(N, dtype=bool)
    root = _ridge_root(state, passive, target_sq)
    for _ in range(_SEARCH_STEPS):
        if lo < np.log10(root) < hi:
            gamma = root
        else:
            gamma = 10.0 ** (0.5 * (lo + hi))
        sol = solve_constrained_tikhonov(K, r, reg, gamma, passive)
        excess = sol.residual_sq - target_sq
        if abs(excess) <= tol:
            state.start = sol.n > 0.0
            return gamma, sol
        if excess < 0.0:
            lo = np.log10(gamma)
        else:
            hi = np.log10(gamma)
        new = sol.n > 0.0
        if not np.array_equal(new, passive):
            passive = new
            root = _ridge_root(state, passive, target_sq)
    if lo == _LOG_GAMMA_FLOOR or hi == _LOG_GAMMA_CEILING:
        raise BracketFailure(
            f"no gamma in [1e{_LOG_GAMMA_FLOOR}, 1e{_LOG_GAMMA_CEILING}] "
            f"brackets the target {target_sq}"
        )
    raise RootFailure(
        f"discrepancy search ended in gamma [{10.0**lo:.6g}, {10.0**hi:.6g}] "
        f"with the residual outside the tolerance of {target_sq}"
    )


def _ridge_root(state: SearchState, passive, target_sq: float) -> float:
    """The tabled ridge-curve root of the target on the variables of
    ``passive``: nan if ``passive`` is empty or its curve has no root."""
    if not passive.any():
        return np.nan
    return float(state.roots(passive, (target_sq,))[1][0])
