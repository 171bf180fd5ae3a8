"""Property tests: invariants that must hold on every input of a class.

Examples are derandomized and bounded, so a run is deterministic and fast.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aeroinv.cli import read_measurement, write_measurement
from aeroinv.model_selection import REGULARIZER_KINDS, Measurement, build_regularizer
from aeroinv.optics import lorentz_lorenz_mix
from aeroinv.tikhonov_qp import (
    _DISCREPANCY_RTOL,
    Regularizer,
    RidgeCurve,
    solve_constrained_tikhonov,
    solve_discrepancy,
    solve_nnls,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)

entries = st.floats(-10.0, 10.0, allow_subnormal=False)


def weighted_residual(K, n, r):
    d = K @ n - r
    return float(d @ d)


@st.composite
def tikhonov_problems(draw):
    m = draw(st.integers(2, 8))
    n = draw(st.integers(1, 5))
    K = draw(arrays(float, (m, n), elements=entries))
    r = draw(arrays(float, m, elements=entries))
    M = draw(arrays(float, (n, n), elements=entries))
    gamma = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    return K, r, M @ M.T + np.eye(n), gamma


def assert_kkt_certificate(sol, K, r, R, gamma):
    scale = max(np.max(np.abs(K.T @ r)), 1e-30)
    grad = K.T @ (K @ sol.n - r) + gamma * (R @ sol.n)
    assert np.all(sol.n >= 0.0)
    assert np.all(sol.duals >= 0.0)
    assert np.max(np.abs(sol.n * sol.duals)) <= 1e-10 * max(scale, 1.0)
    # float64 cannot evaluate the gradient below about (m + N) eps times the
    # terms it sums, which exceed |K'r| by far when K n cancels r with a
    # large n; on other problems 1e-8 |K'r| is the larger bound
    terms = np.abs(K).T @ (np.abs(K) @ sol.n + np.abs(r)) + gamma * (np.abs(R) @ sol.n)
    rounding = sum(K.shape) * np.finfo(float).eps * np.max(terms)
    assert np.linalg.norm(grad - sol.duals) <= max(1e-8 * scale, rounding)


@SETTINGS
@given(tikhonov_problems())
def test_constrained_tikhonov_kkt_certificate(problem):
    K, r, R, gamma = problem
    sol = solve_constrained_tikhonov(K, r, Regularizer(R), gamma)
    assert_kkt_certificate(sol, K, r, R, gamma)


@st.composite
def discrepancy_problems(draw):
    """A well-posed K (a random block over a diagonal with entries >= 0.5),
    data, a regularizer kind and a position in (0, 1) of the target between
    the unregularized residual and the data norm."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    block = draw(arrays(float, (m, n), elements=entries))
    diag = draw(arrays(float, n, elements=st.floats(0.5, 5.0)))
    K = np.vstack([block, np.diag(diag)])
    r = draw(arrays(float, m + n, elements=entries))
    kind = draw(st.sampled_from(REGULARIZER_KINDS))
    position = draw(st.floats(0.01, 0.99))
    return K, r, build_regularizer(kind, n), position


def target_between(base, r, position):
    r_norm_sq = float(r @ r)
    hypothesis.assume(r_norm_sq - base > 1e-6 * r_norm_sq)
    return base + position * (r_norm_sq - base)


@SETTINGS
@given(discrepancy_problems())
def test_constrained_discrepancy_search_meets_any_admissible_target(problem):
    K, r, reg, position = problem
    target = target_between(solve_nnls(K, r).residual_sq, r, position)
    gamma, sol = solve_discrepancy(K, r, reg, target)
    assert abs(sol.residual_sq - target) <= _DISCREPANCY_RTOL * target
    assert sol.residual_sq == weighted_residual(K, sol.n, r)
    assert_kkt_certificate(sol, K, r, reg.matrix, gamma)


@SETTINGS
@given(discrepancy_problems())
def test_ridge_discrepancy_search_meets_any_admissible_target(problem):
    K, r, reg, position = problem
    ls = np.linalg.lstsq(K, r, rcond=None)[0]
    target = target_between(weighted_residual(K, ls, r), r, position)
    curve = RidgeCurve(K, r, reg)
    gamma, n, res = curve.discrepancy(target, curve.roots([target])[0])
    assert abs(res - target) <= _DISCREPANCY_RTOL * target
    assert res == weighted_residual(K, n, r)
    # the returned weights solve the normal equations at gamma
    lhs = K.T @ (K @ n) + gamma * (reg.matrix @ n)
    assert np.linalg.norm(lhs - K.T @ r) <= 1e-8 * max(np.linalg.norm(K.T @ r), 1e-30)


@SETTINGS
@given(tikhonov_problems(), st.floats(1e-3, 10.0), st.floats(1.01, 100.0))
def test_constrained_residual_grows_with_gamma(problem, gamma, factor):
    # the discrepancy search rests on this: a larger gamma never fits better
    K, r, R, _ = problem
    reg = Regularizer(R)
    low = solve_constrained_tikhonov(K, r, reg, gamma)
    high = solve_constrained_tikhonov(K, r, reg, gamma * factor)
    assert high.residual_sq >= low.residual_sq - 1e-9 * max(float(r @ r), 1e-300)


indices = st.builds(complex, st.floats(1.0, 3.0), st.floats(0.0, 2.0))


def _polarizability(m):
    return (m**2 - 1.0) / (m**2 + 2.0)


@SETTINGS
@given(indices, indices, st.floats(0.0, 1.0))
def test_lorentz_lorenz_root(m1, m2, f1):
    m = lorentz_lorenz_mix(m1, m2, f1)
    assert m.real > 0.0
    assert m.imag >= 0.0
    expect = f1 * _polarizability(m1) + (1.0 - f1) * _polarizability(m2)
    assert abs(_polarizability(m) - expect) <= 1e-12
    assert lorentz_lorenz_mix(m1, m2, 1.0) == m1
    assert lorentz_lorenz_mix(m1, m2, 0.0) == m2


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def measurements(draw):
    size = draw(st.integers(1, 12))
    wavelengths = sorted(draw(st.sets(finite, min_size=size, max_size=size)))
    # noise weights stay below 1e100 and weighted means below 1e150, so the
    # weighted data norm, which the boundary requires finite, is finite
    means = draw(st.lists(st.floats(-1e50, 1e50), min_size=size, max_size=size))
    variances = draw(
        st.lists(st.floats(1e-100, 1e100), min_size=size, max_size=size)
    )
    repeats = draw(st.integers(1, 10**6))
    return Measurement(
        np.array(wavelengths), np.array(means), np.array(variances), repeats
    )


@SETTINGS
@given(measurements())
def test_measurement_file_round_trip_bit_exact(tmp_path_factory, meas):
    path = tmp_path_factory.mktemp("meas") / "m.csv"
    write_measurement(path, meas)
    back = read_measurement(path)
    for field in ("wavelengths", "mean_extinction", "variance"):
        assert getattr(back, field).tobytes() == getattr(meas, field).tobytes()
    assert back.repeats == meas.repeats


@st.composite
def ridge_curves(draw):
    """K = P diag(s) W' from random orthogonal factors, in three kinds:
    well-conditioned (s in [0.5, 2]), ill-conditioned (s from 1e-8 to 1)
    and rank-deficient (fewer rows than columns); then data, a regularizer
    kind and three increasing target positions."""
    kind = draw(st.sampled_from(("well", "ill", "rank_deficient")))
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n - 1)) if kind == "rank_deficient" else n + draw(
        st.integers(0, 6)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = np.linalg.qr(rng.normal(size=(m, m)))[0]
    W = np.linalg.qr(rng.normal(size=(n, n)))[0]
    k = min(m, n)
    if kind == "ill":
        s = np.logspace(-8.0, 0.0, k)
    else:
        s = rng.uniform(0.5, 2.0, k)
    K = P[:, :k] @ np.diag(s) @ W[:, :k].T
    r = rng.normal(size=m)
    reg = draw(st.sampled_from(REGULARIZER_KINDS))
    positions = [draw(st.floats(lo, lo + 0.3)) for lo in (0.01, 0.35, 0.69)]
    hypothesis.event(kind)
    return K, r, build_regularizer(reg, n), positions


def ridge_targets(curve, r, positions):
    r_norm_sq = float(r @ r)
    hypothesis.assume(r_norm_sq - curve.residual_ls > 1e-6 * r_norm_sq)
    return [
        curve.residual_ls + p * (r_norm_sq - curve.residual_ls) for p in positions
    ]


@SETTINGS
@given(ridge_curves())
def test_closed_form_roots_meet_their_targets_in_order(problem):
    K, r, reg, positions = problem
    curve = RidgeCurve(K, r, reg)
    targets = ridge_targets(curve, r, positions)
    gammas = curve.roots(targets)
    assert np.all(np.isfinite(gammas))
    assert np.all(np.diff(gammas) > 0.0)  # a larger target needs a larger gamma
    for target, root in zip(targets, gammas):
        gamma, n, res = curve.discrepancy(target, root)
        assert gamma == root  # the root passed its certificate
        assert abs(res - target) <= _DISCREPANCY_RTOL * target
        assert res == weighted_residual(K, n, r)


@SETTINGS
@given(ridge_curves())
def test_closed_form_roots_agree_with_the_brent_search(problem):
    from scipy.optimize import brentq

    K, r, reg, positions = problem
    curve = RidgeCurve(K, r, reg)
    targets = ridge_targets(curve, r, positions)
    for target, root in zip(targets, curve.roots(targets)):
        # reference: Brent's method on log10 gamma over the evaluated
        # residual, bracketed by decades out from [1e-12, 1e6] (far below
        # the roots, n on a rank-deficient K blows up in rounding)
        excess = lambda t: curve.evaluate(10.0**t)[0] - target
        lo, hi = -12, 6
        while excess(lo) > 0.0 and lo > -30:
            lo -= 1
        while excess(hi) < 0.0 and hi < 12:
            hi += 1
        gamma_b = 10.0 ** brentq(excess, lo, hi)
        res_b = curve.evaluate(gamma_b)[0]
        tol = _DISCREPANCY_RTOL * target
        assert abs(res_b - target) <= tol
        assert abs(curve.evaluate(root)[0] - target) <= tol
        # both roots lie in the tolerance band, so they differ by at most
        # its width, 2 tol over the residual's slope d res / d gamma
        _, slope = curve._secular(np.log([min(root, gamma_b), max(root, gamma_b)]))
        width = 2.0 * tol / (np.min(slope) / max(root, gamma_b))
        assert abs(root - gamma_b) <= 1.05 * width


@SETTINGS
@given(ridge_curves(), st.floats(0.01, 0.99), st.booleans())
def test_targets_outside_the_window_raise(problem, shift, below):
    from aeroinv.errors import BracketFailure, TargetOutOfRange

    K, r, reg, _ = problem
    curve = RidgeCurve(K, r, reg)
    r_norm_sq = float(r @ r)
    if below:
        hypothesis.assume(curve.residual_ls > 1e-6 * r_norm_sq)
        target = (1.0 - shift) * curve.residual_ls
    else:
        target = (1.0 + shift) * r_norm_sq
    assert np.isnan(curve.roots([target])[0])
    with pytest.raises((TargetOutOfRange, BracketFailure)):
        curve.discrepancy(target, curve.roots([target])[0])
    base = solve_nnls(K, r).residual_sq
    if not base < target < r_norm_sq:
        with pytest.raises((TargetOutOfRange, BracketFailure)):
            solve_discrepancy(K, r, reg, target, base)


@st.composite
def stacked_ridge_problems(draw):
    """A ridge curve on K with N = 1..48 columns and 1..60 rows, of any rank
    (N > N_lambda and rank-deficient K among them), a stack of 1..12 gamma
    and the entries of the stack whose targets its certificate misses."""
    n = draw(st.integers(1, 48))
    m = draw(st.integers(1, 60))
    rank = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    r = rng.normal(size=m)
    reg = build_regularizer(draw(st.sampled_from(REGULARIZER_KINDS)), n)
    size = draw(st.integers(1, 12))
    gammas = 10.0 ** rng.uniform(-12.0, 6.0, size)
    misses = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    return RidgeCurve(K, r, reg), gammas, misses


def _outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@SETTINGS
@given(stacked_ridge_problems())
def test_stacked_ridge_evaluation_equals_stacks_of_one(problem):
    # the unconstrained walk evaluates and certifies a level's roots in one
    # stacked pass; its records stay those of one gamma at a time
    curve, gammas, misses = problem
    res, n = curve.evaluate(gammas)
    assert res.shape == gammas.shape and n.shape == (gammas.size, curve.V.shape[0])
    for i, gamma in enumerate(gammas):
        res_i, n_i = curve.evaluate(gamma)
        assert n_i.tobytes() == n[i].tobytes()
        assert np.float64(res_i).tobytes() == res[i].tobytes()
    # targets met exactly pass every certificate; a missed one raises
    # RootFailure for the first miss, as the calls one at a time do
    targets = np.where(misses, 2.0 * res + 1.0, res)
    got = _outcome(lambda: curve.discrepancy(targets, gammas))
    alone = [_outcome(lambda: curve.discrepancy(t, g)) for t, g in zip(targets, gammas)]
    failed = [o for o in alone if isinstance(o[0], type)]
    if failed:
        assert got == failed[0]
    else:
        g, n_s, res_s = got
        assert g.tobytes() == gammas.tobytes()
        for i, (g_i, n_i, res_i) in enumerate(alone):
            assert g_i == gammas[i]
            assert n_i.tobytes() == n_s[i].tobytes()
            assert np.float64(res_i).tobytes() == res_s[i].tobytes()
    # an unrooted entry raises BracketFailure for the first one
    unrooted = np.where(misses, np.nan, gammas)
    if misses.any():
        first = int(np.argmax(misses))
        want = _outcome(lambda: curve.discrepancy(targets[first], np.nan))
        assert _outcome(lambda: curve.discrepancy(targets, unrooted)) == want


@st.composite
def evidence_candidates(draw):
    """A small candidate of any regularizer kind with its measurement."""
    from aeroinv.discretization import KernelMatrix, RadiusGrid
    from aeroinv.model_selection import ModelCandidate

    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 6))
    K = draw(arrays(float, (m, n), elements=entries))
    wavelengths = np.linspace(0.5, 3.0, m)
    kernel = KernelMatrix(K, RadiusGrid(np.linspace(0.0, 1.0, n + 2)))
    meas = Measurement(
        wavelengths,
        draw(arrays(float, m, elements=entries)),
        draw(arrays(float, m, elements=st.floats(0.1, 10.0))),
        draw(st.integers(1, 300)),
    )
    reg = build_regularizer(draw(st.sampled_from(REGULARIZER_KINDS)), n)
    candidate = ModelCandidate(
        weights=np.zeros(n), kernel=kernel, regularizer=reg,
        gamma=draw(st.floats(1e-3, 1e3)), tau=1.0, residual_sq=0.0,
    )
    return candidate, meas


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(evidence_candidates(), st.integers(0, 2**16))
def test_log_evidence_never_exceeds_its_closed_form_bound(problem, seed):
    # the ranking screen rests on this: the bound drops only the orthant
    # probability, and every estimate of that probability is at most 1
    from aeroinv.model_selection import _statistical_system, log_marginal_likelihood
    from aeroinv.orthant_mvn import log_gaussian_integral

    candidate, meas = problem
    bound = log_gaussian_integral(_statistical_system(candidate, meas))
    assert np.isfinite(bound)
    for samples in (1, 200, 1000, 5000):
        lm = log_marginal_likelihood(candidate, meas, samples, seed).log_value
        assert lm <= bound + 1e-9


@st.composite
def quadratic_forms(draw):
    """An SPD exponent of dimension 1 to 12 whose mode may lie far outside
    the orthant."""
    from aeroinv.orthant_mvn import QuadraticForm

    n = draw(st.integers(1, 12))
    M = draw(arrays(float, (n, n), elements=st.floats(-3.0, 3.0)))
    H = M @ M.T + draw(st.floats(0.05, 5.0)) * np.eye(n)
    mode = draw(arrays(float, n, elements=st.floats(-8.0, 4.0)))
    return QuadraticForm(H, H @ mode, draw(st.floats(0.0, 10.0)))


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(quadratic_forms(), st.sampled_from([200, 1000]), st.integers(0, 2**16))
def test_orthant_estimate_never_exceeds_its_tilt_bound(form, samples, seed):
    # Newton's method finds the minimax tilt; exp(psi*) bounds the orthant
    # probability, and every tilted sample's weight is at most exp(psi*)
    from aeroinv.orthant_mvn import log_gaussian_integral, orthant_integral

    est = orthant_integral(form, samples, seed)
    assert est.tilted
    assert np.isfinite(est.log_value) and np.isfinite(est.log_bound)
    assert est.log_value <= est.log_bound + 3.0 * est.std_error
    assert est.log_bound <= log_gaussian_integral(form) + 1e-9


@st.composite
def weighted_stacks(draw):
    """A stack of up to 20 systems (more than one QR chunk) of m rows and
    N <= m columns, each of rank at most ``rank``, with row weights."""
    m = draw(st.integers(2, 8))
    n = m if draw(st.booleans()) else draw(st.integers(1, m))
    rank = draw(st.integers(1, n))
    count = draw(st.integers(1, 20))
    small = st.floats(-3.0, 3.0, allow_subnormal=False)
    B = draw(arrays(float, (count, m, rank), elements=small))
    C = draw(arrays(float, (rank, n), elements=small))
    w = draw(arrays(float, m, elements=st.floats(0.1, 10.0)))
    r = draw(arrays(float, m, elements=entries))
    return B @ C, w, r


@SETTINGS
@given(weighted_stacks())
def test_least_squares_bound_never_exceeds_the_nnls_residual(problem):
    from aeroinv.model_selection import _least_squares_bounds

    stacked, w, r = problem
    bounds = _least_squares_bounds(stacked, w, r)
    assert bounds.shape == (len(stacked),)
    for K, bound in zip(stacked * w[:, None], bounds):
        sol = solve_nnls(K, r)
        # both residuals are rounded at about eps times ||r||^2 and the
        # products K n they subtract
        scale = float(r @ r) + float(np.sum((np.abs(K) @ np.abs(sol.n)) ** 2))
        assert 0.0 <= bound <= sol.residual_sq + 1e-12 * scale


@SETTINGS
@given(weighted_stacks())
def test_least_squares_bound_never_exceeds_the_lstsq_residual(problem):
    # the unconstrained walk admits a level by its least-squares residual,
    # so the bound that settles a level must not exceed that either
    from aeroinv.model_selection import _least_squares_bounds

    stacked, w, r = problem
    bounds = _least_squares_bounds(stacked, w, r)
    for K, bound in zip(stacked * w[:, None], bounds):
        ls = np.linalg.lstsq(K, r, rcond=None)[0]
        d = K @ ls - r
        # the nonnegative test's rounding scale, with the least-squares fit
        scale = float(r @ r) + float(np.sum((np.abs(K) @ np.abs(ls)) ** 2))
        assert 0.0 <= bound <= float(d @ d) + 1e-12 * scale
