import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate as si
import scipy.linalg
import scipy.special
from scipy.special import ndtr
from scipy.stats import multivariate_normal, norm

import aeroinv.model_selection as msel
import aeroinv.orthant_mvn as ortho
from aeroinv.errors import CholeskyFailure
from aeroinv.model_selection import build_regularizer, prior_normalizer
from aeroinv.orthant_mvn import (
    QuadraticForm,
    _lattice_roots,
    _logsumexp,
    log_orthant_probability,
    orthant_integral,
)


def untilted_fallback(L, lower, means):
    """``_minimax_tilt`` when every member's Newton's method fails."""
    count = lower.shape[0]
    return np.zeros_like(lower), np.zeros(count), np.zeros(count, dtype=bool)


def quadrature_orthant_prob_2d(H, cutoff=12.0):
    f = lambda y, x: np.exp(-0.5 * (np.array([x, y]) @ H @ np.array([x, y])))
    num, _ = si.dblquad(f, 0, cutoff, 0, cutoff, epsabs=1e-13, epsrel=1e-12)
    return num * np.sqrt(np.linalg.det(H)) / (2 * np.pi)


def quadrature_orthant_prob(Sigma, mu):
    """P(X >= 0) for X ~ N(mu, Sigma) in 2-D or 3-D: the last coordinate in
    closed form given the others, the rest by adaptive quadrature."""
    d = len(mu)
    head = slice(0, d - 1)
    s12 = Sigma[head, d - 1]
    gain = np.linalg.solve(Sigma[head, head], s12)
    cond_sd = np.sqrt(Sigma[d - 1, d - 1] - s12 @ gain)
    pdf = multivariate_normal(mu[head], Sigma[head, head]).pdf

    def f(*x):
        x = np.array(x[::-1])
        return pdf(x) * ndtr((mu[d - 1] + gain @ (x - mu[head])) / cond_sd)

    hi = np.maximum(mu[head], 0.0) + 12.0 * np.sqrt(np.diag(Sigma)[head])
    if d == 2:
        return si.quad(f, 0, hi[0], epsabs=0, epsrel=1e-11, limit=200)[0]
    return si.dblquad(f, 0, hi[0], 0, hi[1], epsabs=0, epsrel=1e-10)[0]


class TestOrthantProbability:
    def test_scalar_half_mass(self):
        est = log_orthant_probability(np.eye(1), np.zeros(1), 5000, seed=0)
        abs_err = est.value * est.std_error
        assert est.value == pytest.approx(0.5, abs=max(3 * abs_err, 1e-12))

    def test_independent_quadrant(self):
        est = log_orthant_probability(np.eye(2), np.zeros(2), 10000, seed=1)
        abs_err = est.value * est.std_error
        assert est.value == pytest.approx(0.25, abs=max(3 * abs_err, 1e-12))

    def test_correlated_matches_quadrature(self):
        H = np.array([[2.0, 0.7], [0.7, 1.5]])
        exact = quadrature_orthant_prob_2d(H)
        est = log_orthant_probability(H, np.zeros(2), 100000, seed=2)
        assert abs(est.value - exact) / exact <= 1e-3

    def test_shifted_lower_bound(self):
        # P(Z >= a) for scalar N(0, 1/4): 1 - Phi(2a)
        from scipy.stats import norm

        est = log_orthant_probability(4.0 * np.eye(1), np.array([0.3]), 2000, 3)
        assert est.value == pytest.approx(norm.sf(0.6), rel=1e-10)

    def test_not_spd_raises(self):
        with pytest.raises(CholeskyFailure):
            log_orthant_probability(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))

    def test_singular_factor_raises_cholesky_failure(self, monkeypatch):
        """A factor LAPACK cannot invert (info > 0) is a typed error."""
        singular = np.triu(np.ones((3, 3)))
        singular[1, 1] = 0.0
        monkeypatch.setattr(ortho, "_POTRF", lambda H, lower: (singular, 0))
        with pytest.raises(CholeskyFailure, match="singular"):
            log_orthant_probability(np.eye(3), np.zeros(3))


class TestInputChecks:
    """Bad exponent data is a ValueError before any factorization, not a
    NaN estimate or a LAPACK message."""

    @pytest.mark.parametrize(
        "H, v, q",
        [
            (np.eye(2), [np.nan, 0.0], 0.0),
            (np.eye(2), [-np.inf, 0.0], 0.0),
            (np.eye(2), [np.inf, 0.0], 0.0),
            (np.eye(2), [0.0, 0.0], np.nan),
            (np.eye(2), [0.0, 0.0], np.inf),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), [0.0, 0.0], 0.0),
            (np.diag([1.0, np.inf]), [0.0, 0.0], 0.0),
        ],
    )
    def test_non_finite_form_raises(self, H, v, q):
        with pytest.raises(ValueError, match="finite"):
            QuadraticForm(H, v, q)

    @pytest.mark.parametrize(
        "H, lower",
        [
            (np.eye(3), [0.0, np.inf, 0.0]),
            (np.eye(3), [0.0, -np.inf, 0.0]),
            (np.eye(3), [np.nan, 0.0, 0.0]),
            (np.diag([1.0, np.nan, 1.0]), [0.0, 0.0, 0.0]),
        ],
    )
    def test_non_finite_probability_raises(self, H, lower):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                log_orthant_probability(H, lower)

    def test_zero_dimensions_raise_without_lapack_output(self, capfd):
        with pytest.raises(ValueError, match="at least one row"):
            QuadraticForm(np.zeros((0, 0)), np.zeros(0))
        with pytest.raises(ValueError, match="at least one row"):
            log_orthant_probability(np.zeros((0, 0)), [])
        out, err = capfd.readouterr()
        assert out == err == ""

    def test_mismatched_shift_raises(self):
        with pytest.raises(ValueError, match="matching length"):
            log_orthant_probability(np.eye(3), np.zeros(2))


def random_forms(d, count, seed):
    """``count`` random SPD forms of dimension ``d`` whose modes lie up to a
    few standard deviations outside the orthant."""
    rng = np.random.default_rng(seed)
    forms = []
    for _ in range(count):
        A = rng.normal(size=(d, d))
        H = A @ A.T / d + 0.1 * np.eye(d)
        mode = rng.normal(scale=rng.uniform(0.5, 3.0), size=d)
        forms.append(QuadraticForm(H, H @ mode, float(mode @ H @ mode)))
    return forms


def far_form(seed):
    """A 7-dimensional form whose mode lies about 30 sd outside a nearly
    singular orthant."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(7, 7))
    H = A @ A.T + 1e-4 * np.eye(7)
    mode = rng.normal(scale=30, size=7)
    return QuadraticForm(H, H @ mode)


def fresh(form):
    """An equal form that has not been set up."""
    return QuadraticForm(form.H, form.v, form.q)


def assert_same_setup(got, want):
    assert np.array_equal(got.L, want.L)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.mu, want.mu)
    assert got.log_bound == want.log_bound
    assert got.tilted == want.tilted


class TestStackedSetup:
    """``prepare`` sets up forms of one dimension in one stacked pass; each
    member's set-up, and so its estimate, is bit for bit the one it gets
    alone, whatever it is stacked with."""

    @pytest.mark.parametrize("d", [1, 2, 7, 20])
    def test_set_up_and_estimate_do_not_depend_on_the_batch(self, d):
        forms = random_forms(d, 8, seed=d)
        alone = [fresh(f) for f in forms]
        ests = [orthant_integral(f, seed=3) for f in alone]  # stacks of one
        assert all(f.sampler_setup.tilted for f in alone)
        rng = np.random.default_rng(100 + d)
        for size in range(1, 9):
            pick = rng.choice(8, size=size, replace=False)
            batch = [fresh(forms[i]) for i in pick]
            ortho.prepare(batch)
            for i, form in zip(pick, batch):
                assert "sampler_setup" in vars(form)  # set by prepare
                assert_same_setup(form.sampler_setup, alone[i].sampler_setup)
                assert orthant_integral(form, seed=3) == ests[i]

    def test_a_failed_tilt_leaves_the_others_unchanged(self):
        """Two modes about 30 sd outside nearly singular orthants: on one
        (seed 152) Newton's method gives up after 8 steps, when no halving
        of its step lowers the gradient norm; the other (seed 259) goes on
        to converge after 13, well after the rest of the batch."""
        forms = random_forms(7, 4, seed=7)
        forms.insert(1, far_form(152))
        forms.append(far_form(259))
        alone = [fresh(f) for f in forms]
        assert [f.sampler_setup.tilted for f in alone] == [True, False] + [True] * 4
        batch = [fresh(f) for f in forms]
        ortho.prepare(batch)
        for form, ref in zip(batch, alone):
            assert_same_setup(form.sampler_setup, ref.sampler_setup)
            assert orthant_integral(form, seed=1) == orthant_integral(ref, seed=1)
        failed = batch[1].sampler_setup
        assert not failed.mu.any() and failed.log_bound == 0.0

    def test_a_failed_factor_raises_alone_and_in_stacks(self):
        """A nearly singular H (rank 3 plus 5e-16 I) whose covariance loses
        positive definiteness in the reordered factor: it raises
        ``CholeskyFailure`` alone and from ``prepare`` in any stack."""
        rng = np.random.default_rng(41)
        A = rng.normal(size=(4, 3))
        H = A @ A.T + 10 ** rng.uniform(-17, -12) * np.eye(4)
        bad = QuadraticForm(H, H @ rng.normal(size=4))
        with pytest.raises(CholeskyFailure, match="positive definiteness"):
            fresh(bad).sampler_setup
        with pytest.raises(CholeskyFailure, match="positive definiteness"):
            orthant_integral(fresh(bad), seed=5)
        forms = random_forms(4, 3, seed=2)
        for at in range(len(forms) + 1):
            batch = [fresh(f) for f in forms]
            batch.insert(at, fresh(bad))
            with pytest.raises(CholeskyFailure, match="positive definiteness"):
                ortho.prepare(batch)
            assert not any("sampler_setup" in vars(f) for f in batch)
        ortho.prepare(forms)  # the others set up as usual without it
        assert all("sampler_setup" in vars(f) for f in forms)

    def test_forms_are_stacked_by_dimension(self, monkeypatch):
        forms = random_forms(3, 3, seed=0) + random_forms(5, 2, seed=1)
        forms.insert(1, forms.pop())  # the dimensions interleaved
        alone = [fresh(f) for f in forms]
        stacked = []
        inner = ortho._setups

        def recording(cov, lower):
            stacked.append(lower.shape)
            return inner(cov, lower)

        monkeypatch.setattr(ortho, "_setups", recording)
        ortho.prepare(forms)
        assert stacked == [(3, 3), (2, 5)]
        for form, ref in zip(forms, alone):
            assert_same_setup(form.sampler_setup, ref.sampler_setup)

    def test_an_emptied_stack_stops(self, monkeypatch):
        """Once every member has failed, Newton's method stops: the work
        done does not depend on the steps still allowed."""
        _, mode, cov = far_form(152).completed_square  # fails after 8 steps
        L, a, means = ortho._priority_cholesky(cov[None], -mode[None])
        calls = []
        inner = ortho._dots

        def counting(u, v):
            calls.append(u.shape[0])
            return inner(u, v)

        monkeypatch.setattr(ortho, "_dots", counting)
        counts = []
        for steps in (ortho._TILT_STEPS, 10 * ortho._TILT_STEPS):
            monkeypatch.setattr(ortho, "_TILT_STEPS", steps)
            calls.clear()
            assert not ortho._minimax_tilt(L, a, means)[2][0]
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestOrthantIntegral:
    def test_closed_form_tikhonov_normalizer(self):
        for gamma in (1e-3, 1.0, 1e3):
            for dim in (1, 5, 20):
                form = QuadraticForm(gamma * np.eye(dim), np.zeros(dim))
                est = orthant_integral(form, 20000, seed=4)
                exact = (np.pi / (2 * gamma)) ** (dim / 2)
                rel = abs(est.value - exact) / exact
                assert rel <= max(3 * est.std_error, 1e-12)

    def test_scalar_with_constant(self):
        est = orthant_integral(QuadraticForm(np.eye(1), np.zeros(1), 2.0), 5000, 5)
        assert est.value == pytest.approx(np.exp(-1.0) * np.sqrt(np.pi / 2), rel=1e-9)

    def test_2d_shifted_vs_quadrature(self):
        H = np.array([[2.0, 0.7], [0.7, 1.5]])
        v = np.array([0.5, -1.2])
        q = 1.3
        f = lambda y, x: np.exp(
            -0.5
            * (np.array([x, y]) @ H @ np.array([x, y]) - 2 * np.array([x, y]) @ v + q)
        )
        exact, _ = si.dblquad(f, 0, 14, 0, 14, epsabs=1e-13, epsrel=1e-12)
        est = orthant_integral(QuadraticForm(H, v, q), 100000, seed=6)
        assert abs(est.value - exact) / exact <= 1e-3

    def test_3d_random_spd_vs_quadrature(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(3, 3))
        H = A @ A.T + 3 * np.eye(3)
        v = rng.normal(size=3)
        q = 0.7

        def f(z, y, x):
            n = np.array([x, y, z])
            return np.exp(-0.5 * (n @ H @ n - 2 * n @ v + q))

        exact, _ = si.tplquad(f, 0, 8, 0, 8, 0, 8, epsabs=1e-11, epsrel=1e-9)
        est = orthant_integral(QuadraticForm(H, v, q), 100000, seed=7)
        assert abs(est.value - exact) / exact <= 1e-3

    def test_log_value_for_extreme_scales(self):
        # prefactor far outside double range is fine in log space
        dim = 40
        form = QuadraticForm(1e-9 * np.eye(dim), np.zeros(dim))
        est = orthant_integral(form, 2000, seed=8)
        expect_log = (dim / 2) * np.log(np.pi / (2 * 1e-9))
        assert est.log_value == pytest.approx(expect_log, abs=1e-6)

    def test_value_overflows_to_inf_without_warning(self):
        """An integral above exp(709) keeps its finite log; the linear value
        is inf, and reading it warns of no overflow."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = orthant_integral(QuadraticForm(np.eye(1), np.array([40.0])))
            # exp(800) sqrt(2 pi) P(N(40, 1) >= 0)
            assert est.log_value == pytest.approx(800.0 + 0.5 * np.log(2 * np.pi))
            assert est.value == np.inf


class TestEstimatorProperties:
    def test_error_scaling_with_samples(self):
        H = np.array([[2.0, 0.7], [0.7, 1.5]])
        mean_errs = []
        for samples in (1000, 10000):
            ests = [
                log_orthant_probability(H, np.zeros(2), samples, seed)
                for seed in range(20)
            ]
            errs = [est.value * est.std_error for est in ests]
            mean_errs.append(np.mean(errs))
        assert mean_errs[1] <= mean_errs[0] / 2.0

    def test_seed_determinism(self):
        H = np.array([[2.0, 0.7], [0.7, 1.5]])
        form = QuadraticForm(H, np.array([0.2, -0.4]), 0.5)
        a = orthant_integral(form, 20000, seed=42)
        b = orthant_integral(form, 20000, seed=42)
        assert a.log_value == b.log_value
        assert a.std_error == b.std_error
        c = orthant_integral(form, 20000, seed=43)
        assert a.log_value != c.log_value


class TestReorderedEstimator:
    H2 = np.array([[2.0, 0.7], [0.7, 1.5]])
    H3 = np.array([[2.0, 0.9, 0.3], [0.9, 1.5, 0.4], [0.3, 0.4, 1.0]])

    def test_2d_far_mode_vs_quadrature(self):
        # correlated, mode 6 sd outside the orthant in one coordinate
        Sigma = np.linalg.inv(self.H2)
        mu = np.array([-6.0 * np.sqrt(Sigma[0, 0]), 0.4])
        exact = quadrature_orthant_prob(Sigma, mu)
        est = log_orthant_probability(self.H2, -mu, 100000, seed=2)
        assert abs(np.exp(est.log_value) - exact) / exact <= 1e-3

    def test_3d_far_mode_vs_quadrature(self):
        # correlated, mode 5.5 sd outside the orthant in one coordinate
        Sigma = np.linalg.inv(self.H3)
        mu = np.array([-5.5 * np.sqrt(Sigma[0, 0]), 0.3, -0.5])
        exact = quadrature_orthant_prob(Sigma, mu)
        v = self.H3 @ mu
        est = orthant_integral(QuadraticForm(self.H3, v, 0.4), 100000, seed=3)
        log_prefactor = -0.5 * (0.4 - v @ mu) + 0.5 * (
            3 * np.log(2 * np.pi) - np.linalg.slogdet(self.H3)[1]
        )
        assert abs(est.log_value - log_prefactor - np.log(exact)) <= 1e-3

    def test_underflowed_probability_keeps_relative_error(self):
        mode = np.array([-28.0, -12.0, 1.0])
        form = QuadraticForm(self.H3, self.H3 @ mode, float(mode @ self.H3 @ mode))
        est = orthant_integral(form, 5000, seed=0)
        log_prefactor = 0.5 * (
            3 * np.log(2 * np.pi) - np.linalg.slogdet(self.H3)[1]
        )
        assert est.log_value - log_prefactor < -800.0
        assert np.isfinite(est.std_error) and 0.0 < est.std_error < 0.1


class TestLargeBudgetChunks:
    """A shift of more than ``_BATCH_POINTS`` lattice points is streamed in
    chunks of at most that many; smaller budgets batch whole shifts."""

    H = np.array(
        [
            [2.0, 0.9, 0.3, 0.1, 0.0],
            [0.9, 1.5, 0.4, 0.2, 0.1],
            [0.3, 0.4, 1.0, 0.3, 0.2],
            [0.1, 0.2, 0.3, 1.2, 0.4],
            [0.0, 0.1, 0.2, 0.4, 0.9],
        ]
    )
    mode = np.array([-1.5, 0.3, -0.8, 0.6, -0.2])

    def estimate(self, samples):
        return orthant_integral(QuadraticForm(self.H, self.H @ self.mode), samples, 4)

    @staticmethod
    def whole_shift_batches(cov, lower, samples, seed, tilted=True):
        """Reference: every shift's lattice points in one pass, whole shifts
        batched up to ``_BATCH_POINTS`` points, under the minimax tilt or,
        with ``tilted`` False, at mu = 0."""
        setup = ortho._setup_of(cov, lower)
        L, a = setup.L, setup.lower
        mu = setup.mu if tilted else np.zeros(a.size)
        n_w = L.shape[0] - 1
        n_pts = max(samples // ortho._N_SHIFTS, 1)
        shifts = np.random.default_rng(seed).random((ortho._N_SHIFTS, n_w))
        lattice = np.arange(1, n_pts + 1)[:, None] * _lattice_roots(n_w)
        per_batch = max(ortho._BATCH_POINTS // n_pts, 1)
        shift_logs = np.empty(ortho._N_SHIFTS)
        for start in range(0, ortho._N_SHIFTS, per_batch):
            block = shifts[start : start + per_batch]
            w = lattice[None, :, :] + block[:, None, :]
            w -= np.floor(w)
            w = np.abs(2.0 * w - 1.0)
            logf = ortho._log_orthant_prob_samples(
                L, a, w.reshape(len(block) * n_pts, n_w), mu
            )
            shift_logs[start : start + len(block)] = _logsumexp(
                logf.reshape(len(block), n_pts), axis=1
            ) - np.log(n_pts)
        log_value = float(_logsumexp(shift_logs) - np.log(ortho._N_SHIFTS))
        ratios = np.exp(shift_logs - log_value)
        return log_value, float(ratios.std(ddof=1) / np.sqrt(ortho._N_SHIFTS))

    @pytest.mark.parametrize("samples", [5_000, 20_000, 100_000])
    def test_whole_shift_budgets_are_unchanged(self, samples):
        cov = np.linalg.inv(self.H)
        setup = ortho._setup_of(cov, -self.mode)
        log_value, rel_err, n = ortho._log_probability(setup, samples, 4)
        tilted = setup.tilted
        assert tilted
        ref = self.whole_shift_batches(cov, -self.mode, samples, 4)
        assert (log_value, rel_err) == ref
        assert n == samples

    def test_no_pass_exceeds_the_batch(self, monkeypatch):
        rows = []
        inner = ortho._log_orthant_prob_samples

        def counting(L, lower, w, mu):
            rows.append(w.shape[0])
            return inner(L, lower, w, mu)

        monkeypatch.setattr(ortho, "_log_orthant_prob_samples", counting)
        est = self.estimate(300_000)
        assert est.samples == 300_000
        assert max(rows) <= ortho._BATCH_POINTS
        assert sum(rows) == 300_000

    def test_chunks_combine_to_the_whole_shift_estimate(self, monkeypatch):
        chunked = self.estimate(300_000)
        monkeypatch.setattr(ortho, "_BATCH_POINTS", 10**6)
        whole = self.estimate(300_000)
        assert chunked.log_value == pytest.approx(whole.log_value, rel=1e-12, abs=0)
        assert chunked.std_error == pytest.approx(whole.std_error, rel=1e-9, abs=0)

    def test_tiny_batches_combine_to_the_unchunked_estimate(self, monkeypatch):
        """Chunks of 10 points (10 per shift at 1,000 points) combine to
        the whole-shift estimate."""
        whole = self.estimate(1_000)
        monkeypatch.setattr(ortho, "_BATCH_POINTS", 10)
        chunked = self.estimate(1_000)
        assert chunked.samples == whole.samples == 1_000
        assert chunked.log_value == pytest.approx(whole.log_value, rel=0, abs=1e-12)
        assert chunked.std_error == pytest.approx(whole.std_error, rel=1e-9, abs=0)

    def test_one_chunk_per_shift_skips_the_chunk_combination(self, monkeypatch):
        """With one chunk per shift (every budget up to _N_SHIFTS *
        _BATCH_POINTS) the per-chunk log-sum-exps are the per-shift ones:
        the combination over one column returns it bit for bit, -inf (a
        shift whose every weight underflows) and +inf included, so the
        estimate equals the two-level combination it skips."""
        column = np.array(
            [-np.inf, -1e300, -745.5, -1.25, 0.0, 5e-324, 709.75, 1e300, np.inf]
        )
        combined = _logsumexp(column[:, None], axis=1)
        assert combined.tobytes() == column.tobytes()

        cov = np.linalg.inv(self.H)
        setup = ortho._setup_of(cov, -self.mode)
        samples, n_pts = 1_000, 100
        assert n_pts <= ortho._BATCH_POINTS  # one chunk per shift
        inner = ortho._log_orthant_prob_samples
        for special in (-np.inf, np.inf):
            drawn = []

            def weights(L, lower, w, mu):
                logf = inner(L, lower, w, mu).reshape(ortho._N_SHIFTS, n_pts)
                logf[[0, 3]] = -np.inf  # two shifts underflow entirely
                logf[5, 7] = special
                drawn.append(logf)
                return logf.ravel()

            monkeypatch.setattr(ortho, "_log_orthant_prob_samples", weights)
            got = ortho._log_probability(setup, samples, 4)
            (logf,) = drawn
            chunk_logs = _logsumexp(logf, axis=1)[:, None]
            shift_logs = _logsumexp(chunk_logs, axis=1) - np.log(n_pts)
            log_value = float(_logsumexp(shift_logs) - np.log(ortho._N_SHIFTS))
            if np.isfinite(log_value):
                ratios = np.exp(shift_logs - log_value)
                rel_err = float(ratios.std(ddof=1) / np.sqrt(ortho._N_SHIFTS))
            else:
                rel_err = np.inf
            assert np.isfinite(log_value) == (special == -np.inf)
            assert got == (log_value, rel_err, samples)


class TestMinimaxTilt:
    """Botev's minimax exponential tilt: the saddle point of psi, its bound,
    and the untilted fallback when Newton's method fails."""

    H = TestLargeBudgetChunks.H
    mode = np.array([-2.5, 0.3, -1.8, 0.6, -3.0])

    def saddle(self):
        cov = np.linalg.inv(self.H)
        L, a, means = ortho._priority_cholesky(cov[None], -self.mode[None])
        mu, psi, tilted = ortho._minimax_tilt(L, a, means)
        tilt = (mu[0], psi[0]) if tilted[0] else None
        return L[0], a[0], means[0], tilt

    def test_saddle_point_solves_the_system(self):
        L, a, _, (mu, psi) = self.saddle()
        m = a.size - 1
        diag = np.diag(L)
        B = L / diag[:, None] - np.eye(a.size)
        # x* from the mu equations, x = mu + P(t) (t_k depends on x_j, j < k
        # only); then the x equations
        x = np.zeros(a.size)
        for k in range(m):
            t_k = a[k] / diag[k] - B[k, :k] @ x[:k] - mu[k]
            x[k] = mu[k] + np.exp(norm.logpdf(t_k) - norm.logsf(t_k))
        t = a / diag - B @ x - mu
        P = np.exp(norm.logpdf(t) - norm.logsf(t))
        assert mu[-1] == 0.0
        assert np.allclose(B[:, :m].T @ P, mu[:m], atol=1e-8)
        expect = np.sum(norm.logsf(t)) + np.sum(0.5 * mu**2 - x * mu)
        assert psi == pytest.approx(expect, abs=1e-9)
        assert psi <= 0.0

    def test_every_log_weight_is_at_most_psi_star(self):
        L, a, _, (mu, psi) = self.saddle()
        w = np.random.default_rng(0).random((5_000, a.size - 1))
        logf = ortho._log_orthant_prob_samples(L, a, w, mu)
        assert np.max(logf) <= psi + 1e-12

    def test_estimate_is_at_most_its_bound(self):
        form = QuadraticForm(self.H, self.H @ self.mode, 0.3)
        est = orthant_integral(form, ortho.DEFAULT_SAMPLES, seed=2)
        assert est.tilted
        assert est.log_value <= est.log_bound
        assert est.log_bound <= ortho.log_gaussian_integral(form)

    @pytest.mark.parametrize("failure", ["singular_jacobian", "no_convergence"])
    def test_newton_failure_falls_back_to_the_untilted_estimate(
        self, monkeypatch, failure
    ):
        if failure == "singular_jacobian":
            def singular(J, b):
                return J, np.zeros(J.shape[0], dtype=np.int32), b, 1

            monkeypatch.setattr(scipy.linalg.lapack, "dgesv", singular)
        else:
            monkeypatch.setattr(ortho, "_TILT_STEPS", 0)
        cov = np.linalg.inv(self.H)
        assert self.saddle()[3] is None
        form = QuadraticForm(self.H, self.H @ self.mode)
        est = orthant_integral(form, 5_000, seed=4)
        assert not est.tilted
        ref = TestLargeBudgetChunks.whole_shift_batches(
            cov, -self.mode, 5_000, 4, tilted=False
        )
        log_prefactor = ortho.log_gaussian_integral(form)
        assert (est.log_value - log_prefactor, est.std_error) == pytest.approx(
            ref, rel=1e-12, abs=1e-12
        )
        # the only bound left is P <= 1
        assert est.log_bound == log_prefactor


class TestHardEvidenceIntegrals:
    """Joint evidence integrals of rrsb[44], log_normal[11], hedrih[77] and
    log_normal[88] at 30% noise: on each measurement, the candidate that
    the untilted sampler estimates worst at 5,000 points."""

    @pytest.fixture(scope="class")
    def draw(self):
        """``draw(family, index, seed)``: one water-in-air measurement of a
        truth at 30% noise (300 repeats, ``default_rng(seed)``), its noise
        tikhonov candidates."""
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            KernelLevelCache,
            fine_grid,
            forward_extinctions,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )

        wl, igrid, fgrid = study_wavelengths(), integration_grid(), fine_grid()
        kernel = make_kernel(get_material("h2o"), get_material("air"))
        builder = KernelLevelCache(kernel_rows(kernel, wl, igrid), wl, igrid)
        fine_rows = kernel_rows(kernel, wl, fgrid)

        def make(family, index, seed):
            dist = parameter_grid(family)[index]
            e_true = forward_extinctions(dist, None, wl, grid=fgrid, rows=fine_rows)
            meas = simulate_measurement(
                wl, e_true, 0.30, 300, rng=np.random.default_rng(seed)
            )
            return meas, msel.generate_models(meas, builder)

        return make

    @pytest.mark.parametrize(
        "family, index, seed",
        [("rrsb", 44, 0), ("log_normal", 11, 5), ("hedrih", 77, 5),
         ("log_normal", 88, 3)],
    )
    def test_default_budget_is_accurate(self, draw, monkeypatch, family, index, seed):
        meas, cands = draw(family, index, seed)
        with monkeypatch.context() as m:
            m.setattr(ortho, "_minimax_tilt", untilted_fallback)
            untilted = [
                msel.log_marginal_likelihood(c, meas, 5_000, 0) for c in cands
            ]
        worst = cands[int(np.argmax([u.std_error for u in untilted]))]
        est = msel.log_marginal_likelihood(worst, meas, seed=0)
        ref = msel.log_marginal_likelihood(worst, meas, 20_000, 1)
        assert est.tilted and est.samples == ortho.DEFAULT_SAMPLES
        assert est.std_error <= 0.05
        assert abs(est - ref) <= 3.0 * np.hypot(est.std_error, ref.std_error)

    def test_far_shifted_orthant_needs_step_halving(self, draw, monkeypatch):
        """rrsb[50]'s most shifted joint orthant (psi* near -110): full
        Newton steps do not converge there, halved ones do, and the tilted
        estimate agrees with a larger one where the untilted sampler is off
        by hundreds of nats."""
        meas, cands = draw("rrsb", 50, 50)
        forms = [msel._statistical_system(c, meas) for c in cands]
        ests = [orthant_integral(f, seed=0) for f in forms]
        gaps = [
            e.log_bound - ortho.log_gaussian_integral(f) for e, f in zip(ests, forms)
        ]
        form, est = forms[int(np.argmin(gaps))], ests[int(np.argmin(gaps))]
        assert min(gaps) < -100.0
        ref = orthant_integral(form, 20_000, seed=1)
        assert est.tilted and ref.tilted
        assert est.std_error <= 0.05
        assert abs(est.log_value - ref.log_value) <= 3.0 * np.hypot(
            est.std_error, ref.std_error
        )
        with monkeypatch.context() as m:
            m.setattr(ortho, "_TILT_HALVINGS", 1)  # full steps only
            # ``form`` keeps the set-up it was estimated with
            untilted = orthant_integral(fresh(form), seed=0)
        assert not untilted.tilted
        assert untilted.log_value < ref.log_value - 100.0


class TestPriorNormalizer:
    @pytest.mark.parametrize("N", [1, 5, 20])
    def test_tikhonov_closed_form(self, N):
        reg = build_regularizer("tikhonov", N)
        for gamma in (1e-3, 1.0, 1e3):
            est = prior_normalizer(reg, gamma)
            exact = (np.pi / (2 * gamma)) ** (N / 2)
            assert est.value == pytest.approx(exact, rel=1e-12)
            assert est.std_error == 0.0

    @pytest.mark.parametrize("kind", ["first_diff", "twomey"])
    def test_orthant_probability_cached_across_scales(self, kind, monkeypatch):
        """One log P0 per (kind, N) whatever the scale.  first_diff is closed
        form and twomey N = 7 is in the shipped table, so the estimator
        never runs for them; twomey N = 49 lies past the table's end and
        runs it exactly once."""
        calls = []
        inner = msel.log_orthant_probability

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(msel, "log_orthant_probability", counting)
        msel._log_prior_orthant_probability.cache_clear()
        cases = [(7, 0)] if kind == "first_diff" else [(7, 0), (49, 1)]
        for N, expected_calls in cases:
            calls.clear()
            reg = build_regularizer(kind, N)
            logdet_r = np.linalg.slogdet(reg.matrix)[1]
            log_p0 = set()
            for gamma in (1e-3, 1.0, 1e3):
                est = prior_normalizer(reg, gamma)
                gauss = 0.5 * (N * np.log(2 * np.pi / gamma) - logdet_r)
                log_p0.add(round(est.log_value - gauss, 9))
            assert len(calls) == expected_calls, N
            assert len(log_p0) == 1

    @pytest.mark.parametrize("kind", ["first_diff", "twomey"])
    @pytest.mark.parametrize("N", [5, 12])
    def test_cached_probability_matches_orthant_integral(self, kind, N):
        reg = build_regularizer(kind, N)
        gamma = 2.5
        cached = prior_normalizer(reg, gamma)
        direct = orthant_integral(
            QuadraticForm(gamma * reg.matrix, np.zeros(N)), 100_000, seed=1
        )
        tol = 3.0 * np.hypot(cached.std_error, direct.std_error)
        assert 0.0 < tol
        assert abs(cached.log_value - direct.log_value) <= tol

    @pytest.mark.parametrize("N", [2, 5, 13, 29, 48])
    def test_first_diff_is_one_over_n_plus_one(self, N):
        """The cycle lemma's 1/(N+1) against the 100k-point estimate."""
        est = log_orthant_probability(
            build_regularizer("first_diff", N).matrix, np.zeros(N), 100_000, 0
        )
        exact = prior_normalizer(build_regularizer("first_diff", N), 1.0)
        gauss = 0.5 * (
            N * np.log(2 * np.pi)
            - np.linalg.slogdet(build_regularizer("first_diff", N).matrix)[1]
        )
        assert exact.std_error == 0.0 and exact.samples == 0
        assert exact.log_value - gauss == pytest.approx(-np.log(N + 1), abs=1e-12)
        assert abs(est.log_value + np.log(N + 1)) <= 3.0 * est.std_error

    @pytest.mark.parametrize("N", [2, 5, 13])
    def test_tent_transform_shrinks_the_error(self, monkeypatch, N):
        """Over seeds 0-19 at 10,000 points, the root-mean-square error of
        log P(first_diff orthant) against log 1/(N+1) is smaller with the
        baker's transform than with the bare wrapped lattice."""
        H = build_regularizer("first_diff", N).matrix

        def rms_error():
            errs = [
                log_orthant_probability(H, np.zeros(N), 10_000, seed).log_value
                + np.log(N + 1)
                for seed in range(20)
            ]
            return np.sqrt(np.mean(np.square(errs)))

        tent = rms_error()
        monkeypatch.setattr(ortho, "_tent", lambda w: w)
        bare = rms_error()
        assert tent < 0.8 * bare


class TestTwomeyPriorTable:
    """The shipped twomey P0 table holds the prior estimator's own values."""

    @staticmethod
    def table():
        return msel._twomey_prior_table()

    def test_covers_one_to_48_with_finite_values(self):
        table = self.table()
        assert sorted(table) == list(range(1, 49))
        for N, (log_p0, std_error, samples) in table.items():
            assert np.isfinite(log_p0) and np.isfinite(std_error)
            assert log_p0 < 0.0
            assert samples == msel._PRIOR_SAMPLES
            assert std_error > 0.0 if N >= 2 else std_error == 0.0

    def test_n1_is_one_half(self):
        """One variable: P0 = 1/2.  The sampler's log-space mean of 10,000
        equal terms rounds once, so the entry may sit one ulp from log 1/2."""
        log_p0, std_error, _ = self.table()[1]
        assert abs(log_p0 - np.log(0.5)) <= abs(np.spacing(np.log(0.5)))
        assert std_error == 0.0

    @staticmethod
    def correlations(N):
        cov = np.linalg.inv(build_regularizer("twomey", N).matrix)
        sd = np.sqrt(np.diag(cov))
        return cov / np.outer(sd, sd)

    def test_n2_and_n3_closed_forms(self):
        """Orthant probabilities of 2 and 3 correlated standard normals:
        1/4 + asin(rho)/(2 pi), and 1/8 + sum asin(rho_ij)/(4 pi)."""
        rho = self.correlations(2)
        exact2 = 0.25 + np.arcsin(rho[0, 1]) / (2 * np.pi)
        rho = self.correlations(3)
        exact3 = 0.125 + sum(
            np.arcsin(rho[i, j]) for i, j in ((0, 1), (0, 2), (1, 2))
        ) / (4 * np.pi)
        for N, exact in ((2, exact2), (3, exact3)):
            log_p0, std_error, _ = self.table()[N]
            assert abs(log_p0 - np.log(exact)) <= 3.0 * std_error, N

    @pytest.mark.parametrize("N", [2, 13, 48])
    def test_entries_match_a_fresh_estimate(self, N):
        """Within three standard errors anywhere; bit for bit on a machine
        whose floating point matches the one that wrote the table."""
        log_p0, std_error, samples = self.table()[N]
        fresh = msel._estimate_log_prior_orthant_probability("twomey", N)
        assert fresh[2] == samples
        tol = 3.0 * np.hypot(std_error, fresh[1])
        assert abs(fresh[0] - log_p0) <= tol

    def test_no_estimator_run_up_to_48(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            msel, "log_orthant_probability", lambda *a, **k: calls.append(a)
        )
        msel._log_prior_orthant_probability.cache_clear()
        for N in range(1, 49):
            prior_normalizer(build_regularizer("twomey", N), 1.0)
        assert calls == []

    def test_read_on_first_use_not_at_import(self):
        code = (
            "import aeroinv, aeroinv.model_selection as m; "
            "print(m._twomey_prior_table.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.stdout.strip() == "0"


class TestInPackageArithmetic:
    """The orthant sampler's own logsumexp and lattice wrap reproduce
    ``scipy.special.logsumexp`` and ``np.mod`` bit for bit."""

    @staticmethod
    def rows(seed):
        """Log weights spanning 1e3 in log scale, with tied maxima and
        all -inf rows mixed in."""
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1e3, 0.0, (6, 257)) * rng.uniform(1e-3, 1.0, (6, 1))
        a[1, [3, 40, 200]] = a[1].max() + 1.0  # a three-way tie at the top
        a[2, :] = a[2, 0]  # every entry tied
        a[3, :] = -np.inf
        a[4, ::2] = -np.inf
        a[5, 7] = a[5, 9] = 0.0  # two tied maxima with other mass near them
        a[5, 8] = -1e-16
        return a

    @pytest.mark.parametrize("seed", range(5))
    def test_logsumexp_rows_match_scipy(self, seed):
        a = self.rows(seed)
        ours, ref = _logsumexp(a, axis=1), scipy.special.logsumexp(a, axis=1)
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ref)
        assert ours[3] == -np.inf

    @pytest.mark.parametrize("seed", range(5))
    def test_logsumexp_vectors_match_scipy(self, seed):
        for row in self.rows(seed):
            ours, ref = _logsumexp(row), scipy.special.logsumexp(row)
            assert np.shape(ours) == np.shape(ref) == ()
            assert np.array_equal(ours, ref)
        short = np.array([-3.0, 2.5, 2.5, -np.inf])
        assert _logsumexp(short) == scipy.special.logsumexp(short)

    def test_floor_wrap_is_mod_one(self):
        rng = np.random.default_rng(3)
        for dim in range(1, 49):
            lattice = np.arange(1, 501)[:, None] * _lattice_roots(dim)
            w = lattice[None, :, :] + rng.random((4, dim))[:, None, :]
            ref = np.mod(w, 1.0)
            w -= np.floor(w)
            assert np.array_equal(w, ref)
