import itertools

import numpy as np
import pytest

from aeroinv.errors import TargetOutOfRange
from aeroinv.tikhonov_qp import (
    QpSolution,
    WeightedProblem,
    solve_constrained_tikhonov,
    solve_discrepancy,
    solve_nnls,
    weighted_residual,
)


def brute_force_qp(K, r, R, gamma):
    """Enumerate all active sets; return the KKT-certified feasible optimum."""
    N = K.shape[1]
    best, best_obj = None, np.inf
    for mask in itertools.product([False, True], repeat=N):
        free = np.array(mask)
        x = np.zeros(N)
        if free.any():
            if gamma > 0:
                U = np.linalg.cholesky(R).T
                A = np.vstack([K, np.sqrt(gamma) * U])
                b = np.concatenate([r, np.zeros(N)])
            else:
                A, b = K, r
            x[free] = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
        if np.any(x < -1e-9):
            continue
        g = K.T @ (K @ x - r) + gamma * (R @ x)
        if np.any(g[~free] < -1e-7):
            continue
        obj = 0.5 * np.sum((K @ x - r) ** 2) + 0.5 * gamma * (x @ R @ x)
        if obj < best_obj - 1e-14:
            best_obj, best = obj, x
    return best


def check_kkt(sol: QpSolution, K, r, R, gamma):
    scale = max(np.max(np.abs(K.T @ r)), 1e-30)
    assert np.all(sol.n >= 0.0)
    assert np.all(sol.duals >= 0.0)
    assert np.max(np.abs(sol.n * sol.duals)) <= 1e-10 * max(scale, 1.0)
    grad = K.T @ (K @ sol.n - r) + gamma * (R @ sol.n)
    assert np.linalg.norm(grad - sol.duals) <= 1e-8 * scale


class TestSolvers:
    def test_zero_data(self):
        K = np.random.default_rng(0).normal(size=(5, 3))
        for gamma in (0.0, 1.0):
            sol = solve_constrained_tikhonov(
                WeightedProblem(K, np.zeros(5), np.eye(3), gamma)
            )
            assert np.array_equal(sol.n, np.zeros(3))

    def test_identity_clamp(self):
        sol = solve_constrained_tikhonov(
            WeightedProblem(np.eye(3), np.array([1.0, -2.0, 3.0]), np.eye(3), 0.0)
        )
        assert sol.n == pytest.approx([1.0, 0.0, 3.0])

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            K = rng.normal(size=(6, 4))
            r = rng.normal(size=6)
            M = rng.normal(size=(4, 4))
            R = M @ M.T + 4 * np.eye(4)
            sol = solve_constrained_tikhonov(WeightedProblem(K, r, R, 0.1))
            oracle = brute_force_qp(K, r, R, 0.1)
            assert sol.n == pytest.approx(oracle, abs=1e-8)
            check_kkt(sol, K, r, R, 0.1)

    def test_nnls_trivial_and_exact_fit(self):
        rng = np.random.default_rng(1)
        K = rng.normal(size=(8, 5))
        assert np.array_equal(solve_nnls(K, np.zeros(8)).n, np.zeros(5))
        n_true = rng.uniform(0.5, 2.0, 5)
        r = K @ n_true
        sol = solve_nnls(K, r)
        assert sol.residual_sq <= 1e-16 * float(r @ r)

    def test_nnls_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            K = rng.normal(size=(8, 5))
            r = rng.normal(size=8)
            sol = solve_nnls(K, r)
            oracle = brute_force_qp(K, r, np.eye(5), 0.0)
            assert sol.n == pytest.approx(oracle, abs=1e-8)

    def test_nnls_matches_scipy(self):
        from scipy.optimize import nnls as scipy_nnls

        rng = np.random.default_rng(3)
        for _ in range(50):
            K = rng.normal(size=(rng.integers(4, 12), rng.integers(2, 8)))
            r = rng.normal(size=K.shape[0])
            sol = solve_nnls(K, r)
            ref, _ = scipy_nnls(K, r)
            assert sol.n == pytest.approx(ref, abs=1e-8)


class TestWeightedResidual:
    def test_zero_solution(self):
        r = np.array([1.0, 2.0])
        assert weighted_residual(np.eye(2), np.zeros(2), r) == pytest.approx(5.0)

    def test_exact_solution(self):
        K = np.array([[2.0, 0.0], [0.0, 3.0]])
        n = np.array([1.0, 2.0])
        assert weighted_residual(K, n, K @ n) == 0.0

    def test_hand_value(self):
        assert weighted_residual(
            np.eye(2), np.array([1.0, 1.0]), np.array([2.0, 0.0])
        ) == pytest.approx(2.0)


class TestDiscrepancy:
    def make_instance(self, seed=0, m=10, n=4):
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(m, n))
        n0 = rng.uniform(0.5, 2.0, n)
        r = K @ n0 + 0.2 * rng.normal(size=m)
        return K, r

    def test_target_below_floor(self):
        K, r = self.make_instance()
        base = solve_nnls(K, r)
        with pytest.raises(TargetOutOfRange):
            solve_discrepancy(K, r, np.eye(4), 0.5 * base.residual_sq)

    def test_target_at_or_above_data_norm(self):
        K, r = self.make_instance()
        with pytest.raises(TargetOutOfRange):
            solve_discrepancy(K, r, np.eye(4), float(r @ r))
        with pytest.raises(TargetOutOfRange):
            solve_discrepancy(K, r, np.eye(4), 2.0 * float(r @ r))

    def test_bracketing_oracle(self):
        for seed in range(5):
            K, r = self.make_instance(seed)
            base = solve_nnls(K, r)
            target = 0.5 * (base.residual_sq + float(r @ r))
            gamma, sol = solve_discrepancy(K, r, np.eye(4), target)
            assert abs(sol.residual_sq - target) <= 1e-6 * target
            # independent local check: residuals at gamma*(1 +/- 1%) bracket
            lo = solve_constrained_tikhonov(
                WeightedProblem(K, r, np.eye(4), gamma * 0.99)
            )
            hi = solve_constrained_tikhonov(
                WeightedProblem(K, r, np.eye(4), gamma * 1.01)
            )
            assert lo.residual_sq <= target * (1 + 1e-5)
            assert hi.residual_sq >= target * (1 - 1e-5)

    def test_given_base_residual_skips_the_range_nnls(self, monkeypatch):
        import aeroinv.tikhonov_qp as qp

        K, r = self.make_instance(3)
        base = solve_nnls(K, r).residual_sq
        target = 0.5 * (base + float(r @ r))
        gamma, sol = solve_discrepancy(K, r, np.eye(4), target)
        calls = []
        monkeypatch.setattr(qp, "solve_nnls", lambda *a: calls.append(a))
        gamma_b, sol_b = solve_discrepancy(K, r, np.eye(4), target, base)
        assert calls == []
        assert gamma_b == gamma
        assert np.array_equal(sol_b.n, sol.n)
        with pytest.raises(TargetOutOfRange):
            solve_discrepancy(K, r, np.eye(4), 0.5 * base, base)

    def test_general_regularizer_target(self):
        rng = np.random.default_rng(11)
        K = rng.normal(size=(12, 5))
        r = K @ rng.uniform(0.5, 2.0, 5) + 0.3 * rng.normal(size=12)
        M = rng.normal(size=(5, 5))
        R = M @ M.T + 5 * np.eye(5)
        base = solve_nnls(K, r)
        target = 0.3 * base.residual_sq + 0.7 * float(r @ r)
        gamma, sol = solve_discrepancy(K, r, R, target)
        assert abs(sol.residual_sq - target) <= 1e-6 * target
        check_kkt(sol, K, r, R, gamma)


class TestTheoryProperties:
    def gamma_ladder(self, K):
        scale = np.mean(np.diag(K.T @ K))
        return scale * np.logspace(-3, 3, 20)

    def consistent_instance(self, seed, m=12, n=6):
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(m, n))
        n0 = rng.uniform(0.2, 2.0, n)
        r = K @ n0 + 0.3 * rng.normal(size=m)
        return K, r, n0

    def test_residual_strictly_increasing_norm_nonincreasing(self):
        for seed in range(20):
            K, r, _ = self.consistent_instance(seed)
            base = solve_nnls(K, r)
            r_norm_sq = float(r @ r)
            if not base.residual_sq < r_norm_sq or not np.any(base.n > 0):
                continue
            res_prev, norm_prev = base.residual_sq, np.linalg.norm(base.n)
            for gamma in self.gamma_ladder(K):
                sol = solve_constrained_tikhonov(
                    WeightedProblem(K, r, np.eye(K.shape[1]), gamma)
                )
                assert sol.residual_sq > res_prev + 1e-12 * r_norm_sq
                assert np.linalg.norm(sol.n) <= norm_prev + 1e-12
                res_prev, norm_prev = sol.residual_sq, np.linalg.norm(sol.n)

    def test_limit_large_gamma(self):
        K, r, _ = self.consistent_instance(5)
        sol = solve_constrained_tikhonov(
            WeightedProblem(K, r, np.eye(K.shape[1]), 1e14)
        )
        assert np.linalg.norm(sol.n) <= 1e-10
        assert sol.residual_sq == pytest.approx(float(r @ r), rel=1e-8)

    def test_noise_free_rate_bound(self):
        # consistent data: || K(n0 - n_alpha) || <= sqrt(alpha) * ||n0||
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            K = rng.normal(size=(12, 6))
            n0 = rng.uniform(0.2, 2.0, 6)
            r = K @ n0
            for alpha in np.logspace(-4, 0, 9):
                sol = solve_constrained_tikhonov(
                    WeightedProblem(K, r, np.eye(6), alpha)
                )
                lhs = np.linalg.norm(K @ (n0 - sol.n))
                assert lhs <= np.sqrt(alpha) * np.linalg.norm(n0) + 1e-10

    def test_stability_bounds(self):
        # || K(n - n~) || <= || r - r~ || and || n - n~ || <= || r - r~ || / sqrt(a)
        rng = np.random.default_rng(8)
        for _ in range(10):
            K = rng.normal(size=(10, 5))
            r1 = rng.normal(size=10)
            r2 = r1 + 0.1 * rng.normal(size=10)
            for alpha in (1e-2, 1e-1, 1.0):
                s1 = solve_constrained_tikhonov(
                    WeightedProblem(K, r1, np.eye(5), alpha)
                )
                s2 = solve_constrained_tikhonov(
                    WeightedProblem(K, r2, np.eye(5), alpha)
                )
                dr = np.linalg.norm(r1 - r2)
                assert np.linalg.norm(K @ (s1.n - s2.n)) <= dr + 1e-10
                assert np.linalg.norm(s1.n - s2.n) <= dr / np.sqrt(alpha) + 1e-10

    def test_noisy_convergence_monotone(self):
        # mean error over 50 draws decreases as delta drops with alpha = delta
        rng = np.random.default_rng(17)
        K = rng.normal(size=(15, 5))
        n0 = rng.uniform(0.5, 2.0, 5)
        r_true = K @ n0
        means = []
        for delta in (1e-1, 1e-2, 1e-3):
            errs = []
            for _ in range(50):
                r = r_true + delta * rng.standard_normal(15)
                sol = solve_constrained_tikhonov(
                    WeightedProblem(K, r, np.eye(5), delta)
                )
                errs.append(np.linalg.norm(sol.n - n0))
            means.append(np.mean(errs))
        assert means[0] > means[1] > means[2]


class TestDiscrepancySearch:
    """The shared log-gamma search behind the constrained and ridge fits."""

    def test_monotone_residual_meets_tolerance(self):
        from aeroinv.tikhonov_qp import _DISCREPANCY_RTOL, _discrepancy_search

        evaluate = lambda gamma: (gamma / (1.0 + gamma), gamma)
        gamma, result, res = _discrepancy_search(evaluate, 0.25)
        assert result == gamma
        assert abs(res - 0.25) <= _DISCREPANCY_RTOL * 0.25
        assert gamma == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_no_lower_bracket_raises_bracket_failure(self):
        from aeroinv.errors import BracketFailure
        from aeroinv.tikhonov_qp import _discrepancy_search

        tried = []

        def evaluate(gamma):
            tried.append(gamma)
            return 5.0, None

        with pytest.raises(BracketFailure):
            _discrepancy_search(evaluate, 2.0)
        assert min(tried) == pytest.approx(1e-30)

    def test_jump_across_target_raises_root_failure(self):
        from aeroinv.errors import RootFailure
        from aeroinv.tikhonov_qp import _discrepancy_search

        evaluate = lambda gamma: (1.0 if gamma < 1.0 else 3.0, None)
        with pytest.raises(RootFailure):
            _discrepancy_search(evaluate, 2.0)
