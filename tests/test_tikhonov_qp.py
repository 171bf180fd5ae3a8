import itertools

import numpy as np
import pytest

from aeroinv.errors import IllConditioned, MaxIterations, TargetOutOfRange
from aeroinv.tikhonov_qp import (
    QpSolution,
    Regularizer,
    solve_constrained_tikhonov,
    solve_discrepancy,
    solve_nnls,
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
                K, np.zeros(5), Regularizer(np.eye(3)), gamma
            )
            assert np.array_equal(sol.n, np.zeros(3))

    def test_problem_checks(self):
        K, r = np.eye(3), np.ones(3)
        with pytest.raises(ValueError, match="needs a regularizer"):
            solve_constrained_tikhonov(K, r, None, 0.5)
        with pytest.raises(ValueError, match="dimensions"):
            solve_constrained_tikhonov(K, r, Regularizer(np.eye(2)), 0.5)
        for gamma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                solve_constrained_tikhonov(K, r, Regularizer(np.eye(3)), gamma)
        assert solve_constrained_tikhonov(K, r, None, 0.0).n == pytest.approx(r)

    def test_identity_clamp(self):
        sol = solve_constrained_tikhonov(
            np.eye(3), np.array([1.0, -2.0, 3.0]), Regularizer(np.eye(3)), 0.0
        )
        assert sol.n == pytest.approx([1.0, 0.0, 3.0])

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            K = rng.normal(size=(6, 4))
            r = rng.normal(size=6)
            M = rng.normal(size=(4, 4))
            R = M @ M.T + 4 * np.eye(4)
            sol = solve_constrained_tikhonov(K, r, Regularizer(R), 0.1)
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

    @pytest.mark.xfail(
        raises=MaxIterations, strict=True,
        reason="the dual tolerance scales with max |K'r| alone, so on a column "
        "of norm 1e-104 the Gram loop re-enters a variable on rounding noise "
        "and cycles to its cap",
    )
    def test_nnls_with_a_column_near_1e_minus_104(self):
        # a hypothesis example of the least-squares bound property; scipy's
        # compiled NNLS solves it, with residual 0.5
        from scipy.optimize import nnls as scipy_nnls

        tiny = 6.42336431e-105
        K = np.array(
            [[0.0, tiny, 2.0 * tiny], [-1.0, tiny, 1.0], [0.0, tiny, 2.0 * tiny]]
        )
        r = np.array([1.0, 0.0, 0.0])
        sol = solve_nnls(K, r)
        assert sol.residual_sq == pytest.approx(scipy_nnls(K, r)[1] ** 2)

    @pytest.mark.xfail(
        raises=MaxIterations, strict=True,
        reason="Gram entries near 1e-260 make the passive solves extremely "
        "ill-conditioned, and the Gram loop cycles to its cap",
    )
    def test_nnls_with_entries_near_1e_minus_130(self):
        # a tikhonov_problems draw of the property tests; scipy's compiled
        # NNLS solves it, with residual 54.845
        from scipy.optimize import nnls as scipy_nnls

        K = np.full((5, 5), 1.5225902635815908e-130)
        K[0, 1], K[0, 3] = 1.5, -7.4057513282135723
        K[1, 0] = 7.6430804491910685e-89
        r = np.array([7.6430804491910685e-89, 1.5, 0.0, -7.4057513282135723, 0.0])
        sol = solve_nnls(K, r)
        assert sol.residual_sq == pytest.approx(scipy_nnls(K, r)[1] ** 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_start_returns_the_same_bits(self, seed):
        """With a unique, nondegenerate minimizer (gamma > 0, or gamma = 0
        and full column rank) the start changes the loop's path, not its
        answer: no start, all free, none free and random passive sets all
        return n bit for bit."""
        rng = np.random.default_rng(300 + seed)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(n, 16)) if seed % 2 else int(rng.integers(1, 16))
            K = rng.normal(size=(m, n))
            r = rng.normal(size=m)
            M = rng.normal(size=(n, n))
            reg = Regularizer(M @ M.T + n * np.eye(n))
            gamma = 0.0 if seed % 2 else 10.0 ** rng.uniform(-4.0, 2.0)
            starts = [np.ones(n, bool), np.zeros(n, bool)]
            starts += [rng.uniform(size=n) < 0.5 for _ in range(6)]
            ref = solve_constrained_tikhonov(K, r, reg, gamma)
            for start in starts:
                sol = solve_constrained_tikhonov(K, r, reg, gamma, start)
                assert sol.n.tobytes() == ref.n.tobytes()
                assert np.array_equal(sol.active_set, ref.active_set)


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
            solve_discrepancy(K, r, Regularizer(np.eye(4)), 0.5 * base.residual_sq)

    def test_target_at_or_above_data_norm(self):
        K, r = self.make_instance()
        with pytest.raises(TargetOutOfRange):
            solve_discrepancy(K, r, Regularizer(np.eye(4)), float(r @ r))
        with pytest.raises(TargetOutOfRange):
            solve_discrepancy(K, r, Regularizer(np.eye(4)), 2.0 * float(r @ r))

    def test_bracketing_oracle(self):
        for seed in range(5):
            K, r = self.make_instance(seed)
            base = solve_nnls(K, r)
            target = 0.5 * (base.residual_sq + float(r @ r))
            gamma, sol = solve_discrepancy(K, r, Regularizer(np.eye(4)), target)
            assert abs(sol.residual_sq - target) <= 1e-6 * target
            # independent local check: residuals at gamma*(1 +/- 1%) bracket
            lo = solve_constrained_tikhonov(
                K, r, Regularizer(np.eye(4)), gamma * 0.99
            )
            hi = solve_constrained_tikhonov(
                K, r, Regularizer(np.eye(4)), gamma * 1.01
            )
            assert lo.residual_sq <= target * (1 + 1e-5)
            assert hi.residual_sq >= target * (1 - 1e-5)

    def test_given_base_residual_skips_the_range_nnls(self, monkeypatch):
        import aeroinv.tikhonov_qp as qp

        K, r = self.make_instance(3)
        base = solve_nnls(K, r).residual_sq
        target = 0.5 * (base + float(r @ r))
        gamma, sol = solve_discrepancy(K, r, Regularizer(np.eye(4)), target)
        calls = []
        monkeypatch.setattr(qp, "solve_nnls", lambda *a: calls.append(a))
        gamma_b, sol_b = solve_discrepancy(K, r, Regularizer(np.eye(4)), target, base)
        assert calls == []
        assert gamma_b == gamma
        assert np.array_equal(sol_b.n, sol.n)
        with pytest.raises(TargetOutOfRange):
            solve_discrepancy(K, r, Regularizer(np.eye(4)), 0.5 * base, base)

    def test_general_regularizer_target(self):
        rng = np.random.default_rng(11)
        K = rng.normal(size=(12, 5))
        r = K @ rng.uniform(0.5, 2.0, 5) + 0.3 * rng.normal(size=12)
        M = rng.normal(size=(5, 5))
        R = M @ M.T + 5 * np.eye(5)
        base = solve_nnls(K, r)
        target = 0.3 * base.residual_sq + 0.7 * float(r @ r)
        gamma, sol = solve_discrepancy(K, r, Regularizer(R), target)
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
                    K, r, Regularizer(np.eye(K.shape[1])), gamma
                )
                assert sol.residual_sq > res_prev + 1e-12 * r_norm_sq
                assert np.linalg.norm(sol.n) <= norm_prev + 1e-12
                res_prev, norm_prev = sol.residual_sq, np.linalg.norm(sol.n)

    def test_limit_large_gamma(self):
        K, r, _ = self.consistent_instance(5)
        sol = solve_constrained_tikhonov(
            K, r, Regularizer(np.eye(K.shape[1])), 1e14
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
                    K, r, Regularizer(np.eye(6)), alpha
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
                    K, r1, Regularizer(np.eye(5)), alpha
                )
                s2 = solve_constrained_tikhonov(
                    K, r2, Regularizer(np.eye(5)), alpha
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
                    K, r, Regularizer(np.eye(5)), delta
                )
                errs.append(np.linalg.norm(sol.n - n0))
            means.append(np.mean(errs))
        assert means[0] > means[1] > means[2]


class TestDiscrepancySearch:
    """The bracketed log-gamma search of ``solve_discrepancy``, driven by a
    stand-in residual map in place of the constrained solve."""

    def search(self, monkeypatch, residual, target):
        """``solve_discrepancy`` on a 1 x 1 problem whose constrained
        residual at gamma is ``residual(gamma)``; the stand-in solution is
        zero, so every step after the first bisects."""
        import aeroinv.tikhonov_qp as qp

        monkeypatch.setattr(
            qp, "solve_constrained_tikhonov",
            lambda K, r, reg, gamma, init_passive=None: QpSolution(
                np.zeros(1), np.zeros(1), residual(gamma), np.arange(1)
            ),
        )
        K, r, reg = np.ones((1, 1)), np.array([3.0]), Regularizer(np.eye(1))
        return solve_discrepancy(K, r, reg, target, 0.0)

    def test_monotone_residual_meets_tolerance(self, monkeypatch):
        from aeroinv.tikhonov_qp import _DISCREPANCY_RTOL

        residual = lambda gamma: gamma / (1.0 + gamma)
        gamma, sol = self.search(monkeypatch, residual, 0.25)
        assert sol.residual_sq == residual(gamma)
        assert abs(sol.residual_sq - 0.25) <= _DISCREPANCY_RTOL * 0.25
        assert gamma == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_no_lower_bracket_raises_bracket_failure(self, monkeypatch):
        from aeroinv.errors import BracketFailure

        tried = []
        residual = lambda gamma: tried.append(gamma) or 5.0
        with pytest.raises(BracketFailure):
            self.search(monkeypatch, residual, 2.0)
        assert min(tried) == pytest.approx(1e-30)

    def test_jump_across_target_raises_root_failure(self, monkeypatch):
        from aeroinv.errors import RootFailure

        with pytest.raises(RootFailure):
            self.search(monkeypatch, lambda gamma: 1.0 if gamma < 1.0 else 3.0, 2.0)


def brent_on_nnls(K, r, reg, target):
    """Reference ``(gamma, QpSolution)``: Brent's method on log10 gamma over
    constrained solves, bracketed by the search's gamma span."""
    from scipy.optimize import brentq

    from aeroinv.tikhonov_qp import _LOG_GAMMA_CEILING, _LOG_GAMMA_FLOOR

    excess = lambda t: (
        solve_constrained_tikhonov(K, r, reg, 10.0**t).residual_sq - target
    )
    gamma = 10.0 ** brentq(excess, _LOG_GAMMA_FLOOR, _LOG_GAMMA_CEILING)
    return gamma, solve_constrained_tikhonov(K, r, reg, gamma)


def residual_slope(K, r, reg, gamma, h=1e-3):
    """d residual / d gamma of the constrained solution, by central difference."""
    lo, hi = (
        solve_constrained_tikhonov(K, r, reg, gamma * f).residual_sq
        for f in (1.0 - h, 1.0 + h)
    )
    return (hi - lo) / (2.0 * h * gamma)


def record_steps(monkeypatch):
    """Lists that fill with the ridge-curve roots the search computes and
    the gammas it solves at; a solve at no root is a bisection step."""
    import aeroinv.tikhonov_qp as qp

    roots, solves = [], []
    ridge_root, solve = qp._ridge_root, qp.solve_constrained_tikhonov

    def root_of(*args, **kwargs):
        found = ridge_root(*args, **kwargs)
        roots.append(None if np.isnan(found) else found)
        return found

    def solve_at(K, r, reg, gamma, init_passive=None):
        solves.append(gamma)
        return solve(K, r, reg, gamma, init_passive)

    monkeypatch.setattr(qp, "_ridge_root", root_of)
    monkeypatch.setattr(qp, "solve_constrained_tikhonov", solve_at)
    return roots, solves


class TestPassiveSetSearch:
    """The constrained search on passive-set ridge curves and its bisection
    steps."""

    def instance(self, seed, m=14, n=7):
        rng = np.random.default_rng(seed)
        K = np.abs(rng.normal(size=(m, n)))
        n0 = np.where(rng.uniform(size=n) < 0.4, 0.0, rng.uniform(0.5, 2.0, n))
        r = K @ n0 + 0.5 * rng.normal(size=m)
        M = rng.normal(size=(n, n))
        R = np.eye(n) if seed % 2 else M @ M.T + n * np.eye(n)
        base = solve_nnls(K, r).residual_sq
        target = base + rng.uniform(0.1, 0.9) * (float(r @ r) - base)
        return K, r, Regularizer(R), target

    def unreachable_round_two(self):
        """A problem whose second passive set cannot reach the target: that
        set's ridge curve stays above it for every gamma."""
        K = np.array([
            [-1.0, 0.3, 0.2, -1.8],
            [-2.2, 0.5, -1.0, 1.0],
            [2.1, -0.6, -0.7, 0.0],
            [0.7, -1.1, 1.2, 1.0],
            [0.7, -0.5, 0.9, 0.9],
        ])
        r = np.array([2.1, -0.3, 0.4, -0.5, 0.4])
        base = solve_nnls(K, r).residual_sq
        return K, r, Regularizer(np.eye(4)), base + 0.1 * (float(r @ r) - base)

    def assert_meets_brent_reference(self, K, r, reg, target, gamma, sol):
        import aeroinv.tikhonov_qp as qp

        gamma_b, sol_b = brent_on_nnls(K, r, reg, target)
        tol = qp._DISCREPANCY_RTOL * target
        for g, s in ((gamma, sol), (gamma_b, sol_b)):
            assert abs(s.residual_sq - target) <= tol
            check_kkt(s, K, r, reg.matrix, g)
        # both residuals lie within tol of the target, so the gammas may
        # differ by at most 2 tol over the residual's slope
        slope = residual_slope(K, r, reg, gamma)
        assert abs(gamma - gamma_b) <= 1.05 * 2.0 * tol / slope
        assert sol.n == pytest.approx(sol_b.n, rel=1e-3, abs=1e-6)

    def test_passive_and_brent_find_gamma_within_the_tolerance(self):
        for seed in range(12):
            K, r, reg, target = self.instance(seed)
            gamma, sol = solve_discrepancy(K, r, reg, target)
            self.assert_meets_brent_reference(K, r, reg, target, gamma, sol)

    def test_unreachable_round_two_bisects_to_the_target(self, monkeypatch):
        from aeroinv.tikhonov_qp import SearchState

        K, r, reg, target = self.unreachable_round_two()
        roots, solves = record_steps(monkeypatch)
        gamma, sol = solve_discrepancy(K, r, reg, target)
        assert roots[1] is None  # round two's curve has no root
        assert any(g not in roots for g in solves)  # a midpoint step ran
        self.assert_meets_brent_reference(K, r, reg, target, gamma, sol)
        # a shared search state changes nothing here either
        state = SearchState(K, r, reg)
        state.begin([target])
        gamma_s, sol_s = solve_discrepancy(K, r, reg, target, state=state)
        assert gamma_s == gamma
        assert np.array_equal(sol_s.n, sol.n)

    def test_every_trial_solves_warm_from_its_passive_set(self, monkeypatch):
        """No solve inside a search takes the compiled-NNLS start, also on
        inputs where a passive set's ridge root has negative entries or
        violated duals (the unreachable problem, and seed 10)."""
        import aeroinv.tikhonov_qp as qp

        compiled, compiled_start = [], qp._compiled_passive_set
        monkeypatch.setattr(
            qp, "_compiled_passive_set",
            lambda A, b: compiled.append(A.shape) or compiled_start(A, b),
        )
        for K, r, reg, target in (self.unreachable_round_two(), self.instance(10)):
            base = solve_nnls(K, r).residual_sq
            compiled.clear()
            gamma, sol = solve_discrepancy(K, r, reg, target, base)
            assert compiled == []
            assert abs(sol.residual_sq - target) <= qp._DISCREPANCY_RTOL * target
            check_kkt(sol, K, r, reg.matrix, gamma)

    def test_forced_fallback_is_the_brent_search(self, monkeypatch):
        import aeroinv.tikhonov_qp as qp

        # with no ridge-curve root at all, every step falls back to the
        # bracket's midpoint
        monkeypatch.setattr(qp, "_ridge_root", lambda *a, **k: np.nan)
        for seed in (3, 4):
            K, r, reg, target = self.instance(seed)
            gamma, sol = solve_discrepancy(K, r, reg, target)
            self.assert_meets_brent_reference(K, r, reg, target, gamma, sol)

    def test_shared_round_one_curve_changes_nothing(self):
        """A state shared by both targets (its curves and their batched
        roots), each search opening its own pass so that neither starts
        from the other's passive set, gives each target's own search."""
        from aeroinv.tikhonov_qp import SearchState

        for seed in range(12):
            K, r, reg, target = self.instance(seed)
            state = SearchState(K, r, reg)
            targets = [0.5 * target, target]
            base = solve_nnls(K, r).residual_sq
            for t in targets:
                if not base < t:
                    continue
                gamma, sol = solve_discrepancy(K, r, reg, t, base)
                state.begin(targets)
                gamma_s, sol_s = solve_discrepancy(K, r, reg, t, base, state=state)
                assert gamma_s == gamma
                assert np.array_equal(sol_s.n, sol.n)
                assert sol_s.residual_sq == sol.residual_sq

    def test_forced_fallback_ignores_a_shared_curve(self, monkeypatch):
        import aeroinv.tikhonov_qp as qp
        from aeroinv.tikhonov_qp import SearchState

        K, r, reg, target = self.instance(3)
        state = SearchState(K, r, reg)
        state.begin([target])
        state.roots(None, [target])  # the all-free curve, built and rooted
        monkeypatch.setattr(qp, "_ridge_root", lambda *a, **k: np.nan)
        gamma, sol = solve_discrepancy(K, r, reg, target)
        built = []
        monkeypatch.setattr(qp, "RidgeCurve", lambda *a: built.append(a))
        gamma_s, sol_s = solve_discrepancy(K, r, reg, target, state=state)
        assert built == []
        assert gamma_s == gamma
        assert np.array_equal(sol_s.n, sol.n)

    def test_typed_error_when_no_gamma_meets_the_target(self, monkeypatch):
        import aeroinv.tikhonov_qp as qp
        from aeroinv.errors import AeroinvError

        K, r, reg, target = self.instance(5)
        # a residual that jumps over the target defeats the search
        monkeypatch.setattr(
            qp, "solve_constrained_tikhonov",
            lambda K_, r_, reg_, gamma, init_passive=None: QpSolution(
                np.zeros(K.shape[1]), np.zeros(K.shape[1]),
                0.0 if gamma < 1.0 else 2.0 * target, np.arange(0),
            ),
        )
        with pytest.raises(AeroinvError):
            solve_discrepancy(K, r, reg, target, 0.0)


class TestRidgeCurve:
    def test_matches_the_normal_equations(self):
        from aeroinv.tikhonov_qp import RidgeCurve

        rng = np.random.default_rng(4)
        K = rng.normal(size=(9, 5))
        r = rng.normal(size=9)
        M = rng.normal(size=(5, 5))
        R = M @ M.T + np.eye(5)
        curve = RidgeCurve(K, r, Regularizer(R))
        for gamma in (1e-6, 1e-2, 1.0, 1e3):
            direct = np.linalg.solve(K.T @ K + gamma * R, K.T @ r)
            res, n = curve.evaluate(gamma)
            assert n == pytest.approx(direct, rel=1e-9, abs=1e-12)
            d = K @ direct - r
            assert res == pytest.approx(float(d @ d), rel=1e-12)
            y = curve.coefficients(gamma)
            assert float(y @ y) == pytest.approx(float(n @ R @ n), rel=1e-10)

    def test_evaluate_matches_the_closed_form_past_the_rank(self):
        """With N > N_l the entries of z past the rank are zero, so the
        evaluated residual at a tiny gamma is the closed form's (res_ls = 0
        here), not rounding noise amplified by 1 / gamma."""
        from aeroinv.tikhonov_qp import _DISCREPANCY_RTOL, RidgeCurve

        rng = np.random.default_rng(3)
        K, r = rng.normal(size=(1, 2)), rng.normal(size=1)
        curve = RidgeCurve(K, r, Regularizer(np.eye(2)))
        assert np.all(curve.z[1:] == 0.0)
        for gamma in (1e-30, 1e-20, 1e-12):
            closed = curve._secular(np.log([gamma]))[0][0]
            res, _ = curve.evaluate(gamma)
            assert abs(res - closed) <= _DISCREPANCY_RTOL * float(r @ r)

    def test_unbracketable_target_raises_without_evaluating(self, monkeypatch):
        """A target past ||r||^2 has no root on the grid: BracketFailure at
        once, with no residual evaluated along the way."""
        from aeroinv.errors import BracketFailure
        from aeroinv.tikhonov_qp import RidgeCurve

        rng = np.random.default_rng(6)
        K, r = rng.normal(size=(9, 5)), rng.normal(size=9)
        curve = RidgeCurve(K, r, Regularizer(np.eye(5)))
        calls = []
        monkeypatch.setattr(curve, "evaluate", lambda gamma: calls.append(gamma))
        target = 2.0 * float(r @ r)
        assert np.isnan(curve.roots([target])[0])
        with pytest.raises(BracketFailure):
            curve.discrepancy(target, curve.roots([target])[0])
        with pytest.raises(BracketFailure):
            curve.discrepancy(target, np.nan)
        assert calls == []

    def test_root_off_the_target_raises_root_failure(self):
        from aeroinv.errors import RootFailure
        from aeroinv.tikhonov_qp import RidgeCurve

        rng = np.random.default_rng(6)
        K, r = rng.normal(size=(9, 5)), rng.normal(size=9)
        curve = RidgeCurve(K, r, Regularizer(np.eye(5)))
        target = 0.5 * (curve.residual_ls + float(r @ r))
        (root,) = curve.roots([target])
        assert curve.discrepancy(target, root)[0] == root
        with pytest.raises(RootFailure):
            curve.discrepancy(target, 10.0 * root)

    @pytest.mark.parametrize("block", range(6))
    def test_batched_roots_equal_single_target_roots(self, block):
        """``roots(ts)`` equals ``[roots([t])[0] for t in ts]`` bit for bit,
        nan where that is nan: a search state roots every target of a pass
        in one call and shares the table between searches.  50 systems per
        block with N from 1 to 50, N > N_l and rank-deficient K among them,
        each with targets below residual_ls, inside the window and above
        ||r||^2, in random order."""
        from aeroinv.model_selection import REGULARIZER_KINDS, build_regularizer
        from aeroinv.tikhonov_qp import RidgeCurve

        rng = np.random.default_rng(1000 + block)
        nan_seen = finite_seen = 0
        for _ in range(50):
            N = int(rng.integers(1, 51))
            n_l = int(rng.integers(1, 61))
            rank = int(rng.integers(1, min(N, n_l) + 1))
            K = rng.normal(size=(n_l, rank)) @ rng.normal(size=(rank, N))
            K *= 10.0 ** rng.uniform(-3.0, 3.0)
            r = rng.normal(size=n_l) * 10.0 ** rng.uniform(-3.0, 3.0)
            kind = REGULARIZER_KINDS[int(rng.integers(len(REGULARIZER_KINDS)))]
            curve = RidgeCurve(K, r, build_regularizer(kind, N))
            r_norm_sq = float(r @ r)
            lo, hi = curve.residual_ls, r_norm_sq
            targets = np.concatenate([
                lo * rng.uniform(0.0, 1.0, 2),
                lo + rng.uniform(0.0, 1.0, 8) * (hi - lo),
                hi * rng.uniform(1.0, 2.0, 2),
                [lo, hi],
            ])
            rng.shuffle(targets)
            batched = curve.roots(targets)
            single = np.array([curve.roots([t])[0] for t in targets])
            assert np.array_equal(np.isnan(batched), np.isnan(single))
            assert batched.tobytes() == single.tobytes()
            nan_seen += int(np.isnan(batched).sum())
            finite_seen += int(np.isfinite(batched).sum())
        assert nan_seen and finite_seen

    # Roots of the curves of ``test_roots_frozen_on_seeded_curves``, one set
    # per numpy exp: its x86-64-v4 (AVX-512) loop and its baseline loop
    # round a few arguments differently in the last bit, which moves one
    # Newton iterate of the first curve.
    FROZEN_ROOTS = {
        "x86-64-v4": (
            "0x1.da1195d732aeap-43", "0x1.1f68fc3385831p-21",
            "0x1.bd5cce94f4dbfp-12", "0x1.ddcff98d2704cp+0",
            "0x1.78a9b9d1c864bp-37", "0x1.5f902de773440p-34",
            "0x1.bfaed449aebf5p-32", "0x1.1536c52eb31d5p-6",
            "0x1.20c25dcc7231ep-39", "0x1.337df8205aa3ep-30",
            "0x1.033e2ce341807p-21", "0x1.b2704ec7dc6b1p-10",
        ),
        "baseline": (
            "0x1.da1195d732aeap-43", "0x1.1f68fc3385831p-21",
            "0x1.bd5cce94f4dbfp-12", "0x1.ddcff98d2704dp+0",
            "0x1.78a9b9d1c864bp-37", "0x1.5f902de773440p-34",
            "0x1.bfaed449aebf5p-32", "0x1.1536c52eb31d5p-6",
            "0x1.20c25dcc7231ep-39", "0x1.337df8205aa3ep-30",
            "0x1.033e2ce341807p-21", "0x1.b2704ec7dc6b1p-10",
        ),
    }

    def test_roots_frozen_on_seeded_curves(self):
        """``roots`` on three seeded curves (square, N > N_l, and N < N_l
        with a least-squares residual) returns these bits, so a change that
        moves an iterate of the grid or of the Newton steps fails here.

        K is diagonal (padded with zero rows or columns) and R a diagonal
        of powers of 4, so the SVD, its factors and the data are exact
        whatever BLAS kernels run them, and the data norm is an exactly
        rounded sum: the bits depend on ``roots`` and numpy's exp alone.
        """
        import math

        from aeroinv.tikhonov_qp import RidgeCurve

        got = []
        for seed, (n_l, N) in enumerate([(20, 20), (12, 20), (30, 8)]):
            rng = np.random.default_rng(seed)
            k = min(n_l, N)
            K = np.zeros((n_l, N))
            K[np.arange(k), np.arange(k)] = rng.normal(size=k) * 10.0 ** rng.uniform(
                -6.0, 0.0, k
            )
            r = np.zeros(n_l)
            r[: k + 1] = rng.normal(size=min(k + 1, n_l))
            R = np.diag(4.0 ** rng.integers(-3, 4, N))
            curve = RidgeCurve(K, r, Regularizer(R))
            lo, hi = curve.residual_ls, math.fsum(r**2)
            targets = [lo + p * (hi - lo) for p in (0.05, 0.3, 0.6, 0.95)]
            got += [float(g).hex() for g in curve.roots(targets)]
        assert tuple(got) in self.FROZEN_ROOTS.values()

    def test_singular_factor_raises_ill_conditioned(self, monkeypatch):
        """A factor LAPACK cannot invert (info > 0) is a typed error."""
        from aeroinv import tikhonov_qp

        singular = np.triu(np.ones((4, 4)))
        singular[2, 2] = 0.0
        monkeypatch.setattr(tikhonov_qp, "_cholesky_upper", lambda R: singular)
        with pytest.raises(IllConditioned, match="singular"):
            Regularizer(np.eye(4))

    def test_indefinite_matrix_raises_ill_conditioned(self):
        with pytest.raises(IllConditioned, match="not positive definite"):
            Regularizer(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_regularizer_is_frozen(self):
        import dataclasses

        R = np.array([[2.0, 1.0], [1.0, 2.0]])
        reg = Regularizer(R)
        for name in ("matrix", "kind", "cholesky", "cholesky_inverse"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(reg, name, None)
        assert not reg.matrix.flags.writeable and R.flags.writeable
        np.testing.assert_allclose(reg.cholesky.T @ reg.cholesky, R, rtol=1e-15)


def seeded_systems():
    """Weighted systems (K, r) and regularizers: every stencil kind, a
    random SPD matrix, N < N_l, N > N_l and a rank-deficient K."""
    from aeroinv.model_selection import REGULARIZER_KINDS, build_regularizer

    for seed, (n_l, N, rank) in enumerate(
        [(48, 5, 5), (48, 20, 20), (12, 20, 12), (30, 8, 3), (6, 9, 2), (1, 1, 1)]
    ):
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(n_l, rank)) @ rng.normal(size=(rank, N))
        r = rng.normal(size=n_l)
        A = rng.normal(size=(N, N))
        regs = [build_regularizer(kind, N) for kind in REGULARIZER_KINDS]
        yield K, r, [*regs, Regularizer(A @ A.T + N * np.eye(N))]


class TestDirectLapackKernels:
    """``RidgeCurve``, ``Regularizer`` and ``orthant_mvn._factor`` call
    LAPACK's ``gesvd`` and ``potrf`` directly: each returns byte for byte
    what the scipy wrappers return, keeps their checks on non-finite input
    and turns a LAPACK failure into a typed error."""

    @staticmethod
    def reference_curve(K, r, reg):
        """``(eigenvalues, V, z, residual_ls, b^2)`` through
        ``scipy.linalg.svd``."""
        import scipy.linalg

        U_inv = reg.cholesky_inverse
        Q, s, Wt = scipy.linalg.svd(
            K @ U_inv, full_matrices=K.shape[0] < K.shape[1], lapack_driver="gesvd"
        )
        lam = np.zeros(K.shape[1])
        lam[: s.size] = s**2
        V = U_inv @ Wt.T
        z = V.T @ (K.T @ r)
        z[s.size :] = 0.0
        b = Q.T @ r
        d = r - Q @ b
        return lam, V, z, float(d @ d), b**2

    def test_ridge_curves_equal_the_scipy_svd_bytes(self):
        from aeroinv.tikhonov_qp import RidgeCurve

        for K, r, regs in seeded_systems():
            for reg in regs:
                curve = RidgeCurve(K, r, reg)
                lam, V, z, res_ls, b_sq = self.reference_curve(K, r, reg)
                got = (curve.eigenvalues, curve.V, curve.z, curve._b_sq)
                for a, b in zip(got, (lam, V, z, b_sq)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert curve.residual_ls == res_ls

    def test_regularizers_equal_the_scipy_cholesky_bytes(self):
        import scipy.linalg

        for _, _, regs in seeded_systems():
            for reg in regs:
                U = scipy.linalg.cholesky(reg.matrix, lower=False)
                assert reg.cholesky.tobytes() == U.tobytes()
                assert reg.gram.tobytes() == (U.T @ U).tobytes()
                assert not reg.gram.flags.writeable

    def test_factor_equals_the_scipy_cholesky_bytes(self):
        import scipy.linalg

        from aeroinv.orthant_mvn import _factor

        for K, _, regs in seeded_systems():
            for H in [K.T @ K + reg.matrix for reg in regs]:
                U = scipy.linalg.cholesky(H, lower=False)
                U_inv, info = scipy.linalg.lapack.dtrtri(U, lower=0)
                assert info == 0
                logdet = 2.0 * float(np.sum(np.log(np.diag(U))))
                got_U, got_logdet, got_cov = _factor(H)
                assert got_U.tobytes() == U.tobytes()
                assert got_logdet == logdet
                assert got_cov.tobytes() == (U_inv @ U_inv.T).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_the_scipy_message(self, bad):
        from aeroinv.tikhonov_qp import RidgeCurve

        K, r = np.ones((4, 3)), np.ones(4)
        K[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="must not contain infs or NaNs"
        ):
            RidgeCurve(K, r, Regularizer(np.eye(3)))
        R = np.eye(3)
        R[0, 2] = bad  # potrf reads only the upper triangle, the check all
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            Regularizer(R)

    def test_lapack_failures_raise_typed_errors(self, monkeypatch):
        import scipy.linalg

        from aeroinv import orthant_mvn, tikhonov_qp
        from aeroinv.errors import AeroinvError, CholeskyFailure
        from aeroinv.orthant_mvn import log_orthant_probability

        def failing(routine):
            return lambda *args, **kwargs: (*routine(*args, **kwargs)[:-1], 1)

        reg = Regularizer(np.eye(3))
        lapack = scipy.linalg.lapack
        monkeypatch.setattr(tikhonov_qp, "_GESVD", failing(lapack.dgesvd))
        with pytest.raises(AeroinvError, match="dgesvd info 1"):
            tikhonov_qp.RidgeCurve(np.ones((4, 3)), np.ones(4), reg)
        monkeypatch.setattr(tikhonov_qp, "_POTRF", failing(lapack.dpotrf))
        with pytest.raises(IllConditioned):
            Regularizer(np.eye(3))
        monkeypatch.setattr(orthant_mvn, "_POTRF", failing(lapack.dpotrf))
        with pytest.raises(CholeskyFailure):
            log_orthant_probability(np.eye(3), np.zeros(3))

    def test_empty_system_keeps_the_scipy_factors(self):
        from aeroinv.tikhonov_qp import RidgeCurve

        curve = RidgeCurve(np.ones((0, 3)), np.ones(0), Regularizer(np.eye(3)))
        assert curve.eigenvalues.tobytes() == np.zeros(3).tobytes()
        assert curve.residual_ls == 0.0


def degenerate_problems():
    rng = np.random.default_rng(21)
    K = np.abs(rng.normal(size=(8, 5)))
    r = rng.normal(size=8)
    yield "zero data", K, np.zeros(8), 0.0
    yield "negative data", K, -np.abs(r), 0.0
    zero_col = K.copy()
    zero_col[:, 2] = 0.0
    yield "zero column", zero_col, r, 0.0
    yield "zero column, regularized", zero_col, r, 0.5
    dup = np.vstack([K, K])
    yield "duplicated rows", dup, np.concatenate([r, r]), 0.1
    yield "huge gamma", K, r, 1e14
    yield "tiny gamma", K, np.abs(r), 1e-14
    wide = rng.normal(size=(3, 6))
    yield "more variables than rows, regularized", wide, rng.normal(size=3), 1e-3


class TestCompiledStart:
    """The compiled NNLS start against the Gram loop started from scratch."""

    def gram_only(self, K, r, R, gamma):
        from aeroinv.tikhonov_qp import _dual_tol, _nnls_gram

        G = K.T @ K + gamma * R
        c = K.T @ r
        return _nnls_gram(G, c, 10 * K.shape[1], _dual_tol(c))

    def test_random_problems(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            m, n = rng.integers(3, 15), rng.integers(1, 9)
            K = rng.normal(size=(m, n))
            r = rng.normal(size=m)
            gamma = float(rng.choice([0.0, 1e-3, 0.1, 10.0]))
            sol = solve_constrained_tikhonov(K, r, Regularizer(np.eye(n)), gamma)
            n_ref, _, passive = self.gram_only(K, r, np.eye(n), gamma)
            assert np.array_equal(sol.active_set, np.flatnonzero(~passive))
            assert np.max(np.abs(sol.n - n_ref), initial=0.0) <= 1e-10

    @pytest.mark.parametrize(
        "name, K, r, gamma", list(degenerate_problems()),
        ids=[p[0] for p in degenerate_problems()],
    )
    def test_degenerate_problems(self, name, K, r, gamma):
        R = np.eye(K.shape[1])
        sol = solve_constrained_tikhonov(K, r, Regularizer(R), gamma)
        n_ref, _, passive = self.gram_only(K, r, R, gamma)
        assert np.array_equal(sol.active_set, np.flatnonzero(~passive))
        assert np.max(np.abs(sol.n - n_ref)) <= 1e-10
        check_kkt(sol, K, r, R, gamma)

    def test_iteration_cap_falls_back_to_the_gram_loop(self, monkeypatch):
        import scipy.optimize

        def capped(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        K, r, _ = TestTheoryProperties().consistent_instance(2)
        sol = solve_constrained_tikhonov(K, r, Regularizer(np.eye(6)), 0.3)
        check_kkt(sol, K, r, np.eye(6), 0.3)
