"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 (full-scale study) runs only when AEROINV_FULL_STUDY is set; it
takes a few minutes serial (202 s on 2 cores with one BLAS thread), and the
reduced studies in criteria 5-6 cover the same pipeline.
"""

import itertools
import os
import time

import numpy as np
import pytest
import scipy.integrate as si

from aeroinv.optics import get_material, make_kernel
from aeroinv.orthant_mvn import QuadraticForm, log_orthant_probability, orthant_integral
from aeroinv.simulation_study import (
    integration_grid,
    kernel_rows,
    reduced_config,
    reduced_two_component_config,
    run_study,
    run_study_two_component,
    study_wavelengths,
)
from aeroinv.simulation_study import KernelLevelCache
from aeroinv.tikhonov_qp import (
    Regularizer,
    solve_constrained_tikhonov,
    solve_nnls,
)

pytestmark = pytest.mark.acceptance

FAMILIES = ("log_normal", "rrsb", "hedrih")


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def print_l2_line(criterion, family, stats):
    """One family's average L2 error per method, in ``stats`` order."""
    line = " ".join(f"{m}={s.avg_l2:.2f}%" for m, s in stats.items())
    print(f"  [criterion {criterion}] {family}: {line}")


def random_premise_instance(rng, n_l=None, dim=None):
    """Random instance with nonzero nonnegative fit and residual < ||r||^2."""
    while True:
        m = int(n_l if n_l is not None else rng.integers(6, 21))
        n = int(dim if dim is not None else rng.integers(2, 11))
        K = rng.normal(size=(m, n))
        n0 = rng.uniform(0.1, 2.0, n)
        r = K @ n0 + 0.3 * rng.normal(size=m)
        base = solve_nnls(K, r)
        if base.residual_sq < float(r @ r) and np.any(base.n > 0):
            return K, r, base


class TestCriterion1Monotonicity:
    def test_monotonicity_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        violations = 0
        for _ in range(200):
            K, r, base = random_premise_instance(rng)
            r_norm_sq = float(r @ r)
            scale = float(np.mean(np.diag(K.T @ K)))
            ladder = scale * np.logspace(-3.0, 3.0, 20)
            res_prev = base.residual_sq
            norm_prev = float(np.linalg.norm(base.n))
            reg = Regularizer(np.eye(K.shape[1]))
            for gamma in ladder:
                sol = solve_constrained_tikhonov(K, r, reg, float(gamma))
                if not sol.residual_sq > res_prev + 1e-12 * r_norm_sq:
                    violations += 1
                if np.linalg.norm(sol.n) > norm_prev + 1e-12:
                    violations += 1
                res_prev = sol.residual_sq
                norm_prev = float(np.linalg.norm(sol.n))
        elapsed = time.perf_counter() - t0
        ok = violations == 0 and elapsed < 30.0
        assert report(
            "1 (residual/norm monotonicity)",
            ok,
            f"violations={violations} runtime={elapsed:.1f}s",
        )


class TestCriterion2QpOracle:
    @staticmethod
    def brute_force(K, r, R, gamma):
        N = K.shape[1]
        best, best_obj = None, np.inf
        if gamma > 0:
            U = np.linalg.cholesky(R).T
            A = np.vstack([K, np.sqrt(gamma) * U])
            b = np.concatenate([r, np.zeros(N)])
        else:
            A, b = K, r
        for mask in itertools.product([False, True], repeat=N):
            free = np.array(mask)
            x = np.zeros(N)
            if free.any():
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

    def test_oracle_equivalence(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        worst = 0.0
        for trial in range(100):
            m = int(rng.integers(4, 14))
            n = int(rng.integers(2, 7))
            K = rng.normal(size=(m, n))
            r = rng.normal(size=m)
            if trial % 2:
                gamma = float(rng.uniform(0.01, 2.0))
                M = rng.normal(size=(n, n))
                R = M @ M.T + n * np.eye(n)
            else:
                gamma, R = 0.0, np.eye(n)
            sol = solve_constrained_tikhonov(K, r, Regularizer(R), gamma)
            oracle = self.brute_force(K, r, R, gamma)
            worst = max(worst, float(np.max(np.abs(sol.n - oracle))))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-8 and elapsed < 10.0
        assert report(
            "2 (active-set vs enumeration)",
            ok,
            f"worst coordinate diff={worst:.2e} runtime={elapsed:.1f}s",
        )


class TestCriterion3Convergence:
    def test_rate_and_noisy_convergence(self):
        rng = np.random.default_rng(303)
        rate_ok = True
        for _ in range(20):
            K = rng.normal(size=(14, 6))
            n0 = rng.uniform(0.1, 2.0, 6)
            r = K @ n0
            for alpha in np.logspace(-4, 0, 9):
                sol = solve_constrained_tikhonov(
                    K, r, Regularizer(np.eye(6)), float(alpha)
                )
                if np.linalg.norm(K @ (n0 - sol.n)) > np.sqrt(alpha) * np.linalg.norm(
                    n0
                ) + 1e-10:
                    rate_ok = False
        K = rng.normal(size=(15, 5))
        n0 = rng.uniform(0.5, 2.0, 5)
        r_true = K @ n0
        means = []
        for delta in (1e-1, 1e-2, 1e-3):
            errs = [
                np.linalg.norm(
                    solve_constrained_tikhonov(
                        K, r_true + delta * rng.standard_normal(15),
                        Regularizer(np.eye(5)), delta,
                    ).n
                    - n0
                )
                for _ in range(50)
            ]
            means.append(float(np.mean(errs)))
        noisy_ok = means[0] > means[1] > means[2]
        ok = rate_ok and noisy_ok
        assert report(
            "3 (convergence rates)",
            ok,
            f"rate_bound={'ok' if rate_ok else 'violated'} "
            f"noisy means={['%.3g' % m for m in means]}",
        )


class TestCriterion4Orthant:
    def test_closed_forms_and_quadrature(self):
        t0 = time.perf_counter()
        closed_ok = True
        for gamma in (1e-3, 1.0, 1e3):
            for dim in (1, 5, 20):
                est = orthant_integral(
                    QuadraticForm(gamma * np.eye(dim), np.zeros(dim)), 20000, 11
                )
                exact = (np.pi / (2 * gamma)) ** (dim / 2)
                rel = abs(est.value - exact) / exact
                if rel > max(3 * est.std_error, 1e-12):
                    closed_ok = False

        H2 = np.array([[2.0, 0.7], [0.7, 1.5]])
        f2 = lambda y, x: np.exp(-0.5 * (np.array([x, y]) @ H2 @ np.array([x, y])))
        num, _ = si.dblquad(f2, 0, 12, 0, 12, epsabs=1e-13, epsrel=1e-12)
        exact2 = num * np.sqrt(np.linalg.det(H2)) / (2 * np.pi)
        est2 = log_orthant_probability(H2, np.zeros(2), 100000, 12)
        ok_2d = abs(est2.value - exact2) / exact2 <= 1e-3

        rng = np.random.default_rng(404)
        A = rng.normal(size=(3, 3))
        H3 = A @ A.T + 3 * np.eye(3)
        v3 = rng.normal(size=3)

        def f3(z, y, x):
            n = np.array([x, y, z])
            return np.exp(-0.5 * (n @ H3 @ n - 2 * n @ v3 + 0.4))

        exact3, _ = si.tplquad(f3, 0, 8, 0, 8, 0, 8, epsabs=1e-11, epsrel=1e-9)
        est3 = orthant_integral(QuadraticForm(H3, v3, 0.4), 100000, 13)
        ok_3d = abs(est3.value - exact3) / exact3 <= 1e-3
        elapsed = time.perf_counter() - t0
        ok = closed_ok and ok_2d and ok_3d and elapsed < 60.0
        assert report(
            "4 (orthant integration)",
            ok,
            f"closed_form={'ok' if closed_ok else 'off'} "
            f"2d={'ok' if ok_2d else 'off'} 3d={'ok' if ok_3d else 'off'} "
            f"runtime={elapsed:.1f}s",
        )


class TestCriterion5ReducedStudy:
    def test_reduced_single_component_study(self):
        reportobj = run_study(reduced_config())
        order = ("constrained", "morozov", "unconstrained", "bic")
        failures = []
        constrained_failures = 0
        worst_time = 0.0
        for family in FAMILIES:
            stats = {
                m: reportobj.method_stats[(family, m, "tikhonov")] for m in order
            }
            print_l2_line(5, family, stats)
            for a, b in zip(order, order[1:]):
                if not stats[a].avg_l2 < stats[b].avg_l2:
                    failures.append(f"{family}: {a} !< {b}")
            if not 12.0 <= stats["constrained"].avg_l2 <= 32.0:
                failures.append(
                    f"{family}: constrained {stats['constrained'].avg_l2:.2f}% "
                    "outside [12, 32]"
                )
            constrained_failures += stats["constrained"].l2_failures
            constrained_failures += stats["constrained"].no_model_failures
            worst_time = max(worst_time, stats["constrained"].worst_time)
        if constrained_failures != 0:
            failures.append(f"constrained failures {constrained_failures} != 0")
        if worst_time >= 30.0:
            failures.append(f"worst inversion {worst_time:.1f}s >= 30s")
        if reportobj.wall_time >= 900.0:
            failures.append(f"study wall time {reportobj.wall_time:.0f}s >= 900s")
        ok = not failures
        assert report(
            "5 (reduced comparative study)",
            ok,
            f"wall={reportobj.wall_time:.0f}s worst_inv={worst_time:.1f}s "
            + ("; ".join(failures) if failures else "all relations hold"),
        ), failures


class TestCriterion6ReducedTwoComponent:
    def test_reduced_two_component_study(self):
        reportobj = run_study_two_component(reduced_two_component_config())
        fractions = (0.0, 33.0, 67.0, 100.0)
        stats = {
            pct: reportobj.fraction_stats[("log_normal", "tikhonov", pct)]
            for pct in fractions
        }
        devs = [stats[p].avg_dev for p in fractions]
        print(
            "  [criterion 6] avg fraction deviation (pp): "
            + " ".join(f"{p:.0f}%:{d:.2f}" for p, d in zip(fractions, devs))
        )
        failures = []
        if devs[-1] > 5.0:
            failures.append(f"deviation at 100% water {devs[-1]:.2f} > 5")
        inversions = sum(b > a for a, b in zip(devs, devs[1:]))
        if inversions > 1:
            failures.append(f"{inversions} adjacent-pair trend inversions (> 1)")
        worst_time = max(r.runtime for r in reportobj.records)
        if worst_time >= 30.0:
            failures.append(f"worst inversion {worst_time:.1f}s >= 30s")
        if reportobj.wall_time >= 1200.0:
            failures.append(f"wall time {reportobj.wall_time:.0f}s >= 1200s")
        ok = not failures
        assert report(
            "6 (reduced two-component study)",
            ok,
            f"wall={reportobj.wall_time:.0f}s worst_inv={worst_time:.1f}s "
            + ("; ".join(failures) if failures else "all bounds hold"),
        ), failures


class TestCriterion7ChiSquare:
    def test_weighted_residual_calibration(self):
        # true discretized solution on the study kernel: Kn0 defines the
        # noise-free data, draws add 30% Gaussian noise per wavelength
        wavelengths = study_wavelengths()
        igrid = integration_grid()
        kernel = make_kernel(get_material("h2o"), get_material("air"))
        builder = KernelLevelCache(kernel_rows(kernel, wavelengths, igrid),
                              wavelengths, igrid)
        km = builder(12)
        rng = np.random.default_rng(707)
        from aeroinv.simulation_study import eval_size_distribution, parameter_grid

        dist = parameter_grid("log_normal")[44]
        n0 = eval_size_distribution(dist, km.collocation_grid.points[1:-1])
        e_true = km.entries @ n0
        sigma = 0.30 * e_true
        n_l = wavelengths.size
        draws = 1000
        values = np.empty(draws)
        for i in range(draws):
            e = e_true + sigma * rng.standard_normal(n_l)
            values[i] = float(np.sum(((km.entries @ n0 - e) / sigma) ** 2))
        mean = values.mean()
        se = np.sqrt(2.0 * n_l / draws)
        ok = abs(mean - n_l) <= 3.0 * se
        assert report(
            "7 (chi-square calibration)",
            ok,
            f"mean={mean:.2f} target={n_l} tolerance={3 * se:.2f}",
        )


@pytest.mark.skipif(
    not os.environ.get("AEROINV_FULL_STUDY"),
    reason="full-scale study (1000 runs/family) takes a few minutes; "
    "set AEROINV_FULL_STUDY=1 to run",
)
class TestCriterion8FullScale:
    PAPER_CONSTRAINED_AVG = {
        "log_normal": 21.3917,
        "rrsb": 18.6192,
        "hedrih": 14.3414,
    }

    def test_full_scale_distributional_match(self):
        from aeroinv.simulation_study import full_config

        reportobj = run_study(full_config())
        order = ("constrained", "morozov", "unconstrained", "bic")
        failures = []
        for family in FAMILIES:
            stats = {
                m: reportobj.method_stats[(family, m, "tikhonov")] for m in order
            }
            print_l2_line(8, family, stats)
            cell = self.PAPER_CONSTRAINED_AVG[family]
            if abs(stats["constrained"].avg_l2 - cell) > 8.0:
                failures.append(
                    f"{family}: constrained {stats['constrained'].avg_l2:.2f} "
                    f"not within +-8 of {cell}"
                )
            for a, b in zip(order, order[1:]):
                if not stats[a].avg_l2 < stats[b].avg_l2:
                    failures.append(f"{family}: {a} !< {b}")
        ok = not failures
        assert report(
            "8 (full-scale distributional match)",
            ok,
            "; ".join(failures) if failures else "all cells and orderings hold",
        ), failures
