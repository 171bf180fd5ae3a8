import dataclasses
import warnings

import numpy as np
import pytest
import scipy.integrate as si

import aeroinv.model_selection as msel
from aeroinv.discretization import KernelMatrix, RadiusGrid
from aeroinv.errors import NoModels
from aeroinv.model_selection import (
    DEFAULT_TAU_GRID,
    Measurement,
    ModelCandidate,
    NoiseScaling,
    bic_select,
    build_regularizer,
    generate_models,
    invert_unconstrained,
    log_marginal_likelihood,
    select_models,
    top_within_noise,
)
from aeroinv.orthant_mvn import IntegralEstimate
from aeroinv.two_component import KernelFamily


def make_kernel_matrix(entries, fraction=None):
    entries = np.asarray(entries, dtype=float)
    grid = RadiusGrid(np.linspace(0.0, 1.0, entries.shape[1] + 2))
    return KernelMatrix(entries, grid, fraction)


@pytest.fixture
def ladder(monkeypatch):
    """``ladder(*sizes)``: every walk visits exactly these collocation
    sizes, in this order, in place of ``DEFAULT_LADDER``."""
    return lambda *sizes: monkeypatch.setattr(msel, "DEFAULT_LADDER", sizes)


class HandMadeFamily(KernelFamily):
    """A one-fraction family whose ladder levels are the given matrices,
    each at its own collocation size, at ``wavelengths`` (by default N_l
    evenly spaced from 0.5 to 3 um)."""

    def __init__(self, *kernels, wavelengths=None):
        if wavelengths is None:
            wavelengths = np.linspace(0.5, 3.0, kernels[0].entries.shape[0])
        one = np.zeros(1)
        super().__init__(wavelengths, None, one, one, None)
        self.levels = {len(k.collocation_grid): k for k in kernels}

    def __call__(self, n_col):
        return self.levels[n_col]

    def level_matrices(self, n_col):
        """The level's grid and its matrix as a stack of one."""
        kernel = self.levels[n_col]
        return kernel.collocation_grid, kernel.entries[None]


class TestRegularizers:
    def test_tikhonov_identity(self):
        reg = build_regularizer("tikhonov", 3)
        assert np.array_equal(reg.matrix, np.eye(3))

    def test_first_diff_stencil(self):
        reg = build_regularizer("first_diff", 2)
        assert reg.matrix == pytest.approx(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        reg5 = build_regularizer("first_diff", 5)
        expect = 2 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1)
        assert reg5.matrix == pytest.approx(expect)

    def test_twomey_stencil_spd(self):
        reg = build_regularizer("twomey", 3)
        H = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert reg.matrix == pytest.approx(H.T @ H)
        assert np.all(np.linalg.eigvalsh(reg.matrix) > 0)

    def test_cholesky_consistency(self):
        for kind in ("tikhonov", "first_diff", "twomey"):
            reg = build_regularizer(kind, 7)
            assert reg.cholesky.T @ reg.cholesky == pytest.approx(reg.matrix)
            assert reg.cholesky @ reg.cholesky_inverse == pytest.approx(np.eye(7))

    def test_one_read_only_instance_per_kind_and_size(self):
        for kind in ("tikhonov", "first_diff", "twomey"):
            reg = build_regularizer(kind, 6)
            assert build_regularizer(kind, 6) is reg
            for arr in (reg.matrix, reg.cholesky, reg.cholesky_inverse):
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0


class TestMeasurementScaling:
    def test_validation(self):
        with pytest.raises(ValueError):
            Measurement(np.array([1.0]), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            Measurement(np.array([1.0, 2.0]), np.array([1.0]), np.array([1.0, 1.0]))

    def test_overflowing_weighted_data_norm_is_refused(self):
        """Means whose weighted squares sum to a finite norm pass; one more
        decade, or a weight that is not finite, is a ValueError, raised
        without a warning before any level is fitted."""
        w, v = np.array([1.0, 2.0, 3.0]), np.array([1.0, 4.0, 0.25])
        # normalized weights 2, 1, 4: the weighted squares are 4, 1, 16 m^2
        Measurement(w, np.full(3, 1e153), v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in ([1e154, 0.0, 0.0], [0.0, 0.0, 1e154], [1e200] * 3):
                with pytest.raises(ValueError, match="data norm"):
                    Measurement(w, np.array(m), v)
            # a variance of the mean that underflows to 0 has infinite weight
            with pytest.raises(ValueError, match="data norm"):
                Measurement(w, np.ones(3), np.array([1.0, 5e-324, 1.0]), 10)

    def test_repeats_must_be_an_integer_of_at_least_one(self):
        w, m, v = np.array([1.0, 2.0]), np.ones(2), np.ones(2)
        for repeats in (1.5, 2.0, "2", None, 0, -3):
            with pytest.raises(ValueError, match="repeats"):
                Measurement(w, m, v, repeats)
        meas = Measurement(w, m, v, np.int64(3))
        assert meas.repeats == 3 and type(meas.repeats) is int

    def test_scaling_fields(self):
        meas = Measurement(
            np.array([1.0, 2.0, 3.0]),
            np.array([1.0, 1.0, 1.0]),
            np.array([4.0, 1.0, 2.0]),
            repeats=4,
        )
        sc = NoiseScaling.from_measurement(meas)
        assert sc.delta_sq == pytest.approx(1.0)  # max(var)/repeats
        assert sc.sigma_normalized == pytest.approx([1.0, 0.25, 0.5])
        assert np.all(sc.sigma_normalized <= 1.0)
        assert sc.obs_variance == pytest.approx([1.0, 0.25, 0.5])
        # the measurement's own scaling: computed once, the same values
        assert meas.scaling is meas.scaling
        assert meas.scaling.delta_sq == sc.delta_sq
        assert np.array_equal(meas.scaling.sigma_normalized, sc.sigma_normalized)
        assert np.array_equal(meas.scaling.obs_variance, sc.obs_variance)

    def test_the_overflow_check_scaling_is_the_one_kept(self, monkeypatch):
        """A measurement builds one ``NoiseScaling``, for its overflow check,
        and keeps it as ``scaling``."""
        made, build = [], NoiseScaling.from_measurement

        def counting(cls, meas):
            made.append(build(meas))
            return made[-1]

        monkeypatch.setattr(NoiseScaling, "from_measurement", classmethod(counting))
        meas = Measurement(np.array([1.0, 2.0]), np.ones(2), np.array([4.0, 1.0]), 4)
        meas.log_likelihood_normalizer
        assert len(made) == 1 and made[0] is meas.scaling

    def test_low_noise_below_its_delta_sq_only(self):
        """``is_low_noise`` is the one rule for the low-noise path, which
        ``invert_constrained`` takes and the CLI record reports."""
        limit = msel.LOW_NOISE_DELTA_SQ
        for variance, low in ((limit, False), (np.nextafter(limit, 0.0), True)):
            meas = Measurement(np.array([1.0, 2.0]), np.ones(2), np.full(2, variance))
            assert msel.is_low_noise(meas) is low


def orthogonal_instance(n_l=6, dim=2, resid_scale=0.5, seed=0):
    """Instance with exactly known nonnegative-fit residual.

    K has orthonormal columns, the data is K n* (n* interior) plus a vector
    orthogonal to the column span whose norm is chosen so the unregularized
    residual equals resid_scale * n_l * delta_sq (delta_sq = 1).
    """
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n_l, dim + 1)))
    K = Q[:, :dim]
    w = Q[:, dim]
    n_star = rng.uniform(1.0, 2.0, dim)
    e = K @ n_star + np.sqrt(resid_scale * n_l) * w
    meas = Measurement(np.linspace(0.5, 3.0, n_l), e, np.ones(n_l), repeats=1)
    return make_kernel_matrix(K), meas


class TestGenerateModels:
    def test_exactly_the_attainable_targets_yield_candidates(self, ladder):
        kernel, meas = orthogonal_instance(resid_scale=0.5)
        data_norm = float(np.sum(meas.mean_extinction**2))
        ladder(kernel.interior_dim + 2)
        cands = generate_models(
            meas, HandMadeFamily(kernel), tau_grid=DEFAULT_TAU_GRID
        )
        got_taus = sorted(c.tau for c in cands)
        expect = [
            t
            for t in DEFAULT_TAU_GRID
            if 0.5 * 6 < t * 6 < data_norm  # line-18 window, delta_sq = 1
        ]
        assert got_taus == pytest.approx(expect)
        for c in cands:
            assert c.residual_sq == pytest.approx(c.tau * 6.0, rel=2e-6)

    def test_no_models_when_data_norm_too_small(self, ladder):
        n_l = 6
        meas = Measurement(
            np.linspace(0.5, 3.0, n_l),
            np.full(n_l, 0.01),
            np.ones(n_l),
            repeats=1,
        )
        kernel = make_kernel_matrix(np.eye(n_l)[:, :2])
        ladder(4)
        with pytest.raises(NoModels):
            generate_models(meas, HandMadeFamily(kernel))

    def test_max_disc_bounds_levels(self, ladder):
        # every level admissible: only the first max_disc levels contribute
        kernels = {}
        rng = np.random.default_rng(5)
        n_l = 8
        Q, _ = np.linalg.qr(rng.normal(size=(n_l, 7)))
        w = Q[:, 6]
        e = 2.0 * Q[:, :3] @ np.ones(3) + np.sqrt(0.9 * n_l) * w
        meas = Measurement(np.linspace(0.5, 3.0, n_l), e, np.ones(n_l), repeats=1)
        for n_col in (3, 4, 5, 6, 7):
            kernels[n_col] = make_kernel_matrix(Q[:, : n_col - 2])
        ladder(3, 4, 5, 6, 7)
        cands = generate_models(meas, HandMadeFamily(*kernels.values()), max_disc=3)
        dims = sorted({c.dim for c in cands})
        # the 1-dim level misses the residual window; exactly the next three
        # admissible levels contribute, and the fifth is never explored
        assert len(dims) == 3
        assert 5 not in dims


class TestMarginalLikelihood:
    def toy_candidate(self, gamma=1.0):
        kernel = make_kernel_matrix(np.array([[1.0]]))
        meas = Measurement(
            np.array([1.0]), np.array([0.0]), np.array([1.0]), repeats=1
        )
        reg = build_regularizer("tikhonov", 1)
        cand = ModelCandidate(
            weights=np.zeros(1),
            kernel=kernel,
            regularizer=reg,
            gamma=gamma,
            tau=1.0,
            residual_sq=0.0,
        )
        return cand, meas

    def test_scalar_toy_against_quadrature(self):
        cand, meas = self.toy_candidate(gamma=1.0)
        got = log_marginal_likelihood(cand, meas, samples=5000, seed=0).log_value
        # direct evaluation: int_0^inf N(0; n, 1) * prior(n) dn over the
        # normalized prior restricted to n >= 0
        joint = si.quad(lambda n: np.exp(-0.5 * n**2 - 0.5 * n**2), 0, 30)[0]
        prior_norm = si.quad(lambda n: np.exp(-0.5 * n**2), 0, 30)[0]
        expect = np.log(joint / (np.sqrt(2 * np.pi) * prior_norm))
        assert got == pytest.approx(expect, abs=1e-6)

    def test_identical_candidates_identical_values(self):
        cand, meas = self.toy_candidate()
        a = log_marginal_likelihood(cand, meas, samples=4000, seed=3)
        b = log_marginal_likelihood(cand, meas, samples=4000, seed=3)
        assert a == b

    def test_overshrunk_prior_penalized(self):
        # strong data far from zero: very large gamma must lose
        kernel = make_kernel_matrix(np.array([[1.0, 0.2], [0.1, 1.0], [0.5, 0.5]]))
        meas = Measurement(
            np.array([1.0, 2.0, 3.0]),
            np.array([3.0, 2.5, 2.0]),
            np.array([0.04, 0.05, 0.04]),
            repeats=1,
        )
        sc = NoiseScaling.from_measurement(meas)
        reg = build_regularizer("tikhonov", 2)
        lm = {}
        for gamma in (0.5, 5e4):
            cand = ModelCandidate(
                weights=np.zeros(2), kernel=kernel, regularizer=reg,
                gamma=gamma, tau=1.0, residual_sq=0.0,
            )
            lm[gamma] = log_marginal_likelihood(cand, meas, 200000, seed=4).log_value
        assert lm[5e4] < lm[0.5]

        # cross-check the moderate-gamma value against dense 2-D quadrature
        var = sc.obs_variance
        K = kernel.entries / np.sqrt(var)[:, None]
        e = meas.mean_extinction / np.sqrt(var)
        R = (0.5 / sc.delta_sq) * np.eye(2)

        def joint(n2, n1):
            n = np.array([n1, n2])
            return np.exp(-0.5 * np.sum((K @ n - e) ** 2) - 0.5 * n @ R @ n)

        num = si.dblquad(joint, 0, 60, 0, 60, epsabs=1e-12, epsrel=1e-9)[0]
        prior = (
            si.quad(lambda n: np.exp(-0.5 * R[0, 0] * n**2), 0, np.inf)[0] ** 2
        )
        log_b = 1.5 * np.log(2 * np.pi) + 0.5 * np.sum(np.log(var))
        expect = np.log(num) - log_b - np.log(prior)
        assert lm[0.5] == pytest.approx(expect, abs=0.05)


class TestSelectModels:
    def base_candidates(self, log_marginals):
        kernel = make_kernel_matrix(np.array([[1.0], [0.5]]))
        meas = Measurement(
            np.array([1.0, 2.0]), np.array([1.0, 0.5]), np.array([1.0, 1.0]), 1
        )
        reg = build_regularizer("tikhonov", 1)
        cands = [
            ModelCandidate(
                weights=np.array([1.0]), kernel=kernel, regularizer=reg,
                gamma=1.0, tau=1.0 + 0.1 * i, residual_sq=1.0,
            )
            for i in range(len(log_marginals))
        ]
        return cands, meas

    def test_single_candidate(self):
        cands, meas = self.base_candidates([0.0])
        ranked = select_models(cands, meas, samples=2000, seed=0)
        assert ranked[0].posterior == pytest.approx(1.0)

    def test_evidence_error_carried_onto_candidates(self):
        cands, meas = self.base_candidates([0.0, 0.0])
        lm = log_marginal_likelihood(cands[0], meas, samples=2000, seed=0)
        ranked = select_models(cands, meas, samples=2000, seed=0)
        for c in ranked:
            assert c.log_marginal == lm.log_value
            assert c.log_marginal_se == lm.std_error
            assert np.isfinite(c.log_marginal_se) and c.log_marginal_se >= 0.0

    def test_softmax_weights(self, monkeypatch):
        cands, meas = self.base_candidates([0.0, -1.0, -2.0])
        values = iter([0.0, -1.0, -2.0])
        monkeypatch.setattr(
            msel, "orthant_integral", lambda *a: IntegralEstimate(0.0, 1, next(values))
        )
        ranked = msel.select_models(cands, meas, samples=1000, seed=0)
        post = np.array([c.posterior for c in ranked])
        expect = np.exp([0.0, -1.0, -2.0])
        expect /= expect.sum()
        assert post == pytest.approx(expect)
        assert sum(post) == pytest.approx(1.0, abs=1e-12)

    def test_equal_marginals_split_evenly(self, monkeypatch):
        cands, meas = self.base_candidates([0.5, 0.5])
        monkeypatch.setattr(
            msel, "orthant_integral", lambda *a: IntegralEstimate(0.0, 1, 0.5)
        )
        ranked = msel.select_models(cands, meas, samples=1000, seed=0)
        assert [c.posterior for c in ranked] == pytest.approx([0.5, 0.5])
        # tie-break: smaller tau first (same dim)
        assert ranked[0].tau <= ranked[1].tau

    def test_screen_visits_by_bound_and_gives_a_fifth_far_below(self, monkeypatch):
        cands, meas = self.base_candidates([0.0] * 5)
        # per candidate: (bound, log evidence); the first two bounds tie
        table = [(0.0, -1.0), (0.0, -2.0), (-10.6, -11.0), (-10.4, -12.0), (1.0, -0.5)]
        index = {id(c): i for i, c in enumerate(cands)}
        calls = []

        def fake_evidence(i, samples, seed):
            calls.append((i, samples))
            return IntegralEstimate(0.0, samples, table[i][1])

        # each candidate's evidence form stands in as its index
        monkeypatch.setattr(
            msel, "_statistical_system", lambda c, *a: index[id(c)]
        )
        monkeypatch.setattr(msel, "log_gaussian_integral", lambda i: table[i][0])
        monkeypatch.setattr(msel, "prepare", lambda forms: None)  # no forms here
        monkeypatch.setattr(msel, "orthant_integral", fake_evidence)
        msel.select_models(cands, meas, samples=5000, seed=0)
        # best full-budget value -0.5: only the bound below -10.5 is screened
        assert calls == [(4, 5000), (0, 5000), (1, 5000), (3, 5000), (2, 1000)]

    def test_top_within_noise(self):
        import dataclasses

        cands, _ = self.base_candidates([0.0, 0.0, 0.0])

        def ranked(*evidence):
            return [
                dataclasses.replace(c, log_marginal=lm, log_marginal_se=se)
                for c, (lm, se) in zip(cands, evidence)
            ]

        # 2 * hypot(0.75, 1.0) = 2.5 exactly; the third candidate is ignored
        assert top_within_noise(ranked((2.5, 0.75), (0.0, 1.0), (-9.0, 0.0)))
        assert not top_within_noise(ranked((2.5001, 0.75), (0.0, 1.0)))
        assert top_within_noise(ranked((1.0, 0.0), (1.0, 0.0)))
        assert not top_within_noise(ranked((1e-9, 0.0), (0.0, 0.0)))
        assert top_within_noise(ranked((0.5, None), (0.0, 1.0))) is None
        assert top_within_noise(ranked((0.5, 1.0), (0.0, None))) is None
        assert top_within_noise(ranked((0.5, 1.0))) is None
        assert isinstance(top_within_noise(ranked((3.0, 0.1), (0.0, 0.1))), bool)


class TestUnconstrained:
    def test_identity_ridge(self, ladder):
        n_l = 4
        e = np.array([2.0, 1.0, 1.5, 0.5])
        meas = Measurement(np.linspace(0.5, 3.0, n_l), e, np.ones(n_l), repeats=1)
        kernel = make_kernel_matrix(np.eye(4))
        ladder(6)
        ranked = invert_unconstrained(meas, HandMadeFamily(kernel), tau_grid=(0.5, 0.8))
        for cand in ranked:
            expect = e / (1.0 + cand.gamma)
            assert cand.weights == pytest.approx(expect, rel=1e-6)
        assert sum(c.posterior for c in ranked) == pytest.approx(1.0, abs=1e-12)

    def test_evidence_matches_quadrature(self):
        from aeroinv.model_selection import _log_evidence_unconstrained
        from aeroinv.tikhonov_qp import RidgeCurve

        rng = np.random.default_rng(0)
        K_N = rng.uniform(0.5, 2.0, (4, 2))
        e = np.array([1.0, 1.3, 0.8, 1.1])
        var = np.array([0.04, 0.05, 0.03, 0.06])
        meas = Measurement(np.linspace(1.0, 1.6, 4), e, var, repeats=1)
        sc = NoiseScaling.from_measurement(meas)
        kernel = make_kernel_matrix(K_N)
        reg = build_regularizer("tikhonov", 2)
        # the candidate's own ridge solution at gamma on the weighted system
        w = sc.normalized_weights
        K_w, r_w = K_N * w[:, None], e * w
        n = np.linalg.solve(K_w.T @ K_w + 0.7 * np.eye(2), K_w.T @ r_w)
        cand = ModelCandidate(
            weights=n, kernel=kernel, regularizer=reg,
            gamma=0.7, tau=1.0, residual_sq=float(np.sum((K_w @ n - r_w) ** 2)),
        )
        fit = HandMadeFamily(kernel, wavelengths=meas.wavelengths).level(meas, 4).fit(0)
        curve = RidgeCurve(fit.K, fit.r, reg)
        lz = _log_evidence_unconstrained(curve, cand.gamma, cand.residual_sq, meas)
        R_stat = (0.7 / sc.delta_sq) * np.eye(2)

        def integrand(n2, n1):
            n = np.array([n1, n2])
            resid = K_N @ n - e
            like = np.exp(-0.5 * np.sum(resid**2 / var)) / np.sqrt(
                (2 * np.pi) ** 4 * np.prod(var)
            )
            prior = (
                np.exp(-0.5 * n @ R_stat @ n)
                * np.sqrt(np.linalg.det(R_stat))
                / (2 * np.pi)
            )
            return like * prior

        val, _ = si.dblquad(integrand, -40, 40, -40, 40, epsabs=1e-14, epsrel=1e-10)
        assert lz == pytest.approx(np.log(val), abs=1e-5)


class TestUnconstrainedDiscrepancy:
    def test_every_candidate_meets_its_target(self):
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            KernelLevelCache,
            forward_extinctions,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )
        from aeroinv.tikhonov_qp import _DISCREPANCY_RTOL

        wl, igrid = study_wavelengths(), integration_grid()
        kernel = make_kernel(get_material("h2o"), get_material("air"))
        rows = kernel_rows(kernel, wl, igrid)
        builder = KernelLevelCache(rows, wl, igrid)
        checked = 0
        for i, family in enumerate(("log_normal", "rrsb", "hedrih")):
            dist = parameter_grid(family)[33]
            e_true = forward_extinctions(dist, None, wl, grid=igrid, rows=rows)
            meas = simulate_measurement(wl, e_true, 0.30, 300, rng=700 + i)
            delta_sq = NoiseScaling.from_measurement(meas).delta_sq
            for cand in invert_unconstrained(meas, builder):
                target = cand.tau * meas.n_wavelengths * delta_sq
                assert abs(cand.residual_sq - target) <= _DISCREPANCY_RTOL * target
                checked += 1
        assert checked > 0


class TestStackedUnconstrainedPass:
    """``invert_unconstrained`` fits, certifies and scores each level's
    targets in one stacked pass on its ridge curve; it returns what fitting
    one target at a time returns, field for field."""

    @pytest.fixture(scope="class")
    def study_inputs(self):
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            forward_extinctions,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )

        wl, igrid = study_wavelengths(), integration_grid()
        rows = kernel_rows(
            make_kernel(get_material("h2o"), get_material("air")), wl, igrid
        )
        draws = []
        for i, (family, index) in enumerate(
            [("log_normal", 0), ("rrsb", 44), ("hedrih", 77)]
        ):
            dist = parameter_grid(family)[index]
            e_true = forward_extinctions(dist, None, wl, grid=igrid, rows=rows)
            draws.append(simulate_measurement(wl, e_true, 0.30, 300, rng=300 + i))
        return rows, wl, igrid, draws

    @staticmethod
    def builder(study_inputs):
        from aeroinv.simulation_study import KernelLevelCache

        rows, wl, igrid, _ = study_inputs
        return KernelLevelCache(rows, wl, igrid)

    @staticmethod
    def one_at_a_time(meas, builder, kind):
        """The ladder walk of ``invert_unconstrained`` fitting one target at
        a time: a fresh ridge curve per level, one ``roots`` and one
        ``discrepancy`` call per target, and the closed-form evidence of
        each candidate written out on its own."""
        from aeroinv.errors import BracketFailure
        from aeroinv.model_selection import (
            DEFAULT_LADDER,
            DEFAULT_MAX_DISC,
            _admission_limit,
            _rank,
        )
        from aeroinv.tikhonov_qp import RidgeCurve

        limit = _admission_limit(meas, DEFAULT_TAU_GRID)
        scored, filled = [], 0
        for n_col in DEFAULT_LADDER:
            if n_col - 2 > meas.n_wavelengths:
                break
            kernel = builder(n_col)
            level = builder.level(meas, n_col)
            if level.bound >= limit:
                continue
            fit = level.fit(0)
            reg = build_regularizer(kind, kernel.interior_dim)
            curve = RidgeCurve(fit.K, fit.r, reg)
            found = []
            for tau, target in level.open_targets(fit.lstsq[1], DEFAULT_TAU_GRID):
                try:
                    gamma, n, res = curve.discrepancy(target, curve.roots([target])[0])
                except BracketFailure:
                    continue
                y = curve.coefficients(gamma)
                misfit = (res + gamma * float(y @ y)) / meas.scaling.delta_sq
                log_det = -float(np.sum(np.log1p(curve.eigenvalues / gamma)))
                lm = -0.5 * misfit + 0.5 * log_det - meas.log_likelihood_normalizer
                cand = ModelCandidate(
                    weights=n, kernel=kernel, regularizer=reg, gamma=gamma,
                    tau=tau, residual_sq=res, fraction=kernel.fraction_label,
                )
                found.append((cand, lm))
            if found:
                scored += found
                filled += 1
                if filled >= DEFAULT_MAX_DISC:
                    break
        return _rank([c for c, _ in scored], [lm for _, lm in scored])

    @pytest.mark.parametrize("kind", ["tikhonov", "first_diff", "twomey"])
    def test_every_field_matches_one_target_at_a_time(self, study_inputs, kind):
        for meas in study_inputs[3]:
            ranked = invert_unconstrained(
                meas, self.builder(study_inputs), reg_kind=kind
            )
            ref = self.one_at_a_time(meas, self.builder(study_inputs), kind)
            assert len(ranked) == len(ref) > 1
            for got, want in zip(ranked, ref):
                for field in dataclasses.fields(got):
                    a, b = getattr(got, field.name), getattr(want, field.name)
                    if field.name == "kernel":
                        assert a.entries.tobytes() == b.entries.tobytes()
                    elif isinstance(a, np.ndarray):
                        assert a.tobytes() == b.tobytes(), field.name
                    else:
                        assert a == b, field.name

    def test_first_certificate_miss_in_tau_order_raises(
        self, study_inputs, monkeypatch
    ):
        """Roots moved off two targets of one level fail their certificates:
        RootFailure names the smaller tau's target, as the walk one target
        at a time does."""
        import aeroinv.tikhonov_qp as qp
        from aeroinv.errors import RootFailure

        meas = study_inputs[3][1]
        ranked = invert_unconstrained(meas, self.builder(study_inputs))
        dims = [c.dim for c in ranked]
        dim = max(dims, key=dims.count)  # the level with the most candidates
        taus = sorted(c.tau for c in ranked if c.dim == dim)
        assert len(taus) >= 3
        target = {
            tau: tau * meas.n_wavelengths * meas.scaling.delta_sq for tau in taus
        }
        # the largest and the second-smallest tau, listed largest first
        moved = [target[taus[-1]], target[taus[1]]]
        roots = qp.RidgeCurve.roots

        def moved_roots(self, targets):
            got = roots(self, targets)
            if self.V.shape[0] != dim:
                return got
            return np.where(np.isin(targets, moved), 10.0, 1.0) * got

        monkeypatch.setattr(qp.RidgeCurve, "roots", moved_roots)
        with pytest.raises(RootFailure) as stacked:
            invert_unconstrained(meas, self.builder(study_inputs))
        with pytest.raises(RootFailure) as alone:
            self.one_at_a_time(meas, self.builder(study_inputs), "tikhonov")
        assert f"misses target {float(moved[1])}:" in str(stacked.value)
        assert str(stacked.value) == str(alone.value)


def cho_factor_evidence(candidate, meas, scaling):
    """The unconstrained log evidence by a Cholesky factorization of the
    statistical precision (the reference for the closed form)."""
    import scipy.linalg

    from aeroinv.model_selection import _statistical_system

    form = _statistical_system(candidate, meas)
    e_stat = meas.mean_extinction / np.sqrt(scaling.obs_variance)
    scale = candidate.gamma / scaling.delta_sq
    cf = scipy.linalg.cho_factor(form.H, lower=False)
    logdet_h = 2.0 * float(np.sum(np.log(np.diag(cf[0]))))
    sign, logdet_r = np.linalg.slogdet(scale * candidate.regularizer.matrix)
    assert sign > 0
    misfit = float(e_stat @ e_stat) - float(form.v @ scipy.linalg.cho_solve(cf, form.v))
    return (
        -0.5 * misfit - 0.5 * logdet_h + 0.5 * logdet_r
        - meas.log_likelihood_normalizer
    )


class TestUnconstrainedEvidenceOnStudyLevels:
    def test_closed_form_matches_the_cholesky_formula(self):
        from aeroinv.model_selection import REGULARIZER_KINDS
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            KernelLevelCache,
            forward_extinctions,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )

        wl, igrid = study_wavelengths(), integration_grid()
        rows = kernel_rows(
            make_kernel(get_material("h2o"), get_material("air")), wl, igrid
        )
        builder = KernelLevelCache(rows, wl, igrid)
        dims = set()
        # index 0 puts twomey candidates on levels whose smallest eigenvalue
        # is close to gamma, where the log-determinant term is most sensitive
        for i, (family, index) in enumerate(
            (fam, idx) for fam in ("log_normal", "rrsb", "hedrih") for idx in (0, 55)
        ):
            dist = parameter_grid(family)[index]
            e_true = forward_extinctions(dist, None, wl, grid=igrid, rows=rows)
            meas = simulate_measurement(wl, e_true, 0.30, 300, rng=900 + i)
            sc = NoiseScaling.from_measurement(meas)
            for kind in REGULARIZER_KINDS:
                for cand in invert_unconstrained(meas, builder, reg_kind=kind):
                    expect = cho_factor_evidence(cand, meas, sc)
                    assert cand.log_marginal == pytest.approx(expect, rel=1e-9)
                    dims.add(cand.dim)
        assert len(dims) >= 3


class TestEvidenceScreen:
    """The closed-form bound of ``select_models``' screen on rrsb[44]."""

    @pytest.fixture(scope="class")
    def study_inputs(self):
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            KernelLevelCache,
            forward_extinctions,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )

        wl, igrid = study_wavelengths(), integration_grid()
        rows = kernel_rows(
            make_kernel(get_material("h2o"), get_material("air")), wl, igrid
        )
        dist = parameter_grid("rrsb")[44]
        e_true = forward_extinctions(dist, None, wl, grid=igrid, rows=rows)
        meas = simulate_measurement(
            wl, e_true, 0.30, 300, rng=np.random.default_rng(5)
        )
        return KernelLevelCache(rows, wl, igrid), meas

    @pytest.mark.parametrize("kind", ["tikhonov", "twomey"])
    def test_bound_is_the_unconstrained_evidence_over_the_prior_orthant(
        self, study_inputs, kind
    ):
        # two independent formulas: the ridge curve's eigenvalues against a
        # Cholesky factor of the joint precision
        from aeroinv.model_selection import (
            _log_prior_orthant_probability,
            _statistical_system,
        )
        from aeroinv.orthant_mvn import log_gaussian_integral

        builder, meas = study_inputs
        ranked = invert_unconstrained(meas, builder, reg_kind=kind)
        assert len(ranked) >= 3
        for cand in ranked:
            log_p0 = _log_prior_orthant_probability(kind, cand.dim)[0]
            bound = log_gaussian_integral(_statistical_system(cand, meas))
            assert bound == pytest.approx(cand.log_marginal - log_p0, rel=1e-9)

    @pytest.mark.parametrize("kind", msel.REGULARIZER_KINDS)
    def test_evidence_form_against_its_three_parts(self, study_inputs, kind):
        """The evidence form's log evidence equals the joint orthant integral
        (q = e'e) minus log b minus log Z_prior, each part computed here,
        within 1e-9 at 200 and 1,000 points; the log of the form's integral
        over all of R^N, the screen's bound, is at least every estimate."""
        from aeroinv.model_selection import (
            _log_prior_orthant_probability,
            _statistical_system,
        )
        from aeroinv.orthant_mvn import (
            QuadraticForm,
            log_gaussian_integral,
            orthant_integral,
        )

        builder, meas = study_inputs
        var = meas.variance / meas.repeats
        e = meas.mean_extinction / np.sqrt(var)
        log_b = 0.5 * (meas.n_wavelengths * np.log(2 * np.pi) + np.sum(np.log(var)))
        cands = generate_models(meas, builder, reg_kind=kind)
        assert len(cands) >= 3
        for c in cands:
            K = c.kernel.entries / np.sqrt(var)[:, None]
            R = c.gamma / var.max() * c.regularizer.matrix
            joint = QuadraticForm(K.T @ K + R, K.T @ e, float(e @ e))
            sign, logdet_r = np.linalg.slogdet(R)
            assert sign > 0
            log_z_prior = 0.5 * (c.dim * np.log(2 * np.pi) - logdet_r) + (
                _log_prior_orthant_probability(kind, c.dim)[0]
            )
            bound = log_gaussian_integral(_statistical_system(c, meas))
            for samples in (200, 1000):
                lm = log_marginal_likelihood(c, meas, samples, seed=3).log_value
                three_parts = (
                    orthant_integral(joint, samples, seed=3).log_value
                    - log_b - log_z_prior
                )
                assert abs(lm - three_parts) <= 1e-9
                assert lm <= bound + 1e-9  # equal prefactors; rounding only

    def test_select_models_screens_only_far_below_the_top(self, study_inputs):
        from aeroinv.model_selection import (
            _SCREEN_DIVISOR,
            _SCREEN_NATS,
            _statistical_system,
        )
        from aeroinv.orthant_mvn import DEFAULT_SAMPLES, log_gaussian_integral

        builder, meas = study_inputs
        cands = generate_models(meas, builder)
        ranked = select_models(cands, meas, DEFAULT_SAMPLES, seed=5)
        screened_budget = DEFAULT_SAMPLES // _SCREEN_DIVISOR
        results = {(r.dim, r.tau): r for r in ranked}
        assert len(results) == len(cands) == len(ranked)
        top = ranked[0]
        assert top.log_marginal_samples == DEFAULT_SAMPLES
        screened = []
        # replay the rule: descending bound, best full-budget value so far
        best = -np.inf
        bounds = [
            log_gaussian_integral(_statistical_system(c, meas)) for c in cands
        ]
        for i in np.argsort([-b for b in bounds], kind="stable"):
            r = results[(cands[i].dim, cands[i].tau)]
            budget = r.log_marginal_samples
            assert budget == (
                screened_budget if bounds[i] < best - _SCREEN_NATS
                else DEFAULT_SAMPLES
            )
            lm = log_marginal_likelihood(cands[i], meas, budget, seed=5)
            assert r.log_marginal == lm.log_value
            assert r.log_marginal_se == lm.std_error
            if budget == screened_budget:
                screened.append(r)
                assert bounds[i] < top.log_marginal - _SCREEN_NATS
            else:
                best = max(best, r.log_marginal)
        assert screened
        posterior = sum(r.posterior for r in screened)
        assert posterior <= len(ranked) * np.exp(-_SCREEN_NATS)

    def test_one_statistical_system_per_candidate(self, study_inputs, monkeypatch):
        """select_models builds each candidate's evidence form once, for its
        bound and its estimate.  The form's q carries both normalizers,
        e'e + 2 (log b + log Z_prior), and the bound is its integral over
        all of R^N, bit for bit: a fresh scipy Cholesky factor and
        ``cho_solve`` for the mode."""
        import scipy.linalg

        builder, meas = study_inputs
        sc = NoiseScaling.from_measurement(meas)
        cands = generate_models(meas, builder)
        forms, bounds = [], []
        build, bound = msel._statistical_system, msel.log_gaussian_integral

        def counting_build(c, *args):
            forms.append(build(c, *args))
            return forms[-1]

        def recording_bound(form):
            bounds.append(bound(form))
            return bounds[-1]

        monkeypatch.setattr(msel, "_statistical_system", counting_build)
        monkeypatch.setattr(msel, "log_gaussian_integral", recording_bound)
        msel.select_models(cands, meas, seed=5)
        assert len(forms) == len(cands) == len(bounds)
        e_stat = meas.mean_extinction / np.sqrt(sc.obs_variance)
        for c, form, b in zip(cands, forms, bounds):
            scale = c.gamma / sc.delta_sq
            log_prior_norm = msel.prior_normalizer(c.regularizer, scale).log_value
            assert form.q == float(e_stat @ e_stat) + 2.0 * (
                meas.log_likelihood_normalizer + log_prior_norm
            )
            U = scipy.linalg.cholesky(form.H, lower=False)
            logdet = 2.0 * float(np.sum(np.log(np.diag(U))))
            mode = scipy.linalg.cho_solve((U, False), form.v)
            assert b == -0.5 * (form.q - float(form.v @ mode)) + 0.5 * (
                c.dim * np.log(2.0 * np.pi) - logdet
            )


class TestStackedSetupRanking:
    """``select_models`` sets up the evidence integrals of one dimension
    together; its output is field for field what a loop of separate
    ``log_marginal_likelihood`` calls, in bound order under the screening
    rule, gives."""

    @pytest.fixture(scope="class")
    def draws(self):
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            KernelLevelCache,
            forward_extinctions,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )

        wl, igrid = study_wavelengths(), integration_grid()
        rows = kernel_rows(
            make_kernel(get_material("h2o"), get_material("air")), wl, igrid
        )
        builder = KernelLevelCache(rows, wl, igrid)
        draws = []
        for family, index, seed in [
            ("rrsb", 44, 5), ("log_normal", 11, 5), ("hedrih", 77, 3)
        ]:
            dist = parameter_grid(family)[index]
            e_true = forward_extinctions(dist, None, wl, grid=igrid, rows=rows)
            draws.append(simulate_measurement(
                wl, e_true, 0.30, 300, rng=np.random.default_rng(seed)
            ))
        return builder, draws

    @staticmethod
    def reference_ranking(cands, meas, samples, seed):
        from aeroinv.model_selection import (
            _SCREEN_DIVISOR,
            _SCREEN_NATS,
            _rank,
            _statistical_system,
        )
        from aeroinv.orthant_mvn import log_gaussian_integral

        bounds = [log_gaussian_integral(_statistical_system(c, meas)) for c in cands]
        estimates = [None] * len(cands)
        best = -np.inf
        for i in sorted(range(len(cands)), key=lambda i: -bounds[i]):
            screened = bounds[i] < best - _SCREEN_NATS
            budget = max(samples // _SCREEN_DIVISOR, 1) if screened else samples
            estimates[i] = log_marginal_likelihood(cands[i], meas, budget, seed)
            if not screened:
                best = max(best, estimates[i].log_value)
        return _rank(cands, estimates)

    @pytest.mark.parametrize("kind", ["tikhonov", "twomey"])
    @pytest.mark.parametrize("draw", [0, 1, 2])
    def test_every_field_matches_separate_integrals(self, draws, kind, draw):
        import dataclasses

        from aeroinv.orthant_mvn import DEFAULT_SAMPLES

        builder, measurements = draws
        meas = measurements[draw]
        cands = generate_models(meas, builder, reg_kind=kind)
        assert len({c.dim for c in cands}) < len(cands)  # a shared dimension
        ranked = select_models(cands, meas, DEFAULT_SAMPLES, seed=7)
        ref = self.reference_ranking(cands, meas, DEFAULT_SAMPLES, seed=7)
        assert len(ranked) == len(ref) == len(cands)
        for got, want in zip(ranked, ref):
            for field in dataclasses.fields(got):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), field.name
                else:
                    assert a == b, field.name
        assert top_within_noise(ranked) == top_within_noise(ref)


class TestRankCopies:
    def test_ranked_copy_carries_every_field(self):
        """``_rank`` copies candidates with the ``ModelCandidate``
        constructor: every field, one added later included, equals that of a
        ``dataclasses.replace`` copy.  Each field starts as a value of its
        own, so a field the constructor call leaves out shows."""
        from aeroinv.model_selection import _rank

        kernel = make_kernel_matrix(np.eye(3))

        def candidate(tau):
            values = {f.name: object() for f in dataclasses.fields(ModelCandidate)}
            values.update(kernel=kernel, tau=tau)  # read by the sort key
            return ModelCandidate(**values)

        cands = [candidate(0.8), candidate(1.2)]
        lms = [
            IntegralEstimate(0.01, 4096, -3.0, tilted=True),
            IntegralEstimate(0.02, 819, -1.0, tilted=False),
        ]
        post = np.exp(np.array([-2.0, 0.0]))
        post /= post.sum()
        ref = [
            dataclasses.replace(
                c, log_marginal=lm.log_value, posterior=float(p),
                log_marginal_se=lm.std_error, log_marginal_samples=lm.samples,
                log_marginal_tilted=lm.tilted,
            )
            for c, lm, p in zip(cands, lms, post)
        ][::-1]
        ranked = _rank(cands, lms)
        assert len(ranked) == 2
        for got, want in zip(ranked, ref):
            for field in dataclasses.fields(ModelCandidate):
                assert getattr(got, field.name) == getattr(want, field.name), field.name


class TestBic:
    def test_penalty_prefers_smaller_dimension(self, ladder):
        # two levels with identical (near-zero) fit: smaller N wins the score
        n_l = 8
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.normal(size=(n_l, 5)))
        e = Q[:, :2] @ np.array([2.0, 1.0]) + np.sqrt(0.9 * n_l) * Q[:, 4]
        meas = Measurement(np.linspace(0.5, 3.0, n_l), e, np.ones(n_l), repeats=1)
        kernels = {4: make_kernel_matrix(Q[:, :2]), 5: make_kernel_matrix(Q[:, :3])}
        ladder(4, 5)
        top, score = bic_select(meas, HandMadeFamily(*kernels.values()))
        assert top.dim == 2

    def test_perfect_fit_score_formula(self, ladder):
        n_l = 5
        K = np.eye(n_l)[:, :2]
        n_true = np.array([1.5, 2.5])
        e = K @ n_true
        var = np.full(n_l, 0.25)
        meas = Measurement(np.linspace(0.5, 3.0, n_l), e, var, repeats=1)
        kernel = make_kernel_matrix(K)
        ladder(4)
        top, score = bic_select(meas, HandMadeFamily(kernel), tau_grid=(2.0,))
        expect = n_l * np.log(2 * np.pi) + np.sum(np.log(var)) + 2 * np.log(n_l)
        assert score == pytest.approx(expect, abs=1e-8)

    def test_argmin_matches_hand_evaluation(self, ladder):
        rng = np.random.default_rng(12)
        n_l = 10
        Q, _ = np.linalg.qr(rng.normal(size=(n_l, 8)))
        e = Q[:, :4] @ rng.uniform(1, 2, 4) + np.sqrt(0.8 * n_l) * Q[:, 7]
        meas = Measurement(np.linspace(0.5, 3.0, n_l), e, np.ones(n_l), repeats=1)
        kernels = {n: make_kernel_matrix(Q[:, : n - 2]) for n in (3, 4, 5, 6)}
        ladder(3, 4, 5, 6)
        top, score = bic_select(meas, HandMadeFamily(*kernels.values()))
        # hand evaluation over the SAME admissible levels
        scores = {}
        for n in (3, 4, 5, 6):
            K = kernels[n].entries
            from aeroinv.tikhonov_qp import solve_nnls

            nng = solve_nnls(K, e).residual_sq
            if not any(nng < t * n_l < float(e @ e) for t in DEFAULT_TAU_GRID):
                continue
            ls, *_ = np.linalg.lstsq(K, e, rcond=None)
            res = float(np.sum((K @ ls - e) ** 2))
            scores[n - 2] = n_l * np.log(2 * np.pi) + res + (n - 2) * np.log(n_l)
            if len(scores) == 3:
                break
        best_dim = min(scores, key=lambda d: (scores[d], d))
        assert top.dim == best_dim
        assert score == pytest.approx(scores[best_dim])


@pytest.mark.slow
class TestRankingSeedStability:
    def test_top_candidate_stable_across_mc_seeds(self):
        # >= 95% of study-style inversions keep the same top candidate over
        # five Monte Carlo seeds at the default sample budget
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            KernelLevelCache,
            forward_extinctions,
            fine_grid,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )
        from aeroinv.model_selection import generate_models, select_models
        from aeroinv.orthant_mvn import DEFAULT_SAMPLES

        wl = study_wavelengths()
        igrid, fgrid = integration_grid(), fine_grid()
        kernel = make_kernel(get_material("h2o"), get_material("air"))
        frows = kernel_rows(kernel, wl, fgrid)
        builder = KernelLevelCache(kernel_rows(kernel, wl, igrid), wl, igrid)
        params = parameter_grid("log_normal")
        stable = total = 0
        for i, pidx in enumerate(range(0, 100, 5)):
            dist = params[pidx]
            e_true = forward_extinctions(dist, None, wl, grid=fgrid, rows=frows)
            meas = simulate_measurement(wl, e_true, 0.30, 300, rng=5000 + i)
            cands = generate_models(meas, builder)
            tops = set()
            for seed in range(5):
                ranked = select_models(cands, meas, samples=DEFAULT_SAMPLES, seed=seed)
                top = ranked[0]
                tops.add((top.dim, top.tau))
            stable += len(tops) == 1
            total += 1
        assert stable / total >= 0.95


class TestChiSquareCalibration:
    def test_weighted_residual_at_truth(self):
        # residual at the exact model mean over many draws ~ chi^2(N_l)
        rng = np.random.default_rng(99)
        n_l = 48
        sigma = rng.uniform(0.5, 2.0, n_l)
        draws = 1000
        values = []
        for _ in range(draws):
            delta = rng.standard_normal(n_l) * sigma
            values.append(float(np.sum((delta / sigma) ** 2)))
        mean = np.mean(values)
        se = np.sqrt(2.0 * n_l / draws)
        assert abs(mean - n_l) <= 3.0 * se


class TestSharedLevelFits:
    """Morozov, unconstrained and BIC on one family and one measurement fit
    each visited level at most once (one admission NNLS and one
    least-squares fit), and a level its least-squares bound settles not at
    all."""

    @pytest.fixture(scope="class")
    def study_inputs(self):
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            forward_extinctions,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )

        wl, igrid = study_wavelengths(), integration_grid()
        rows = kernel_rows(
            make_kernel(get_material("h2o"), get_material("air")), wl, igrid
        )
        dist = parameter_grid("rrsb")[44]
        e_true = forward_extinctions(dist, None, wl, grid=igrid, rows=rows)
        meas = simulate_measurement(wl, e_true, 0.30, 300, rng=17)
        return rows, wl, igrid, meas

    @staticmethod
    def family(study_inputs):
        from aeroinv.simulation_study import KernelLevelCache

        rows, wl, igrid, _ = study_inputs
        return KernelLevelCache(rows, wl, igrid)

    @staticmethod
    def classical(meas, builders):
        from aeroinv.model_selection import invert_morozov

        morozov, unconstrained, bic = builders
        return (
            invert_morozov(meas, morozov),
            invert_unconstrained(meas, unconstrained),
            [bic_select(meas, bic)[0]],
        )

    @staticmethod
    def counted(monkeypatch):
        """Per-level (model dimension) counts of the admission NNLS and of
        the least-squares fits."""
        import aeroinv.model_selection as ms

        counts = {"nnls": {}, "lstsq": {}}

        def counting(name, inner):
            def call(K, r, *args, **kwargs):
                dim = np.shape(K)[1]
                counts[name][dim] = counts[name].get(dim, 0) + 1
                return inner(K, r, *args, **kwargs)

            return call

        monkeypatch.setattr(ms, "solve_nnls", counting("nnls", ms.solve_nnls))
        monkeypatch.setattr(
            ms.np.linalg, "lstsq", counting("lstsq", ms.np.linalg.lstsq)
        )
        return counts

    class Visiting(KernelFamily):
        """``family`` itself, with its matrices and level fits, noting in
        ``visited`` the model dimension of every level asked for."""

        def __init__(self, family, visited):
            super().__init__(
                **{f.name: getattr(family, f.name) for f in dataclasses.fields(family)}
            )
            self.visited = visited

        def __call__(self, n_col):
            self.visited.add(n_col - 2)
            return super().__call__(n_col)

    def assert_same(self, results, expected):
        for ranked, ranked_ref in zip(results, expected):
            assert len(ranked) == len(ranked_ref)
            for c, ref in zip(ranked, ranked_ref):
                assert (c.dim, c.tau, c.gamma) == (ref.dim, ref.tau, ref.gamma)
                assert c.residual_sq == ref.residual_sq
                assert c.log_marginal == ref.log_marginal
                assert np.array_equal(c.weights, ref.weights)

    def test_each_level_is_fitted_once(self, study_inputs, monkeypatch):
        meas = study_inputs[3]
        family = self.family(study_inputs)
        visited = [set(), set(), set()]
        counts = self.counted(monkeypatch)
        results = self.classical(
            meas, [self.Visiting(family, v) for v in visited]
        )
        morozov, unconstrained, bic = visited
        from aeroinv.model_selection import MOROZOV_TAU, _admission_limit

        levels = {n_col - 2: level for n_col, level in family._state[1].items()}

        def opened(dims, taus):
            limit = _admission_limit(meas, taus)
            return {dim for dim in dims if levels[dim].bound < limit}

        grid = DEFAULT_TAU_GRID
        scored = {
            dim for dim in opened(bic, grid)
            if levels[dim].open_targets(levels[dim].fit(0).nnls_residual, grid)
        }
        assert counts["nnls"] == {
            dim: 1 for dim in opened(morozov, (MOROZOV_TAU,)) | opened(bic, grid)
        }
        assert counts["lstsq"] == {
            dim: 1 for dim in opened(unconstrained, grid) | scored
        }
        # BIC admits every level Morozov visits, so it reuses their NNLS,
        # and the bound settles some of them
        assert morozov <= bic and len(bic) > len(morozov)
        assert opened(bic, grid) < bic
        monkeypatch.undo()
        expected = self.classical(
            meas, [self.family(study_inputs) for _ in range(3)]
        )
        self.assert_same(results, expected)

    def test_a_new_measurement_gets_fresh_fits(self, study_inputs, monkeypatch):
        meas = study_inputs[3]
        family = self.family(study_inputs)
        first = self.classical(meas, [family] * 3)
        twin = Measurement(
            meas.wavelengths, meas.mean_extinction, meas.variance, meas.repeats
        )
        counts = self.counted(monkeypatch)
        second = self.classical(twin, [family] * 3)
        assert counts["nnls"] and counts["lstsq"]
        assert set(counts["nnls"].values()) == {1}
        self.assert_same(second, first)


def reachable(root):
    """Every object reachable from ``root`` by ``gc.get_referents``, except
    through modules, classes and functions, whose globals reach every live
    object."""
    import gc
    import types

    stop = (types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType)
    seen, todo = {id(root): root}, [root]
    while todo:
        for obj in gc.get_referents(todo.pop()):
            if id(obj) not in seen and not isinstance(obj, stop):
                seen[id(obj)] = obj
                todo.append(obj)
    return list(seen.values())


class TestLevelFitLifetime:
    """A level's fits live on its family: the ranked candidates of an
    inversion keep no ridge curve or search state alive."""

    study_inputs = TestSharedLevelFits.study_inputs
    family = staticmethod(TestSharedLevelFits.family)

    def test_ranked_candidates_keep_no_search_state(self, study_inputs):
        from aeroinv.model_selection import invert_constrained
        from aeroinv.tikhonov_qp import RidgeCurve, SearchState

        meas = study_inputs[3]
        family = self.family(study_inputs)
        ranked = invert_constrained(meas, family, samples=500)
        assert any(isinstance(o, SearchState) for o in reachable(family))
        del family
        kept = (RidgeCurve, SearchState)
        assert [o for o in reachable(ranked) if isinstance(o, kept)] == []

    def test_a_dropped_family_frees_its_level_stacks_without_a_collection(
        self, study_inputs
    ):
        """Neither a level state nor its fits refer back to their family or
        level, so reference counting alone frees a fitted family and every
        level stack it built: a one-fraction family after a constrained
        inversion and an 11-anchor mixture family after its generation."""
        import gc
        import weakref

        from aeroinv.model_selection import invert_constrained
        from aeroinv.optics import get_material
        from aeroinv.simulation_study import (
            SizeDistribution,
            forward_extinctions,
            simulate_measurement,
        )
        from aeroinv.two_component import (
            build_kernel_family,
            generate_models_two_component,
        )

        rows, wl, igrid, meas = study_inputs

        def single():
            family = self.family(study_inputs)
            return family, invert_constrained(meas, family, samples=500)

        def mixture():
            water, csi, air = (get_material(m) for m in ("h2o", "csi", "air"))
            family = build_kernel_family(water, csi, air, wl, igrid, anchor_count=11)
            dist = SizeDistribution("log_normal", 1e4, (0.3, 1.8))
            e_true = forward_extinctions(
                dist, None, wl, grid=igrid, rows=family._anchor_rows[5]
            )
            mix = simulate_measurement(wl, e_true, 0.05, 300, rng=4)
            return family, generate_models_two_component(family, mix)

        for fit in (single, mixture):
            family, candidates = fit()
            assert candidates and family._state[1]
            refs = [weakref.ref(family)] + [
                weakref.ref(stacked) for _, stacked in family._levels.values()
            ]
            gc.disable()
            try:
                del family, candidates
                assert [ref() for ref in refs] == [None] * len(refs), fit.__name__
            finally:
                gc.enable()


class TestBoundSettledLevels:
    """Every single-material walk first compares each level's least-squares
    bound with the walk's largest target: a level the bound settles gets no
    NNLS and no least-squares fit, and every candidate is field for field
    the one the walk returns with the bound set to 0."""

    METHODS = ("constrained", "morozov", "unconstrained", "bic")

    @pytest.fixture(scope="class")
    def draws(self):
        from aeroinv.optics import get_material, make_kernel
        from aeroinv.simulation_study import (
            forward_extinctions,
            integration_grid,
            kernel_rows,
            parameter_grid,
            simulate_measurement,
            study_wavelengths,
        )

        wl, igrid = study_wavelengths(), integration_grid()
        rows = kernel_rows(
            make_kernel(get_material("h2o"), get_material("air")), wl, igrid
        )
        draws = []
        for family, index, seed in [
            ("rrsb", 44, 5), ("log_normal", 11, 5), ("hedrih", 77, 3)
        ]:
            dist = parameter_grid(family)[index]
            e_true = forward_extinctions(dist, None, wl, grid=igrid, rows=rows)
            draws.append(simulate_measurement(
                wl, e_true, 0.30, 300, rng=np.random.default_rng(seed)
            ))
        return (rows, wl, igrid), draws

    @staticmethod
    def run(method, meas, family, kind):
        """The method's candidates on a fresh family, or NoModels."""
        from aeroinv.model_selection import invert_morozov

        try:
            if method == "constrained":
                return generate_models(meas, family, reg_kind=kind)
            if method == "morozov":
                return invert_morozov(meas, family, reg_kind=kind)
            if method == "unconstrained":
                return invert_unconstrained(meas, family, reg_kind=kind)
            return [bic_select(meas, family)[0]]
        except NoModels:
            return NoModels

    @staticmethod
    def assert_same(got, want):
        if got is NoModels or want is NoModels:
            assert got is want
            return
        assert len(got) == len(want)
        for c, ref in zip(got, want):
            for field in dataclasses.fields(c):
                a, b = getattr(c, field.name), getattr(ref, field.name)
                if field.name == "kernel":
                    assert a.entries.tobytes() == b.entries.tobytes()
                    assert a.fraction_label == b.fraction_label
                elif isinstance(a, np.ndarray):
                    assert a.tobytes() == b.tobytes(), field.name
                elif field.name == "regularizer":
                    assert a is b
                else:
                    assert a == b, field.name

    @pytest.mark.parametrize("kind", ["tikhonov", "twomey"])
    @pytest.mark.parametrize("draw", [0, 1, 2])
    def test_settled_levels_get_no_fit_and_change_no_candidate(
        self, draws, kind, draw, monkeypatch
    ):
        import aeroinv.model_selection as ms
        from aeroinv.simulation_study import KernelLevelCache

        inputs, measurements = draws
        meas = measurements[draw]
        counted = TestSharedLevelFits.counted
        visiting = TestSharedLevelFits.Visiting
        for method in self.METHODS:
            # which fit admits a level: the unconstrained walk's is lstsq
            fit = "lstsq" if method == "unconstrained" else "nnls"
            runs = []
            for bound in (True, False):
                with monkeypatch.context() as patch:
                    if not bound:
                        patch.setattr(
                            ms, "_least_squares_bounds",
                            lambda stacked, w, r: np.zeros(len(stacked)),
                        )
                    visited = set()
                    family = visiting(KernelLevelCache(*inputs), visited)
                    counts = counted(patch)
                    runs.append((self.run(method, meas, family, kind), visited,
                                 set(counts[fit])))
            (got, visited, fitted), (want, ref_visited, ref_fitted) = runs
            self.assert_same(got, want)
            assert visited == ref_visited
            # without the bound every visited level is fitted; with it, the
            # settled ones are not
            assert ref_fitted == ref_visited
            assert fitted < visited, method

    def test_settled_levels_never_form_the_weighted_kernel(self, draws):
        """After every walk on one family, a level the bound settles for
        every method has no weighted K and every other level formed one;
        each level's bound is its entry of a stacked
        ``_least_squares_bounds`` call bit for bit."""
        import aeroinv.model_selection as ms
        from aeroinv.simulation_study import KernelLevelCache

        inputs, measurements = draws
        limit = ms._admission_limit(measurements[0], ms.DEFAULT_TAU_GRID)
        family = KernelLevelCache(*inputs)
        for method in self.METHODS:
            self.run(method, measurements[0], family, "tikhonov")
        levels = list(family._state[1].values())
        settled = [level for level in levels if level.bound >= limit]
        assert settled and len(settled) < len(levels)
        for level in levels:
            formed = 0 in level._fits and "K" in vars(level.fit(0))
            assert formed == (level.bound < limit)
            entries = level.stacked[0]
            stacked = np.stack([2.0 * entries, entries, entries[:, ::-1]])
            bounds = ms._least_squares_bounds(stacked, level.w, level.r)
            assert float(bounds[1]).hex() == level.bound.hex()
            if formed:
                assert level.fit(0).K.tobytes() == (
                    entries * level.w[:, None]
                ).tobytes()


class TestSharedRidgeCurves:
    """Every method on one family and one measurement builds one all-passive
    ridge curve per (level, regularizer kind): the constrained searches of
    every tau, Morozov's search and the unconstrained fit and evidence all
    use it."""

    study_inputs = TestSharedLevelFits.study_inputs
    family = staticmethod(TestSharedLevelFits.family)
    assert_same = TestSharedLevelFits.assert_same

    @staticmethod
    def counted(monkeypatch, family, meas):
        """All-passive curves built, per (model dimension, kind): the curves
        on a level's whole weighted system, not on a passive block of it."""
        import aeroinv.tikhonov_qp as qp

        w = NoiseScaling.from_measurement(meas).normalized_weights
        counts = {}
        inner = qp.RidgeCurve.__init__

        def init(self, K, r, reg):
            dim = K.shape[1]
            if np.array_equal(K, family(dim + 2).entries * w[:, None]):
                kind = next(
                    k for k in ("tikhonov", "first_diff", "twomey")
                    if np.array_equal(reg.matrix, build_regularizer(k, dim).matrix)
                )
                counts[dim, kind] = counts.get((dim, kind), 0) + 1
            inner(self, K, r, reg)

        monkeypatch.setattr(qp.RidgeCurve, "__init__", init)
        return counts

    @staticmethod
    def methods(meas, builder):
        from aeroinv.model_selection import invert_constrained, invert_morozov

        return [
            invert_constrained(meas, builder, reg_kind=kind, samples=500)
            for kind in ("tikhonov", "twomey")
        ] + [
            invert_morozov(meas, builder),
            invert_unconstrained(meas, builder),
        ]

    def test_one_curve_per_level_and_kind(self, study_inputs, monkeypatch):
        import aeroinv.model_selection as ms

        meas = study_inputs[3]
        searches = []
        inner_search = ms.solve_discrepancy
        monkeypatch.setattr(
            ms, "solve_discrepancy",
            lambda *a, **k: searches.append(k) or inner_search(*a, **k),
        )
        family = self.family(study_inputs)
        counts = self.counted(monkeypatch, family, meas)
        results = self.methods(meas, family)
        assert counts and set(counts.values()) == {1}
        constrained, _, morozov, unconstrained = results
        # Morozov's level and the unconstrained levels reuse the tikhonov
        # curves the constrained search built on the same levels
        assert (morozov[0].dim, "tikhonov") in counts
        assert {c.dim for c in constrained} & {c.dim for c in unconstrained}
        # every search ran on the level's shared search state
        assert searches and all(k["state"] is not None for k in searches)
        monkeypatch.undo()

        # the same searches, each on a state of its own: its own curves,
        # and a start with every variable free
        monkeypatch.setattr(
            ms, "solve_discrepancy",
            lambda K, r, R, t, base, **_: inner_search(K, r, R, t, base),
        )
        self.assert_same(results, self.methods(meas, self.family(study_inputs)))

    def test_fresh_matrices_share_the_curve_across_taus(
        self, study_inputs, monkeypatch
    ):
        meas = study_inputs[3]
        family = self.family(study_inputs)
        counts = self.counted(monkeypatch, family, meas)
        candidates = generate_models(meas, family)
        assert len(candidates) > len({c.dim for c in candidates})  # several taus
        assert counts == {(dim, "tikhonov"): 1 for dim in {c.dim for c in candidates}}

    def test_full_regularizer_is_never_factored_again(
        self, study_inputs, monkeypatch
    ):
        import aeroinv.tikhonov_qp as qp

        meas = study_inputs[3]
        self.methods(meas, self.family(study_inputs))  # every (kind, N) built
        factored = []
        inner = qp._cholesky_upper
        monkeypatch.setattr(
            qp, "_cholesky_upper", lambda R: factored.append(R) or inner(R)
        )
        invert_unconstrained(meas, self.family(study_inputs))
        assert factored == []
        self.methods(meas, self.family(study_inputs))
        # what is left are round-two curves on passive blocks, fresh copies
        # of R; every search on a whole level passes the shared read-only
        # regularizer and its stored factor
        assert all(R.flags.writeable for R in factored)


class TestSearchState:
    """The discrepancy searches of one level and regularizer kind share one
    ``SearchState``: each passive set's ridge curve is built once and roots
    a pass's targets in one call, and a search starts from the passive set
    where the previous search of its pass ended, never from another pass's."""

    study_inputs = TestSharedLevelFits.study_inputs
    family = staticmethod(TestSharedLevelFits.family)

    @staticmethod
    def curves(monkeypatch):
        """Ridge-curve builds and ``roots`` calls per system, keyed by the
        system's (K, r, R) bytes: a passive block of a level is its own
        system."""
        from collections import Counter

        import aeroinv.tikhonov_qp as qp

        built, rooted = Counter(), Counter()
        init, roots = qp.RidgeCurve.__init__, qp.RidgeCurve.roots

        def counting_init(self, K, r, reg):
            init(self, K, r, reg)
            self.key = (K.shape, K.tobytes(), r.tobytes(), reg.matrix.tobytes())
            built[self.key] += 1

        def counting_roots(self, targets):
            rooted[self.key] += 1
            return roots(self, targets)

        monkeypatch.setattr(qp.RidgeCurve, "__init__", counting_init)
        monkeypatch.setattr(qp.RidgeCurve, "roots", counting_roots)
        return built, rooted

    def test_each_passive_set_curve_is_built_once(self, study_inputs, monkeypatch):
        meas = study_inputs[3]
        built, rooted = self.curves(monkeypatch)
        dims = set()
        for kind in ("tikhonov", "twomey"):
            candidates = generate_models(meas, self.family(study_inputs), reg_kind=kind)
            dims |= {(c.dim, kind) for c in candidates}
        # the searches left the all-free set, so passive blocks were built
        assert len(built) > len(dims)
        assert set(built.values()) == {1}
        # one pass per level and kind: every curve roots its targets at once
        assert set(rooted.values()) == {1}

    def test_candidates_meet_their_targets_with_a_kkt_certificate(
        self, study_inputs
    ):
        from aeroinv.model_selection import invert_morozov
        from aeroinv.tikhonov_qp import _DISCREPANCY_RTOL, _dual_tol

        meas = study_inputs[3]
        family = self.family(study_inputs)
        candidates = [
            c for kind in ("tikhonov", "first_diff", "twomey")
            for c in generate_models(meas, family, reg_kind=kind)
        ] + invert_morozov(meas, family)
        for c in candidates:
            level = family.level(meas, len(c.kernel.collocation_grid))
            target = c.tau * meas.n_wavelengths * level.delta_sq
            assert abs(c.residual_sq - target) <= _DISCREPANCY_RTOL * target
            K, r, n = level.fit(0).K, level.r, c.weights
            d = K @ n - r
            assert c.residual_sq == float(d @ d)
            grad = K.T @ d + c.gamma * (c.regularizer.matrix @ n)
            free = n > 0.0
            assert np.all(n >= 0.0) and free.any()
            # the Gram loop stops once no gradient entry off the positive
            # set is below -dual_tol; on it the gradient vanishes up to
            # the rounding of the passive solve
            assert np.all(grad[~free] >= -_dual_tol(K.T @ r))
            assert np.max(np.abs(grad[free])) <= 1e-8 * np.max(np.abs(K.T @ r))

    def test_morozov_after_generation_starts_all_free(
        self, study_inputs, monkeypatch
    ):
        """On a shared level cache the constrained pass leaves curves,
        roots and its last passive set on Morozov's level; Morozov's one
        search still starts with every variable free and returns the
        fresh-cache candidate field for field."""
        import dataclasses

        import aeroinv.tikhonov_qp as qp
        from aeroinv.model_selection import invert_morozov

        meas = study_inputs[3]
        fresh = invert_morozov(meas, self.family(study_inputs))
        shared = self.family(study_inputs)
        generate_models(meas, shared)
        (dim,) = {c.dim for c in fresh}
        state = shared.level(meas, dim + 2).fit(0).search("tikhonov")
        assert state.start is not None and not state.start.all()

        searches, starts = [], []
        search, ridge_root = qp.solve_discrepancy, qp._ridge_root

        def first_root(state, passive, target_sq):
            if len(starts) < len(searches):  # the search's first passive set
                starts.append(passive.copy())
            return ridge_root(state, passive, target_sq)

        monkeypatch.setattr(qp, "_ridge_root", first_root)
        monkeypatch.setattr(
            "aeroinv.model_selection.solve_discrepancy",
            lambda *a, **k: searches.append(a) or search(*a, **k),
        )
        after = invert_morozov(meas, shared)
        assert len(searches) == len(starts) == 1 and starts[0].all()
        (got,), (expect,) = after, fresh
        for f in dataclasses.fields(got):
            a, b = getattr(got, f.name), getattr(expect, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            elif f.name != "kernel":  # fresh caches hold equal matrices
                assert a == b, f.name
        assert np.array_equal(got.kernel.entries, expect.kernel.entries)
