import dataclasses

import numpy as np
import pytest
from scipy.integrate import simpson

from aeroinv.discretization import build_collocation_grid
from aeroinv.errors import ZeroTruth
from aeroinv.simulation_study import (
    N_FINE,
    N_INTEGRATION,
    SizeDistribution,
    eval_size_distribution,
    fine_grid,
    forward_extinctions,
    integration_grid,
    parameter_grid,
    reduced_config,
    relative_l2_error,
    run_study,
    simulate_measurement,
    study_wavelengths,
)


class TestWavelengths:
    def test_band_structure(self):
        wl = study_wavelengths()
        assert wl.size == 48
        assert wl[0] == 0.6 and wl[7] == 0.8
        assert wl[8] == 1.1 and wl[15] == 1.3
        assert wl[16] == 1.6 and wl[23] == 1.8
        assert wl[24] == 2.1 and wl[39] == 2.5
        assert wl[40] == 3.1 and wl[47] == 3.3

    def test_inverse_crime_guard(self):
        # the forward grid must differ from the inversion integration grid
        assert N_FINE != N_INTEGRATION
        f, i = fine_grid(), integration_grid()
        assert len(f) != len(i)
        interior = i.points[1:-1]
        assert not np.all(np.isin(interior, f.points))


class TestSizeDistributions:
    def test_hedrih_vanishes_at_origin(self):
        dist = SizeDistribution("hedrih", 1e4, (1.5,))
        assert eval_size_distribution(dist, 1e-8) < 1e-12

    def test_log_normal_mode(self):
        sigma, mu = 0.35, 1.9
        dist = SizeDistribution("log_normal", 1e4, (sigma, mu))
        r = np.linspace(0.01, 7.0, 200001)
        argmax = r[np.argmax(eval_size_distribution(dist, r))]
        expect = np.exp(np.log(mu) - sigma**2)
        assert abs(argmax - expect) <= (r[1] - r[0])

    def test_rrsb_mode(self):
        n_exp, nu = 5.0, 2.2
        dist = SizeDistribution("rrsb", 1e4, (n_exp, nu))
        r = np.linspace(0.01, 7.0, 200001)
        argmax = r[np.argmax(eval_size_distribution(dist, r))]
        expect = nu * ((n_exp - 1) / n_exp) ** (1 / n_exp)
        assert abs(argmax - expect) <= (r[1] - r[0])


class TestParameterGrids:
    @pytest.mark.parametrize("family", ["log_normal", "rrsb", "hedrih"])
    def test_cardinality_and_tail_bound(self, family):
        grid = parameter_grid(family)
        assert len(grid) == 100
        for dist in grid:
            assert eval_size_distribution(dist, 7.0) <= 10.0 + 1e-6

    def test_hedrih_eta_max(self):
        grid = parameter_grid("hedrih")
        assert grid[-1].params[0] == pytest.approx(2.0566, abs=1e-3)

    def test_modes_at_least_one_micron(self):
        for family in ("log_normal", "rrsb"):
            r = np.linspace(0.01, 7.0, 20001)
            for dist in parameter_grid(family)[:20]:
                argmax = r[np.argmax(eval_size_distribution(dist, r))]
                assert argmax >= 1.0 - 2 * (r[1] - r[0])


class TestForward:
    def test_zero_distribution(self):
        dist = SizeDistribution("hedrih", 1e-12, (1.5,))
        wl = np.array([0.6, 1.2])
        e = forward_extinctions(dist, lambda r, l: np.ones_like(r), wl)
        assert np.all(e < 1e-10)

    def test_unit_kernel_matches_finer_quadrature(self):
        dist = SizeDistribution("log_normal", 1e4, (0.3, 1.8))
        wl = np.array([0.6])
        e = forward_extinctions(dist, lambda r, l: np.ones_like(r), wl)
        fine = np.linspace(0.01, 7.0, 100001)
        oracle = simpson(eval_size_distribution(dist, fine), x=fine)
        assert e[0] == pytest.approx(oracle, rel=1e-8)

    def test_linearity(self):
        wl = np.array([0.8, 2.2])
        k = lambda r, l: (1 + r) / l
        d1 = SizeDistribution("hedrih", 1e4, (1.4,))
        d2 = SizeDistribution("hedrih", 2e4, (1.4,))
        assert forward_extinctions(d2, k, wl) == pytest.approx(
            2.0 * forward_extinctions(d1, k, wl)
        )


class TestSimulateMeasurement:
    def test_zero_noise(self):
        wl = np.array([0.6, 1.2, 2.2])
        e = np.array([10.0, 20.0, 30.0])
        meas = simulate_measurement(wl, e, 0.0, repeats=300, rng=0)
        assert np.array_equal(meas.mean_extinction, e)
        assert np.all(meas.variance == 1e-30)  # floored

    def test_sample_mean_clt_bound(self):
        wl = study_wavelengths()
        e = np.full(48, 100.0)
        meas = simulate_measurement(wl, e, 0.30, repeats=300, rng=1)
        assert np.all(np.abs(meas.mean_extinction - e) <= 4 * 30.0 / np.sqrt(300))

    def test_sample_variance_chi2_band(self):
        # chi^2(299) quantile oracle: sample variance / sigma^2 in [0.7, 1.4]
        wl = study_wavelengths()
        e = np.full(48, 50.0)
        meas = simulate_measurement(wl, e, 0.30, repeats=300, rng=2)
        ratio = meas.variance / (0.30 * 50.0) ** 2
        assert np.all(ratio >= 0.7) and np.all(ratio <= 1.4)


    def test_rejects_bad_repeats_and_noise(self):
        wl, e = np.array([0.6, 1.2]), np.array([10.0, 20.0])
        for repeats in (0, -1, 1.5, 2.0, "2"):
            with pytest.raises(ValueError, match="repeats"):
                simulate_measurement(wl, e, 0.3, repeats=repeats, rng=0)
        for noise in (-0.3, np.nan, np.inf):
            with pytest.raises(ValueError, match="noise_fraction"):
                simulate_measurement(wl, e, noise, repeats=3, rng=0)


class TestRelativeError:
    def test_zero_reconstruction_is_hundred_percent(self):
        dist = SizeDistribution("log_normal", 1e4, (0.3, 1.8))
        grid = build_collocation_grid(10, integration_grid())
        err = relative_l2_error(np.zeros(8), grid, dist)
        assert err == pytest.approx(100.0)

    def test_scaled_reconstruction(self):
        # weights representing the truth well, scaled by 1.1 -> ~10% error
        dist = SizeDistribution("hedrih", 1e4, (1.5,))
        igrid = integration_grid()
        grid = build_collocation_grid(300, igrid)
        w = eval_size_distribution(dist, grid.points[1:-1])
        base = relative_l2_error(w, grid, dist)
        assert base <= 0.5
        err = relative_l2_error(1.1 * w, grid, dist)
        assert err == pytest.approx(10.0, abs=0.5)

    def test_zero_truth_raises(self):
        dist = SizeDistribution("log_normal", 1e4, (0.05, 500.0))
        grid = build_collocation_grid(6, integration_grid())
        with pytest.raises(ZeroTruth):
            relative_l2_error(np.ones(4), grid, dist)


class TestStudyHarness:
    def tiny_config(self):
        return reduced_config(
            families=("log_normal",),
            methods=("constrained",),
            parameter_indices=(44,),
            repeats_per_parameter=1,
            mc_samples=2000,
        )

    def test_smoke_run(self):
        report = run_study(self.tiny_config())
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.status == "success"
        assert rec.l2_error < 100.0
        stats = report.method_stats[("log_normal", "constrained", "tikhonov")]
        assert stats.l2_failures == 0
        assert stats.runs == 1

    def test_determinism(self):
        strip = lambda rec: dataclasses.replace(rec, runtime=0.0)
        a = run_study(self.tiny_config())
        b = run_study(self.tiny_config())
        assert [strip(r) for r in a.records] == [strip(r) for r in b.records]

    def test_top_candidate_evidence_error_on_record(self):
        """Constrained records carry the top candidate's log-evidence
        standard error and the method aggregate its mean and maximum; the
        classical methods have none."""
        config = dataclasses.replace(
            self.tiny_config(), methods=("constrained", "morozov", "bic")
        )
        report = run_study(config)
        by_method = {r.method: r for r in report.records}
        se = by_method["constrained"].log_marginal_se
        assert se is not None and 0.0 < se < np.inf
        assert by_method["morozov"].log_marginal_se is None
        assert by_method["bic"].log_marginal_se is None
        for method in ("constrained", "morozov", "bic"):
            stats = report.method_stats[("log_normal", method, "tikhonov")]
            expected = se if method == "constrained" else None
            assert stats.avg_log_marginal_se == expected
            assert stats.worst_log_marginal_se == expected

    def test_run_labels_exhaustive(self):
        report = run_study(self.tiny_config())
        valid = {"success", "l2_failure", "fraction_failure", "no_model_failure"}
        assert {r.status for r in report.records} <= valid


class TestNoModelRecords:
    """A run whose data no model fits records the coarsest grid, dimension 0
    and, in the mixture study, the uninformative fraction 0.5."""

    WAVELENGTHS = np.linspace(0.6, 3.3, 8)

    @pytest.fixture(scope="class")
    def weak_measurement(self):
        from aeroinv.model_selection import Measurement

        return Measurement(self.WAVELENGTHS, np.full(8, 1e-9), np.ones(8), 1)

    @pytest.mark.parametrize(
        "method, anchors, n_frac, p_true",
        [("morozov", 1, 1, None), ("constrained2", 3, 5, 0.8)],
    )
    def test_no_model_record(
        self, weak_measurement, method, anchors, n_frac, p_true
    ):
        from aeroinv.discretization import uniform_grid
        from aeroinv.optics import get_material
        from aeroinv.simulation_study import TwoComponentStudyConfig, _invert_one
        from aeroinv.two_component import build_kernel_family

        water, csi, air = map(get_material, ("h2o", "csi", "air"))
        igrid = uniform_grid(0.01, 7.0, 40)
        family = build_kernel_family(
            water, water if anchors == 1 else csi, air, self.WAVELENGTHS, igrid,
            anchor_count=anchors, n_frac=n_frac,
        )
        config = reduced_config() if p_true is None else TwoComponentStudyConfig()
        dist = parameter_grid("log_normal")[0]
        rec = _invert_one(
            weak_measurement, family, method, "tikhonov", config, 0, dist,
            "log_normal", 0, 0, uniform_grid(0.01, 7.0, 201), p_true,
        )
        assert rec.status == "no_model_failure"
        assert rec.model_dim == 0
        assert rec.log_marginal_se is None
        assert rec.l2_error == pytest.approx(100.0)
        if p_true is None:
            assert rec.retrieved_fraction is None and rec.fraction_dev is None
        else:
            assert rec.retrieved_fraction == 0.5
            assert rec.fraction_dev == pytest.approx(30.0)


@pytest.mark.parametrize("by_fraction", [False, True])
def test_aggregate_evidence_error_skips_runs_without_one(by_fraction):
    from aeroinv.simulation_study import RunRecord, _aggregate

    def record(se):
        return RunRecord(
            family="log_normal", method="constrained2", reg_kind="tikhonov",
            param_index=0, repeat=0, l2_error=10.0, model_dim=5, runtime=1.0,
            status="success" if se is not None else "no_model_failure",
            water_fraction=0.33, retrieved_fraction=0.3, fraction_dev=3.0,
            log_marginal_se=se,
        )

    (stats,) = _aggregate(
        [record(0.02), record(None), record(0.06)], by_fraction
    ).values()
    assert stats.avg_log_marginal_se == pytest.approx(0.04)
    assert stats.worst_log_marginal_se == 0.06
    (stats,) = _aggregate([record(None)], by_fraction).values()
    assert stats.avg_log_marginal_se is None
    assert stats.worst_log_marginal_se is None


def test_root_failure_becomes_a_search_failure_record(monkeypatch):
    import aeroinv.simulation_study as study
    from aeroinv.errors import RootFailure

    inner = study.invert

    def failing_morozov(meas, forward, method, *args):
        if method == "morozov":
            raise RootFailure("discrepancy search did not converge")
        return inner(meas, forward, method, *args)

    monkeypatch.setattr(study, "invert", failing_morozov)
    config = reduced_config(
        methods=("morozov", "unconstrained", "bic"), parameter_indices=(0, 44),
        repeats_per_parameter=1,
    )
    report = run_study(config)
    assert len(report.records) == 18
    for rec in report.records:
        if rec.method == "morozov":
            assert rec.status == "search_failure"
            assert rec.model_dim == 0
            assert rec.l2_error == pytest.approx(100.0)
        else:
            assert rec.status in ("success", "l2_failure")
    for (_, method, _), stats in report.method_stats.items():
        assert stats.search_failures == (2 if method == "morozov" else 0)
        assert stats.no_model_failures == 0
