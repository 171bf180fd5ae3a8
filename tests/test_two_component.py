import numpy as np
import pytest

from aeroinv.discretization import assemble_kernel_matrix, uniform_grid
from aeroinv.model_selection import NoiseScaling
from aeroinv.optics import (
    get_material,
    interpolate_index,
    kernel_value,
    lorentz_lorenz_mix,
)
from aeroinv.simulation_study import kernel_rows, simulate_measurement
from aeroinv.two_component import (
    build_kernel_family,
    generate_models_two_component,
    minimal_mean_window,
    scan_fractions,
    select_models_two_component,
)

# reduced geometry keeps the Mie cost of these tests small
WAVELENGTHS = np.concatenate(
    [np.linspace(0.6, 0.8, 4), np.linspace(1.6, 1.8, 4), np.linspace(3.1, 3.3, 4)]
)
IGRID = uniform_grid(0.01, 7.0, 80)


@pytest.fixture(scope="module")
def materials():
    return get_material("h2o"), get_material("csi"), get_material("air")


@pytest.fixture(scope="module")
def family(materials):
    a, b, med = materials
    return build_kernel_family(
        a, b, med, WAVELENGTHS, IGRID, anchor_count=21, n_frac=41
    )


def mixed_kernel(materials, p):
    a, b, med = materials

    def kernel(r, l):
        m = lorentz_lorenz_mix(
            interpolate_index(a, l), interpolate_index(b, l), p
        )
        return kernel_value(interpolate_index(med, l), m, r, l)

    return kernel


class TestKernelFamily:
    def test_endpoints_match_single_material_assembly(self, family, materials):
        grid, stacked = family.level_matrices(6)
        for idx, p in ((0, 0.0), (family.n_fractions - 1, 1.0)):
            direct = assemble_kernel_matrix(
                mixed_kernel(materials, p), WAVELENGTHS, IGRID, grid
            )
            assert stacked[idx] == pytest.approx(direct.entries, rel=1e-10)

    def test_anchor_rows_match_pointwise_kernel(self, family, materials):
        a, b, med = materials
        for ai, p in enumerate(family.anchor_fractions):
            for wi, l in enumerate(WAVELENGTHS):
                m = lorentz_lorenz_mix(
                    interpolate_index(a, l), interpolate_index(b, l), float(p)
                )
                direct = kernel_value(interpolate_index(med, l), m, IGRID.points, l)
                row = family._anchor_rows[ai, wi]
                assert np.max(np.abs(row - direct)) <= 1e-10 * np.max(direct)

    def test_identical_materials_constant_in_p(self, materials):
        a, _, med = materials
        fam = build_kernel_family(
            a, a, med, WAVELENGTHS, IGRID, anchor_count=5, n_frac=11
        )
        _, stacked = fam.level_matrices(5)
        for i in range(1, fam.n_fractions):
            assert stacked[i] == pytest.approx(stacked[0], rel=1e-9)

    def test_interpolated_entry_close_to_direct_assembly(self, materials):
        # production anchor density (101 anchors, 201 fractions): spline at a
        # non-anchor fraction against a direct Mie assembly.  The interference
        # ripple advances a sizable phase per anchor step at the largest size
        # parameters, which caps the 0.01-spaced spline at ~1% accuracy.
        a, b, med = materials
        fam = build_kernel_family(
            a, b, med, WAVELENGTHS, IGRID, anchor_count=101, n_frac=201
        )
        grid, stacked = fam.level_matrices(6)
        idx = 101  # p = 0.505, between anchors
        p = float(fam.fractions[idx])
        direct = assemble_kernel_matrix(
            mixed_kernel(materials, p), WAVELENGTHS, IGRID, grid
        )
        scale = np.abs(direct.entries).max()
        assert np.abs(stacked[idx] - direct.entries).max() <= 1e-2 * scale

    def test_continuity_under_grid_refinement(self, materials):
        a, b, med = materials
        jumps = []
        for n_frac in (21, 41):
            fam = build_kernel_family(
                a, b, med, WAVELENGTHS, IGRID, anchor_count=11, n_frac=n_frac
            )
            _, stacked = fam.level_matrices(5)
            jumps.append(np.max(np.abs(np.diff(stacked, axis=0))))
        assert jumps[1] <= 0.6 * jumps[0]


class TestWindowSelection:
    def test_unique_minimum_plateau(self):
        res = np.full(201, 5.0)
        res[98:105] = 1.0
        i0 = minimal_mean_window(res, 5)
        assert 98 <= i0 <= 100

    def test_constant_residuals_first_window(self):
        assert minimal_mean_window(np.ones(50), 5) == 0

    def test_window_optimality_exhaustive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            res = rng.uniform(0.5, 3.0, 60)
            i0 = minimal_mean_window(res, 5)
            best = np.mean(res[i0 : i0 + 5])
            for j in range(len(res) - 4):
                assert best <= np.mean(res[j : j + 5]) + 1e-12


class TestScanFractions:
    def test_noise_free_truth_recovers_fraction(self, family, materials):
        # forward data at an on-grid fraction; the scan window must land
        # within two grid steps of it
        p_true = 0.675  # = 27/40 on the reduced fraction grid
        fine = uniform_grid(0.01, 7.0, 2001)
        rows = kernel_rows(mixed_kernel(materials, p_true), WAVELENGTHS, fine)
        from aeroinv.simulation_study import SizeDistribution, forward_extinctions

        dist = SizeDistribution("log_normal", 1e4, (0.3, 1.8))
        e_true = forward_extinctions(dist, None, WAVELENGTHS, grid=fine, rows=rows)
        meas = simulate_measurement(WAVELENGTHS, e_true, 0.0, 5, rng=0)
        scan = scan_fractions(family, meas, n_col=8)
        argmin = int(np.argmin(scan.residuals))
        step = 1.0 / (family.n_fractions - 1)
        assert abs(family.fractions[argmin] - p_true) <= 2 * step + 1e-12
        assert set(scan.selected) <= set(scan.best_window)

    def test_scan_structure(self, family, materials):
        rows = kernel_rows(
            mixed_kernel(materials, 0.4), WAVELENGTHS, uniform_grid(0.01, 7.0, 2001)
        )
        from aeroinv.simulation_study import SizeDistribution, forward_extinctions

        dist = SizeDistribution("hedrih", 1e4, (1.3,))
        e_true = forward_extinctions(
            dist, None, WAVELENGTHS, grid=uniform_grid(0.01, 7.0, 2001), rows=rows
        )
        meas = simulate_measurement(WAVELENGTHS, e_true, 0.05, 100, rng=1)
        scan = scan_fractions(family, meas, n_col=6)
        assert scan.residuals.shape == (family.n_fractions,)
        assert scan.window_size == 5
        assert len(scan.best_window) == 5
        assert scan.selected == tuple(scan.best_window[[0, 2, 4]])


class TestGenerateAndSelect:
    def make_measurement(self, family, materials, p_true, noise, seed):
        fine = uniform_grid(0.01, 7.0, 2001)
        rows = kernel_rows(mixed_kernel(materials, p_true), WAVELENGTHS, fine)
        from aeroinv.simulation_study import SizeDistribution, forward_extinctions

        dist = SizeDistribution("log_normal", 1e4, (0.3, 1.8))
        e_true = forward_extinctions(dist, None, WAVELENGTHS, grid=fine, rows=rows)
        return simulate_measurement(WAVELENGTHS, e_true, noise, 300, rng=seed)

    def test_candidate_count_and_residual_certificates(self, family, materials):
        meas = self.make_measurement(family, materials, 0.675, 0.05, seed=2)
        tau_grid = tuple(np.round(np.arange(0.5, 2.01, 0.1), 10))
        cands = generate_models_two_component(family, meas, tau_grid=tau_grid)
        assert 0 < len(cands) <= 3 * len(tau_grid)
        scaling = NoiseScaling.from_measurement(meas)
        n_l = meas.n_wavelengths
        for c in cands:
            assert c.residual_sq == pytest.approx(
                c.tau * n_l * scaling.delta_sq, rel=2e-6
            )
            assert c.fraction is not None

    def test_candidate_fractions_lie_in_scan_window(self, family, materials):
        meas = self.make_measurement(family, materials, 0.675, 0.02, seed=3)
        cands = generate_models_two_component(family, meas)
        dims = {c.dim for c in cands}
        assert len(dims) == 1  # single discretization level
        n_col = len(cands[0].kernel.collocation_grid)
        scan = scan_fractions(family, meas, n_col=n_col)
        allowed = {float(family.fractions[i]) for i in scan.selected}
        assert {float(c.fraction) for c in cands} <= allowed

    def test_single_and_duplicate_triplets(self, family, materials):
        meas = self.make_measurement(family, materials, 0.675, 0.05, seed=4)
        cands = generate_models_two_component(family, meas)
        ranked = select_models_two_component(
            cands[:1], meas, samples=2000, seed=0
        )
        assert ranked[0].posterior == pytest.approx(1.0)
        dup = [cands[0], cands[0]]
        ranked = select_models_two_component(dup, meas, samples=2000, seed=0)
        assert [c.posterior for c in ranked] == pytest.approx([0.5, 0.5])

    def test_posteriors_sum_to_one(self, family, materials):
        meas = self.make_measurement(family, materials, 0.3, 0.05, seed=5)
        cands = generate_models_two_component(family, meas)
        ranked = select_models_two_component(cands, meas, samples=5000, seed=1)
        assert sum(c.posterior for c in ranked) == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def production_family(materials):
    from aeroinv.simulation_study import integration_grid, study_wavelengths

    a, b, med = materials
    return build_kernel_family(
        a, b, med, study_wavelengths(), integration_grid()
    )


@pytest.mark.slow
class TestNoiseLimitConsistency:
    def test_scan_minimizer_converges_to_true_fraction(
        self, materials, production_family
    ):
        # the unregularized-residual minimizer over the fraction grid at a
        # fixed discretization level approaches the true fraction as the
        # noise is halved: median |p - t| strictly decreasing
        from aeroinv.simulation_study import (
            SizeDistribution,
            fine_grid,
            forward_extinctions,
            study_wavelengths,
        )

        wl = study_wavelengths()
        fgrid = fine_grid()
        p_true = 0.67
        rows = kernel_rows(mixed_kernel(materials, p_true), wl, fgrid)
        dist = SizeDistribution("log_normal", 1e4, (0.3, 1.8))
        e_true = forward_extinctions(dist, None, wl, grid=fgrid, rows=rows)
        medians = []
        for noise in (0.20, 0.10, 0.05):
            devs = []
            for seed in range(21):
                # single-draw data: the noise level applies to the inverted
                # vector itself, as in the limit statement
                meas = simulate_measurement(
                    wl, e_true, noise, repeats=1, rng=7000 + seed
                )
                scan = scan_fractions(production_family, meas, n_col=12)
                p_hat = production_family.fractions[int(np.argmin(scan.residuals))]
                devs.append(abs(p_hat - p_true))
            medians.append(float(np.median(devs)))
        assert medians[0] > medians[1] > medians[2]


@pytest.mark.slow
class TestEndpointRetrievalPilot:
    def test_endpoint_fraction_deviations(self, materials, production_family):
        # 50-draw pilot at 5% noise on pure-water and pure-CsI data.  The
        # retrieval carries a systematic inward bias at the CsI endpoint of
        # order ten points (the reference comparison shows the same: its
        # 0%-water average deviations sit at 5-11 points), so the pilot
        # bounds the endpoint averages rather than a tight quantile.
        from aeroinv.simulation_study import (
            SizeDistribution,
            forward_extinctions,
            study_wavelengths,
        )

        wl = study_wavelengths()
        fine = uniform_grid(0.01, 7.0, 10001)
        dist = SizeDistribution("log_normal", 1e4, (0.3, 1.8))
        devs = {}
        for p_true in (0.0, 1.0):
            rows = kernel_rows(mixed_kernel(materials, p_true), wl, fine)
            e_true = forward_extinctions(dist, None, wl, grid=fine, rows=rows)
            out = []
            for seed in range(25):
                meas = simulate_measurement(wl, e_true, 0.05, 300, rng=1000 + seed)
                cands = generate_models_two_component(production_family, meas)
                ranked = select_models_two_component(
                    cands, meas, samples=20000, seed=seed
                )
                out.append(abs(ranked[0].fraction - p_true))
            devs[p_true] = np.array(out)
        # water endpoint: sharp retrieval, nearly every draw inside 11 points
        assert devs[1.0].mean() <= 0.05
        assert np.mean(devs[1.0] <= 0.11) >= 0.9
        # CsI endpoint: biased like the reference tables, never catastrophic
        assert devs[0.0].mean() <= 0.18
        assert np.all(devs[0.0] < 0.50)
