import numpy as np
import pytest

import dataclasses
from collections import Counter

from aeroinv import model_selection, two_component
from aeroinv.discretization import (
    assemble_kernel_matrix,
    uniform_grid,
    weighted_interior_basis,
)
from aeroinv.errors import MaxIterations
from aeroinv.model_selection import DEFAULT_LADDER, NoiseScaling, invert_morozov
from aeroinv.optics import (
    get_material,
    interpolate_index,
    kernel_value,
    lorentz_lorenz_mix,
    make_kernel,
)
from aeroinv.simulation_study import (
    KernelLevelCache,
    kernel_rows,
    simulate_measurement,
)
from aeroinv.two_component import (
    FALLBACK_TAU_GRID,
    KernelFamily,
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


class TestAnchorValidation:
    @pytest.mark.parametrize(
        "anchor_count, n_frac", [(1, 3), (0, 1), (-2, 5), (6, 5), (2, 3)]
    )
    def test_bad_anchors_fail_before_any_mie_work(
        self, materials, monkeypatch, anchor_count, n_frac
    ):
        def no_mie(*args, **kwargs):
            raise AssertionError("Mie rows built")

        monkeypatch.setattr(two_component, "mixed_kernel_rows", no_mie)
        with pytest.raises(ValueError):
            build_kernel_family(
                *materials, WAVELENGTHS, IGRID,
                anchor_count=anchor_count, n_frac=n_frac,
            )


class TestOneFractionFamily:
    """A single material is a one-fraction family and a ladder builder."""

    @pytest.fixture(scope="class")
    def study_geometry(self, materials):
        from aeroinv.simulation_study import integration_grid, study_wavelengths

        water, _, air = materials
        wl, igrid = study_wavelengths(), integration_grid()
        family = build_kernel_family(
            water, water, air, wl, igrid, anchor_count=1, n_frac=1
        )
        rows = make_kernel(water, air).rows(wl, igrid.points)
        return wl, igrid, family, rows

    def test_levels_equal_rows_times_basis(self, study_geometry):
        wl, igrid, family, rows = study_geometry
        assert family.n_fractions == 1
        for n_col in DEFAULT_LADDER:
            km = family(n_col)
            expect = rows @ weighted_interior_basis(igrid, km.collocation_grid)
            assert np.array_equal(km.entries, expect)
            assert km.fraction_label is None
            assert family(n_col) is km

    def test_level_cache_is_a_family(self, study_geometry):
        wl, igrid, family, rows = study_geometry
        cache = KernelLevelCache(rows, wl, igrid)
        assert isinstance(cache, KernelFamily)
        for n_col in (3, 12, 50):
            assert np.array_equal(cache(n_col).entries, family(n_col).entries)
            assert cache(n_col).fraction_label is None

    def test_families_compare_and_hash_by_identity(self, study_geometry):
        wl, igrid, _, rows = study_geometry
        a, b = KernelLevelCache(rows, wl, igrid), KernelLevelCache(rows, wl, igrid)
        assert (a == b) is False
        assert len({a, b}) == 2
        assert a == a

    def test_a_measurement_at_other_wavelengths_is_refused(self, study_geometry):
        import re

        from aeroinv.model_selection import Measurement, invert_constrained
        from aeroinv.simulation_study import forward_extinctions, parameter_grid

        wl, igrid, family, rows = study_geometry
        dist = parameter_grid("log_normal")[44]
        e_true = forward_extinctions(dist, None, wl, grid=igrid, rows=rows)
        meas = simulate_measurement(wl, e_true, 0.30, 300, rng=3)
        data = (meas.mean_extinction, meas.variance)
        shifted = Measurement(1.1 * wl, *data, meas.repeats)
        first, own = float(1.1 * wl[0]), float(wl[0])
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"48 wavelengths and the kernel family 48; they first differ at "
                f"index 0: {first!r} um measured against {own!r} um"
            ),
        ):
            invert_constrained(shifted, family)
        short = Measurement(wl[:47], *(a[:47] for a in data), meas.repeats)
        with pytest.raises(
            ValueError,
            match=re.escape(
                f"47 wavelengths and the kernel family 48; they first differ at "
                f"index 47: none measured against {float(wl[47])!r} um"
            ),
        ):
            invert_constrained(short, family)
        # the family's own wavelengths still invert after the refusals
        assert invert_morozov(meas, family)[0].fraction is None

    def test_single_component_candidates_carry_no_fraction(self, materials):
        water, _, air = materials
        family = build_kernel_family(
            water, water, air, WAVELENGTHS, IGRID, anchor_count=1, n_frac=1
        )
        fine = uniform_grid(0.01, 7.0, 2001)
        rows = make_kernel(water, air).rows(WAVELENGTHS, fine.points)
        from aeroinv.simulation_study import SizeDistribution, forward_extinctions

        dist = SizeDistribution("log_normal", 1e4, (0.3, 1.8))
        e_true = forward_extinctions(dist, None, WAVELENGTHS, grid=fine, rows=rows)
        meas = simulate_measurement(WAVELENGTHS, e_true, 0.05, 300, rng=8)
        (top,) = invert_morozov(meas, family)
        assert top.fraction is None


class TestWindowSelection:
    def test_unique_minimum_plateau(self):
        res = np.full(201, 5.0)
        res[98:105] = 1.0
        i0 = minimal_mean_window(res)
        assert 98 <= i0 <= 100

    def test_constant_residuals_first_window(self):
        assert minimal_mean_window(np.ones(50)) == 0

    def test_window_optimality_exhaustive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            res = rng.uniform(0.5, 3.0, 60)
            i0 = minimal_mean_window(res)
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
        i0 = minimal_mean_window(scan.residuals)
        assert scan.selected == (i0, i0 + 2, i0 + 4)

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
        i0 = minimal_mean_window(scan.residuals)
        assert scan.selected == (i0, i0 + 2, i0 + 4)


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

    def test_fallback_pass_reuses_each_level_scan(
        self, family, materials, monkeypatch
    ):
        # a primary grid no level admits forces the fallback pass, which must
        # not scan any level again and must give the fallback grid's models
        meas = self.make_measurement(family, materials, 0.675, 0.05, seed=2)
        expect = generate_models_two_component(
            family, meas, tau_grid=FALLBACK_TAU_GRID
        )
        scanned = Counter()
        scan = two_component.scan_fractions

        def counting_scan(fam, m, n_col):
            scanned[n_col] += 1
            return scan(fam, m, n_col)

        monkeypatch.setattr(two_component, "scan_fractions", counting_scan)
        # a twin measurement gets fresh level states, with no scan kept yet
        twin = model_selection.Measurement(
            meas.wavelengths, meas.mean_extinction, meas.variance, meas.repeats
        )
        got = generate_models_two_component(family, twin, tau_grid=(1e-12,))
        assert len(scanned) > 1
        assert set(scanned.values()) == {1}
        assert len(got) == len(expect) > 0
        for g, e in zip(got, expect):
            assert np.array_equal(g.weights, e.weights)
            assert (g.gamma, g.tau, g.fraction, g.dim) == (
                e.gamma, e.tau, e.fraction, e.dim
            )

    def test_fallback_pass_reuses_the_primary_curves(
        self, family, materials, monkeypatch
    ):
        """On a one-level ladder whose primary-pass searches all run and are
        then rejected, the fallback tau grid searches the same fractions of
        the same level again: it builds no ridge curve a second time, and
        each curve roots the fallback's targets in one more call."""
        import aeroinv.tikhonov_qp as qp
        from aeroinv.errors import BracketFailure
        from aeroinv.model_selection import Measurement

        meas = self.make_measurement(family, materials, 0.675, 0.05, seed=2)
        (n_col,) = {
            len(c.kernel.collocation_grid)
            for c in generate_models_two_component(family, meas)
        }
        # a twin measurement gets fresh level fits, with nothing built yet
        meas = Measurement(
            meas.wavelengths, meas.mean_extinction, meas.variance, meas.repeats
        )
        primary_limit = 2.25 * meas.n_wavelengths * meas.scaling.delta_sq
        inner = model_selection.solve_discrepancy
        searches = Counter()

        def primary_rejected(K, r, reg, target_sq, *args, **kwargs):
            out = inner(K, r, reg, target_sq, *args, **kwargs)
            if target_sq < primary_limit:
                searches["primary"] += 1
                raise BracketFailure("stand-in: primary-pass search rejected")
            searches["fallback"] += 1
            return out

        built, rooted = Counter(), Counter()
        init, roots = qp.RidgeCurve.__init__, qp.RidgeCurve.roots

        def counting_init(self, K, r, reg):
            init(self, K, r, reg)
            self.key = (K.shape, K.tobytes(), r.tobytes(), reg.matrix.tobytes())
            built[self.key] += 1

        def counting_roots(self, targets):
            rooted[self.key] += 1
            return roots(self, targets)

        monkeypatch.setattr(model_selection, "solve_discrepancy", primary_rejected)
        monkeypatch.setattr(model_selection, "DEFAULT_LADDER", (n_col,))
        monkeypatch.setattr(qp.RidgeCurve, "__init__", counting_init)
        monkeypatch.setattr(qp.RidgeCurve, "roots", counting_roots)
        got = generate_models_two_component(family, meas)
        assert got and {c.tau for c in got} <= set(FALLBACK_TAU_GRID)
        assert searches["primary"] and searches["fallback"]
        assert set(built.values()) == {1}
        assert 2 in rooted.values() and max(rooted.values()) == 2

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


class TestScanPrecheck:
    """Generation with the scan pre-check equals generation that scans every
    level it visits."""

    @staticmethod
    def scanning_every_level(family, meas, monkeypatch):
        """Generation on a twin of ``meas``, so on fresh level states, with
        neither the walk's bound nor the pre-check settling any level."""
        twin = model_selection.Measurement(
            meas.wavelengths, meas.mean_extinction, meas.variance, meas.repeats
        )
        with monkeypatch.context() as patch:
            patch.setattr(
                model_selection, "_least_squares_bounds",
                lambda stacked, w, r: np.zeros(len(stacked)),
            )
            patch.setattr(two_component, "_may_admit", lambda *a: True)
            return generate_models_two_component(family, twin)

    @staticmethod
    def measurement(materials, family_name, params, p_true, seed):
        from aeroinv.simulation_study import SizeDistribution, forward_extinctions

        fine = uniform_grid(0.01, 7.0, 2001)
        rows = kernel_rows(mixed_kernel(materials, p_true), WAVELENGTHS, fine)
        dist = SizeDistribution(family_name, 1e4, params)
        e_true = forward_extinctions(dist, None, WAVELENGTHS, grid=fine, rows=rows)
        return simulate_measurement(WAVELENGTHS, e_true, 0.05, 300, rng=seed)

    def test_records_equal_a_walk_that_scans_every_level(
        self, family, materials, monkeypatch
    ):
        cases = [("log_normal", (0.3, 1.8), p, 0) for p in (0.0, 0.33, 0.67, 1.0)]
        cases.append(("hedrih", (1.3,), 0.0, 0))  # its walk needs the fallback
        precheck = two_component._may_admit
        calls = []

        def recording(level, limit):
            may = precheck(level, limit)
            calls.append((limit, may, bool(np.any(level.bounds < limit))))
            return may

        settled_by_nnls = fallback_walks = 0
        for case in cases:
            meas = self.measurement(materials, *case)
            calls.clear()
            monkeypatch.setattr(two_component, "_may_admit", recording)
            got = generate_models_two_component(family, meas)
            monkeypatch.undo()
            settled_by_nnls += sum(low and not may for _, may, low in calls)
            fallback_walks += len({limit for limit, _, _ in calls}) > 1
            self.assert_same(
                got, self.scanning_every_level(family, meas, monkeypatch)
            )
        # some level was settled by its subset NNLS, not by its bounds alone,
        # and one walk reached the fallback pass
        assert settled_by_nnls > 0
        assert fallback_walks == 1

    @pytest.mark.parametrize(
        "error",
        [MaxIterations("stand-in"), np.linalg.LinAlgError("stand-in")],
        ids=["MaxIterations", "LinAlgError"],
    )
    def test_a_precheck_solve_that_raises_leaves_the_level_to_the_scan(
        self, family, materials, monkeypatch, error
    ):
        meas = self.measurement(materials, "log_normal", (0.3, 1.8), 0.67, 0)
        raised = []

        def cold_solve_fails(*args):
            # the pre-check's cold solve is the level's admission NNLS
            raised.append(args)
            raise error

        monkeypatch.setattr(model_selection, "solve_nnls", cold_solve_fails)
        got = generate_models_two_component(family, meas)
        assert raised
        monkeypatch.undo()
        self.assert_same(got, self.scanning_every_level(family, meas, monkeypatch))

    def test_any_other_precheck_error_propagates(
        self, family, materials, monkeypatch
    ):
        meas = self.measurement(materials, "log_normal", (0.3, 1.8), 0.67, 0)

        def cold_solve_fails(*args):  # the pre-check's admission NNLS
            raise ValueError("stand-in")

        monkeypatch.setattr(model_selection, "solve_nnls", cold_solve_fails)
        with pytest.raises(ValueError, match="stand-in"):
            generate_models_two_component(family, meas)

    @staticmethod
    def assert_same(got, expect):
        assert len(got) == len(expect) > 0
        for g, e in zip(got, expect):
            for f in dataclasses.fields(g):
                a, b = getattr(g, f.name), getattr(e, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b)
                else:  # the family and regularizer caches share objects
                    assert a is b or a == b, f.name


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
