import concurrent.futures
import csv
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from aeroinv import optics
from aeroinv.discretization import kernel_rows
from aeroinv.errors import NonConvergent, OutOfBand, OutOfRange
from aeroinv.optics import (
    IndexTable,
    MieKernel,
    get_material,
    interpolate_index,
    kernel_value,
    load_index_table,
    lorentz_lorenz_mix,
    make_kernel,
    mixed_kernel_rows,
)
from aeroinv.simulation_study import fine_grid, integration_grid, study_wavelengths

try:
    from importlib import resources

    _H2O_PATH = resources.files("aeroinv.data").joinpath("h2o.csv")
except Exception:  # pragma: no cover
    _H2O_PATH = None


def mie_qext(m_med, m_part, r, l):
    """Extinction efficiency Q_ext of spheres of radius r (um) at wavelength
    l: one column of the package's Mie routine."""
    r_arr = np.asarray(r, dtype=float)
    q = optics._extinction([m_med], [[m_part]], r_arr.ravel(), [l])[0, 0]
    return q.reshape(r_arr.shape)


def simple_table():
    return IndexTable(
        np.array([1.0, 2.0, 3.0]),
        np.array([1.30 + 0.0j, 1.34 + 0.0j, 1.40 + 0.01j]),
        "toy",
    )


class TestInterpolation:
    def test_value_at_node(self):
        t = simple_table()
        assert interpolate_index(t, 2.0) == 1.34 + 0.0j

    def test_linear_midpoint(self):
        t = simple_table()
        assert interpolate_index(t, 1.5) == pytest.approx(1.32 + 0.0j)

    def test_water_table_against_file_reread(self):
        # independent oracle: read the shipped file directly and interpolate
        # by hand at 1.2 um
        table = get_material("h2o")
        rows = []
        with open(str(_H2O_PATH)) as fh:
            for row in csv.reader(fh):
                try:
                    rows.append((float(row[0]), float(row[1]), float(row[2])))
                except ValueError:
                    continue
        query = 1.2
        below = max(r for r in rows if r[0] <= query)
        above = min(r for r in rows if r[0] >= query)
        if above[0] == below[0]:
            expect = complex(below[1], below[2])
        else:
            t = (query - below[0]) / (above[0] - below[0])
            expect = complex(
                below[1] + t * (above[1] - below[1]),
                below[2] + t * (above[2] - below[2]),
            )
        got = interpolate_index(table, query)
        assert got == pytest.approx(expect, abs=1e-15)

    def test_out_of_band(self):
        with pytest.raises(OutOfBand):
            interpolate_index(simple_table(), 0.5)
        with pytest.raises(OutOfBand):
            interpolate_index(simple_table(), 3.5)


class TestLorentzLorenzMix:
    def test_pure_components(self):
        m1, m2 = 1.33 + 0.0j, 1.75 + 0.01j
        assert lorentz_lorenz_mix(m1, m2, 1.0) == m1
        assert lorentz_lorenz_mix(m1, m2, 0.0) == m2

    def test_identical_components(self):
        m = 1.4 + 0.02j
        for f in (0.0, 0.3, 0.77, 1.0):
            assert lorentz_lorenz_mix(m, m, f) == pytest.approx(m, abs=1e-14)

    def test_against_polynomial_root_oracle(self):
        m1, m2, f1 = 1.33 + 0.0j, 1.75 + 0.01j, 0.5
        lhs = f1 * (m1**2 - 1) / (m1**2 + 2) + (1 - f1) * (m2**2 - 1) / (m2**2 + 2)
        # linear-in-m^2 relation solved independently via numpy roots
        msq_roots = np.roots([1.0 - lhs, -(1.0 + 2.0 * lhs)])
        candidates = []
        for z in msq_roots:
            for w in (np.sqrt(z), -np.sqrt(z)):
                if w.real > 0 and w.imag >= -1e-15:
                    candidates.append(w)
        got = lorentz_lorenz_mix(m1, m2, f1)
        assert any(abs(got - w) < 1e-12 for w in candidates)

    def test_residual_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m1 = complex(rng.uniform(1.05, 2.2), rng.uniform(0.0, 0.3))
            m2 = complex(rng.uniform(1.05, 2.2), rng.uniform(0.0, 0.3))
            f1 = rng.uniform(0, 1)
            m = lorentz_lorenz_mix(m1, m2, f1)
            lhs = (m**2 - 1) / (m**2 + 2)
            rhs = f1 * (m1**2 - 1) / (m1**2 + 2) + (1 - f1) * (m2**2 - 1) / (m2**2 + 2)
            assert abs(lhs - rhs) <= 1e-12

    def test_endpoint_exactness(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m1 = complex(rng.uniform(1.05, 2.0), rng.uniform(0, 0.2))
            m2 = complex(rng.uniform(1.05, 2.0), rng.uniform(0, 0.2))
            assert abs(lorentz_lorenz_mix(m1, m2, 1.0) - m1) <= 1e-14
            assert abs(lorentz_lorenz_mix(m1, m2, 0.0) - m2) <= 1e-14

    def test_overflowing_index_raises_degenerate_mix(self):
        """An index whose square overflows is a typed error, from the scalar
        mix and from the rows of a table holding it (which mix each index
        with the scalar), not an OverflowError."""
        from aeroinv.errors import DegenerateMix

        with pytest.raises(DegenerateMix, match="overflows"):
            lorentz_lorenz_mix(1e200 + 0j, 1.33, 0.5)
        with pytest.raises(DegenerateMix, match="overflows"):
            lorentz_lorenz_mix(1.33, 1e200 + 0j, 0.5)
        water, air = get_material("h2o"), get_material("air")
        huge = IndexTable(np.array([0.3, 4.0]), np.array([1e200 + 0j, 1e200 + 0j]))
        with pytest.raises(DegenerateMix, match="overflows"):
            mixed_kernel_rows(huge, water, air, 0.5, [1.0], [0.5])
        # the pure components need no mix
        assert lorentz_lorenz_mix(1e200 + 0j, 1.33, 1.0) == 1e200 + 0j


def reference_qext(m, x):
    """Per-order Mie sum for one size parameter: a_n and b_n by complex
    division, D_n from a downward recurrence started 300 orders above
    max(n_stop, |m x|)."""
    n_stop = int(np.ceil(x + 4.0 * np.cbrt(x) + 2.0))
    d = 0j
    logderiv = {}
    for n in range(max(n_stop, int(np.ceil(abs(m * x)))) + 300, 0, -1):
        d = n / (m * x) - 1.0 / (d + n / (m * x))
        logderiv[n - 1] = d
    psi_prev, psi = np.cos(x), np.sin(x)
    chi_prev, chi = -np.sin(x), np.cos(x)
    total = 0.0
    for n in range(1, n_stop + 1):
        psi_prev, psi = psi, (2 * n - 1) / x * psi - psi_prev
        chi_prev, chi = chi, (2 * n - 1) / x * chi - chi_prev
        xi, xi_prev = psi - 1j * chi, psi_prev - 1j * chi_prev
        ta = logderiv[n] / m + n / x
        tb = logderiv[n] * m + n / x
        a = (ta * psi - psi_prev) / (ta * xi - xi_prev)
        b = (tb * psi - psi_prev) / (tb * xi - xi_prev)
        total += (2 * n + 1) * (a.real + b.real)
    return 2.0 * total / x**2


def wiscombe_bound(re):
    return 13.78 * re**2 - 10.8 * re + 3.9


class TestRecurrenceRegime:
    """D_n runs upward only where Wiscombe's test allows; elsewhere the call
    keeps the downward kernel."""

    @pytest.mark.parametrize(
        "m, x_max", [(0.75, 150.0), (1.5 + 0.5j, 200.0), (2.0 + 2.0j, 200.0)]
    )
    def test_outside_regime_against_per_order_reference(self, m, x_max):
        # an upward pass is off by 2-10% at the largest x of each case
        x = np.linspace(x_max / 8, x_max, 8)
        assert not optics._upward_regime(np.array([[m]]), x[None])
        got = mie_qext(1.0, m, x / (2 * np.pi), 1.0)
        expect = np.array([reference_qext(m, xi) for xi in x])
        assert got == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize(
        "re, share",
        # not 1.0005 + 0j: there Q_ext ~ (m - 1)^2 cancels, and the downward
        # kernel and the reference disagree by 1e-9 as well
        [(re, share) for re in (1.0005, 1.01, 1.1, 1.33, 1.79, 2.5, 4.0, 8.0)
         for share in (0.0, 0.3, 0.99) if (re, share) != (1.0005, 0.0)],
    )
    def test_inside_regime_against_per_order_reference(self, re, share):
        # Im(m) x at the given share of the bound, one size parameter a call
        x = np.geomspace(0.05, 300.0, 25)
        got, expect = [], []
        for xi in x:
            m = complex(re, share * wiscombe_bound(re) / xi)
            assert optics._upward_regime(np.array([[m]]), np.array([[xi]]))
            got.append(mie_qext(1.0, m, xi / (2 * np.pi), 1.0))
            expect.append(reference_qext(m, xi))
        assert np.array(got) == pytest.approx(np.array(expect), rel=1e-10)

    def test_predicate_takes_every_index_at_its_largest_x(self):
        x = np.array([[1.0, 10.0], [1.0, 30.0]])  # (wavelengths, radii)
        im = 0.99 * wiscombe_bound(1.5)
        assert optics._upward_regime(np.array([[1.5, 1.5 + 1j * im / 30]]), x)
        # inside at the first wavelength's x, outside at its own
        assert not optics._upward_regime(np.array([[1.5, 1.5 + 1j * im / 10]]), x)
        assert not optics._upward_regime(np.array([[1.5, 0.999]]), x)
        assert not optics._upward_regime(np.array([[1.5, 1.5], [1.5, 0.999]]), x)


class TestMieQext:
    @pytest.mark.parametrize("m", [1.33, 1.33 + 0.01j, 1.79, 1.5 + 0.2j])
    def test_against_per_order_reference(self, m):
        x = np.geomspace(0.05, 90.0, 23)
        got = mie_qext(1.0, m, x / (2 * np.pi), 1.0)
        expect = np.array([reference_qext(m, xi) for xi in x])
        assert got == pytest.approx(expect, rel=1e-10)

    def test_no_optical_contrast(self):
        assert abs(mie_qext(1.0, 1.0, 1.0, 0.6)) < 1e-10
        assert abs(mie_qext(1.33, 1.33, 2.5, 1.1)) < 1e-10

    def test_vanishing_particle(self):
        assert mie_qext(1.0, 1.33, 1e-6, 1.0) < 1e-8

    def test_no_radii_no_values(self):
        assert mie_qext(1.0, 1.33, np.array([]), 1.0).shape == (0,)
        assert kernel_value(1.0, 1.33, np.array([]), 1.0).shape == (0,)

    def test_against_long_series_oracle(self):
        # frozen values from a 50-digit direct per-order summation at 4x the
        # truncation order (mpmath Bessel functions)
        x = 10.0
        r = x / (2 * np.pi)
        assert mie_qext(1.0, 1.33, r, 1.0) == pytest.approx(
            2.206548710185, rel=1e-9
        )
        x = 5.0
        r = x / (2 * np.pi)
        assert mie_qext(1.0, 1.33 + 0.01j, r, 1.0) == pytest.approx(
            3.484147367246, rel=1e-9
        )

    def test_recurrence_starts_above_mx(self):
        # CsI-like index at x = 64, where |m x| = 114.6 lies above the series
        # truncation order 82: a D_n recurrence started at 82 + 15 gave
        # 2.0594.  Frozen value from the same 50-digit mpmath summation.
        x = 64.0
        r = x / (2 * np.pi)
        assert mie_qext(1.0, 1.79, r, 1.0) == pytest.approx(
            2.04857491037882, rel=1e-9
        )

    def test_large_sphere_asymptote(self):
        # extinction paradox: Q_ext -> 2
        assert mie_qext(1.0, 1.33, 300.0, 0.5) == pytest.approx(2.0, abs=0.05)

    def test_nonnegative_over_domain_grid(self):
        radii = np.linspace(0.01, 7.0, 60)
        for l in np.linspace(0.5, 3.4, 12):
            q = mie_qext(1.0003, 1.33 + 0.002j, radii, l)
            assert np.all(q >= 0.0)
            assert np.all(np.isfinite(q))


class TestKernelValue:
    def test_zero_when_no_contrast(self):
        assert kernel_value(1.33, 1.33, 1.0, 0.6) == pytest.approx(0.0, abs=1e-10)

    def test_large_x_geometric_limit(self):
        # Q_ext -> 2, so k -> 2*pi*r^2; doubling r quadruples the kernel
        k1 = kernel_value(1.0, 1.33, 200.0, 0.5)
        k2 = kernel_value(1.0, 1.33, 400.0, 0.5)
        assert k1 == pytest.approx(2 * np.pi * 200.0**2, rel=0.05)
        assert k2 / k1 == pytest.approx(4.0, rel=0.05)

    def test_composition_with_qext(self):
        water = get_material("h2o")
        air = get_material("air")
        m_med = interpolate_index(air, 0.6)
        m_part = interpolate_index(water, 0.6)
        q = mie_qext(m_med, m_part, 1.0, 0.6)
        assert kernel_value(m_med, m_part, 1.0, 0.6) == pytest.approx(np.pi * q)

    def test_continuity_in_fraction(self):
        # kernel varies continuously with the mixing fraction
        water = get_material("h2o")
        csi = get_material("csi")
        air = get_material("air")
        radii = np.array([0.5, 1.5, 3.0])
        diffs = []
        for dp in (0.02, 0.01, 0.005):
            worst = 0.0
            for l in (0.7, 1.2, 2.3, 3.2):
                m_med = interpolate_index(air, l)
                m_lo = lorentz_lorenz_mix(
                    interpolate_index(water, l), interpolate_index(csi, l), 0.4
                )
                m_hi = lorentz_lorenz_mix(
                    interpolate_index(water, l), interpolate_index(csi, l), 0.4 + dp
                )
                k_lo = kernel_value(m_med, m_lo, radii, l)
                k_hi = kernel_value(m_med, m_hi, radii, l)
                worst = max(worst, np.max(np.abs(k_hi - k_lo)))
            diffs.append(worst)
        assert diffs[1] < diffs[0]
        assert diffs[2] < diffs[1]

    @pytest.mark.parametrize(
        "m_med, m_part, r, l",
        [
            (1.0, 1.33, np.nan, 1.0),
            (1.0, 1.33, np.inf, 1.0),
            (1.0, 1.33, 1.0, np.nan),
            (1.0, 1.33, 1.0, np.inf),
            (1.0, complex(np.nan, 0.0), 1.0, 1.0),
            (1.0, complex(1.33, np.inf), 1.0, 1.0),
            (np.nan, 1.33, 1.0, 1.0),
        ],
    )
    def test_non_finite_input_is_rejected(self, m_med, m_part, r, l):
        with pytest.raises(ValueError, match="must be finite"):
            kernel_value(m_med, m_part, r, l)


class TestMixedKernelRows:
    WAVELENGTHS = (0.6, 1.2, 2.3, 3.2)
    FRACTIONS = (0.0, 0.25, 0.6, 1.0)

    @pytest.fixture(scope="class")
    def materials(self):
        return get_material("h2o"), get_material("csi"), get_material("air")

    def test_indices_equal_the_scalar_interpolation(self, materials):
        # one np.interp over all wavelengths gives the scalar calls' bits
        wavelengths = np.concatenate(
            [study_wavelengths(), np.random.default_rng(0).uniform(0.5, 3.4, 500)]
        )
        for table, got in zip(
            materials, optics._interpolate_indices(materials, wavelengths)
        ):
            want = np.array([interpolate_index(table, l) for l in wavelengths])
            assert np.array_equal(got.view(float), want.view(float))

    def test_out_of_band_names_the_first_wavelength_and_material(self, materials):
        # the shipped tables cover 0.5-3.4 um, "wide" 0.1-5 um; the error
        # names the first wavelength out of band and the first table (a, b,
        # medium) that misses it
        water, csi, air = materials
        wide = IndexTable(np.array([0.1, 5.0]), np.array([1.4 + 0j, 1.4 + 0j]), "wide")
        with pytest.raises(OutOfBand, match=r"wavelength 3\.5 um .* for 'h2o'"):
            mixed_kernel_rows(water, csi, air, 0.5, (1.0, 3.5, 0.2), [0.5])
        with pytest.raises(OutOfBand, match=r"wavelength 0\.2 um .* for 'csi'"):
            mixed_kernel_rows(wide, csi, air, 0.5, (1.0, 0.2, 3.5), [0.5])
        with pytest.raises(OutOfBand, match=r"wavelength 4\.0 um .* for 'air'"):
            mixed_kernel_rows(wide, wide, air, 0.5, (1.0, 4.0, 0.05), [0.5])
        with pytest.raises(OutOfBand, match=r"wavelength nan um .* for 'h2o'"):
            mixed_kernel_rows(water, csi, air, 0.5, (1.0, np.nan), [0.5])

    def test_empty_axes_give_empty_rows(self, materials):
        water, csi, air = materials
        rows = mixed_kernel_rows(water, csi, air, 0.5, self.WAVELENGTHS, [])
        assert rows.shape == (1, len(self.WAVELENGTHS), 0)
        rows = mixed_kernel_rows(water, csi, air, [], self.WAVELENGTHS, [0.5])
        assert rows.shape == (0, len(self.WAVELENGTHS), 1)

    @pytest.mark.parametrize("r", [np.nan, np.inf])
    def test_non_finite_radius_is_rejected(self, materials, r):
        water, csi, air = materials
        with pytest.raises(ValueError, match="must be finite"):
            mixed_kernel_rows(water, csi, air, 0.5, self.WAVELENGTHS, [0.5, r])
        with pytest.raises(ValueError, match="must be finite"):
            MieKernel(water, csi, air, 0.5).rows(self.WAVELENGTHS, [r])

    def test_single_fraction_matches_mie_qext(self, materials):
        water, csi, air = materials
        radii = np.linspace(0.01, 7.0, 50)
        rows = mixed_kernel_rows(water, csi, air, 0.3, self.WAVELENGTHS, radii)
        assert rows.shape == (1, len(self.WAVELENGTHS), radii.size)
        for wi, l in enumerate(self.WAVELENGTHS):
            m_part = lorentz_lorenz_mix(
                interpolate_index(water, l), interpolate_index(csi, l), 0.3
            )
            q = mie_qext(interpolate_index(air, l), m_part, radii, l)
            assert rows[0, wi] == pytest.approx(np.pi * radii**2 * q, rel=1e-12)
            assert kernel_value(interpolate_index(air, l), m_part, radii, l) == (
                pytest.approx(rows[0, wi], rel=1e-12)
            )

    def test_unsorted_and_scalar_radii_match_sorted(self, materials):
        radii = np.linspace(0.01, 7.0, 40)
        perm = np.random.default_rng(5).permutation(radii.size)
        rows = mixed_kernel_rows(
            *materials, self.FRACTIONS, self.WAVELENGTHS, radii
        )
        shuffled = mixed_kernel_rows(
            *materials, self.FRACTIONS, self.WAVELENGTHS, radii[perm]
        )
        assert shuffled == pytest.approx(rows[:, :, perm], rel=1e-10, abs=0.0)
        _, csi, air = materials
        l = self.WAVELENGTHS[0]
        m_med, m_part = interpolate_index(air, l), interpolate_index(csi, l)
        sorted_values = kernel_value(m_med, m_part, radii, l)
        for i in (0, 17, radii.size - 1):
            scalar = kernel_value(m_med, m_part, float(radii[i]), l)
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(sorted_values[i], rel=1e-10)

    def test_identical_materials_constant_in_fraction(self, materials):
        water, _, air = materials
        radii = np.linspace(0.01, 7.0, 40)
        rows = mixed_kernel_rows(
            water, water, air, self.FRACTIONS, self.WAVELENGTHS, radii
        )
        for fi in range(1, len(self.FRACTIONS)):
            assert rows[fi] == pytest.approx(rows[0], rel=1e-12)


def row_error(rows, reference):
    """Largest deviation, relative to the maximum of its row."""
    scale = np.abs(reference).max(axis=-1, keepdims=True)
    return float(np.max(np.abs(rows - reference) / scale))


class TestSizeParameterBound:
    """Above ``_X_MAX`` the series would run one Python step per order (about
    35 min and two 0.5 GB order arrays at x = 6.3e7); the call is refused
    before any of it."""

    @staticmethod
    def refused(call):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange, match="size parameter"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return time.perf_counter() - start, peak

    def test_kernel_value_above_the_bound(self):
        seconds, peak = self.refused(lambda: kernel_value(1.0, 1.33, 1e7, 1.0))
        assert seconds < 0.05 and peak < 1e6

    def test_mixed_kernel_rows_above_the_bound(self):
        h2o, csi, air = (get_material(n) for n in ("h2o", "csi", "air"))
        radii = np.array([0.5, 1e7])
        seconds, peak = self.refused(
            lambda: mixed_kernel_rows(h2o, csi, air, (0.0, 0.5, 1.0),
                                      study_wavelengths(), radii)
        )
        assert seconds < 0.05 and peak < 1e6

    def test_just_below_the_bound_runs(self):
        r = 0.999 * optics._X_MAX / (2.0 * np.pi)
        k = kernel_value(1.0, 1.33, np.array([1.0, r]), 1.0)
        assert np.isfinite(k).all()
        assert k[1] == pytest.approx(2.0 * np.pi * r**2, rel=0.01)


class TestSizeSortedPass:
    """Every (wavelength, radius) column in one size-sorted, chunked pass."""

    @pytest.fixture(scope="class")
    def materials(self):
        return get_material("h2o"), get_material("csi"), get_material("air")

    @pytest.fixture(scope="class")
    def family_rows(self, materials):
        anchors = np.linspace(0.0, 1.0, 101)
        return mixed_kernel_rows(
            *materials, anchors, study_wavelengths(), integration_grid().points
        )

    @staticmethod
    def force_late_downward_start(monkeypatch):
        """Make the reference: every call runs the downward kernel, its D_n
        recurrence started 270 orders later than the kernel's own."""
        monkeypatch.setattr(optics, "_upward_regime", lambda m, x: False)
        monkeypatch.setattr(optics, "_LOGDERIV_MARGIN", optics._LOGDERIV_MARGIN + 270)

    def test_family_rows_against_late_recurrence_start(
        self, materials, family_rows, monkeypatch
    ):
        self.force_late_downward_start(monkeypatch)
        reference = mixed_kernel_rows(
            *materials, np.linspace(0.0, 1.0, 101), study_wavelengths(),
            integration_grid().points,
        )
        assert row_error(family_rows, reference) <= 1e-10

    def test_fine_grid_rows_against_late_recurrence_start(
        self, materials, monkeypatch
    ):
        water, _, air = materials
        kernel = make_kernel(water, air)
        wl, grid = study_wavelengths(), fine_grid()
        rows = kernel_rows(kernel, wl, grid)
        self.force_late_downward_start(monkeypatch)
        assert row_error(rows, kernel_rows(kernel, wl, grid)) <= 1e-10

    def test_one_material_rows_run_as_one_chunk(self, materials, monkeypatch):
        calls = []
        chunk_qext = optics._chunk_qext

        def counted(m, xs):
            calls.append(xs.size)
            return chunk_qext(m, xs)

        def refuse(m, xs):
            raise AssertionError("study rows lie in the upward regime")

        monkeypatch.setattr(optics, "_chunk_qext", counted)
        monkeypatch.setattr(optics, "_chunk_qext_downward", refuse)
        water, _, air = materials
        wl, radii = study_wavelengths(), integration_grid().points
        make_kernel(water, air).rows(wl, radii)
        assert calls == [wl.size * radii.size]

    def test_rows_independent_of_chunk_budget(self, materials, monkeypatch):
        # a 64-element budget cuts 12-column chunks, each with its own
        # truncation orders, and runs every wavelength in its own pass
        args = (
            *materials, np.linspace(0.0, 1.0, 5), study_wavelengths(),
            integration_grid().points,
        )
        rows = mixed_kernel_rows(*args)
        monkeypatch.setattr(optics, "_MIE_BUDGET", 64)
        assert row_error(mixed_kernel_rows(*args), rows) <= 1e-10

    def test_shuffled_wavelengths_and_radii_permute_rows(self, materials):
        wl, radii = study_wavelengths(), integration_grid().points
        rng = np.random.default_rng(11)
        wl_perm, r_perm = rng.permutation(wl.size), rng.permutation(radii.size)
        fractions = (0.0, 0.4, 1.0)
        rows = mixed_kernel_rows(*materials, fractions, wl, radii)
        shuffled = mixed_kernel_rows(
            *materials, fractions, wl[wl_perm], radii[r_perm]
        )
        assert row_error(shuffled, rows[:, wl_perm][:, :, r_perm]) <= 1e-12

    def test_closure_loop_equals_batched_rows(self, materials):
        water, csi, air = materials
        kernel = MieKernel(water, csi, air, 0.3)

        def closure(r, l):  # no ``rows``: one call per wavelength
            m_part = lorentz_lorenz_mix(
                interpolate_index(water, l), interpolate_index(csi, l), 0.3
            )
            return kernel_value(interpolate_index(air, l), m_part, r, l)

        wl, grid = study_wavelengths(), integration_grid()
        batched = kernel_rows(kernel, wl, grid)
        assert row_error(kernel_rows(closure, wl, grid), batched) <= 1e-12

    def test_single_material_is_fraction_one_of_itself(self, materials):
        water, _, air = materials
        kernel = make_kernel(water, air)
        assert isinstance(kernel, MieKernel)
        assert kernel.component_a is kernel.component_b is water
        assert kernel.fraction_a == 1.0
        radii = np.linspace(0.01, 7.0, 30)
        for l in (0.6, 2.3):
            expect = kernel_value(
                interpolate_index(air, l), interpolate_index(water, l), radii, l
            )
            assert np.array_equal(kernel.rows([l], radii)[0], expect)

    def test_wide_pass_rows_independent_of_worker_count(
        self, materials, monkeypatch
    ):
        args = (
            *materials, np.linspace(0.0, 1.0, 11), study_wavelengths(),
            integration_grid().points,
        )
        pooled = mixed_kernel_rows(*args)
        monkeypatch.setattr(optics, "_usable_cpus", lambda: 1)
        serial = mixed_kernel_rows(*args)
        assert np.array_equal(serial, pooled)
        # more workers than cores, switching often: a lost or misplaced
        # chunk write would change the rows
        monkeypatch.setattr(optics, "_usable_cpus", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert np.array_equal(mixed_kernel_rows(*args), serial)
        finally:
            sys.setswitchinterval(interval)

    def test_non_finite_chunk_in_worker_raises_and_joins_pool(
        self, materials, monkeypatch
    ):
        chunk_qext = optics._chunk_qext
        main = threading.get_ident()

        def poisoned(m, xs, *terms):
            q = chunk_qext(m, xs, *terms)
            if threading.get_ident() != main:
                q[0, 0] = np.nan
            return q

        monkeypatch.setattr(optics, "_chunk_qext", poisoned)
        monkeypatch.setattr(optics, "_usable_cpus", lambda: 3)
        before = threading.active_count()
        with pytest.raises(NonConvergent):
            mixed_kernel_rows(
                *materials, np.linspace(0.0, 1.0, 11), study_wavelengths(),
                integration_grid().points,
            )
        assert threading.active_count() == before

    def test_first_error_cancels_unstarted_chunks(self, materials, monkeypatch):
        # the 101-anchor family is 89 chunks; once the first one fails, the
        # chunks not yet started never run
        chunk_qext = optics._chunk_qext
        lock, calls = threading.Lock(), []

        def poisoned(m, xs, *terms):
            with lock:
                calls.append(xs.size)
                first = len(calls) == 1
            q = chunk_qext(m, xs, *terms)
            if first:
                q[0, 0] = np.nan
            return q

        monkeypatch.setattr(optics, "_chunk_qext", poisoned)
        monkeypatch.setattr(optics, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        with pytest.raises(NonConvergent):
            mixed_kernel_rows(
                *materials, np.linspace(0.0, 1.0, 101), study_wavelengths(),
                integration_grid().points,
            )
        assert len(calls) < 8
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "group_orders", [0, 10**9], ids=["one_chunk", "whole_pass"]
    )
    def test_family_rows_independent_of_grouping(
        self, materials, family_rows, monkeypatch, group_orders, workers
    ):
        # a group of one chunk streams its terms; one group of every chunk
        # slices them all from one table
        monkeypatch.setattr(optics, "_GROUP_ORDERS", group_orders)
        monkeypatch.setattr(optics, "_usable_cpus", lambda: workers)
        rows = mixed_kernel_rows(
            *materials, np.linspace(0.0, 1.0, 101), study_wavelengths(),
            integration_grid().points,
        )
        assert np.array_equal(rows, family_rows)

    def test_family_pass_peak_memory(self, materials, monkeypatch):
        monkeypatch.setattr(optics, "_usable_cpus", lambda: 1)
        args = (
            *materials, np.linspace(0.0, 1.0, 101), study_wavelengths(),
            integration_grid().points,
        )
        tracemalloc.start()
        try:
            rows = mixed_kernel_rows(*args)
            peak = tracemalloc.get_traced_memory()[1] - rows.nbytes
        finally:
            tracemalloc.stop()
        # 6.5 MB: 4.6 MB of chunk work arrays, as before groups existed, and
        # one group's table of at most 2 MiB; one table for the whole pass
        # would peak at 16.9 MB
        assert peak <= 8e6

    def test_failed_chunk_stops_its_group_and_unstarted_groups(
        self, materials, monkeypatch
    ):
        chunk_qext = optics._chunk_qext
        lock, calls, failed_at = threading.Lock(), [], []

        def poisoned(m, xs, *terms):
            with lock:
                calls.append(threading.get_ident())
                poison = len(calls) == poison_at
            q = chunk_qext(m, xs, *terms)
            if poison:
                q[0, 0] = np.nan
                with lock:
                    failed_at.append(len(calls))
            return q

        monkeypatch.setattr(optics, "_chunk_qext", poisoned)
        args = (
            *materials, np.linspace(0.0, 1.0, 101), study_wavelengths(),
            integration_grid().points,
        )
        # one worker: the first group holds more than two chunks, so the
        # failure of its second chunk ends the pass there
        monkeypatch.setattr(optics, "_usable_cpus", lambda: 1)
        poison_at = 2
        with pytest.raises(NonConvergent):
            mixed_kernel_rows(*args)
        assert len(calls) == 2
        # two workers: the failing thread starts no chunk after its failure;
        # the other thread may begin one before it sees the failure
        monkeypatch.setattr(optics, "_usable_cpus", lambda: 2)
        calls.clear()
        failed_at.clear()
        poison_at = 1
        before = threading.active_count()
        with pytest.raises(NonConvergent):
            mixed_kernel_rows(*args)
        failing, later = calls[0], calls[failed_at[0] :]
        assert failing not in calls[1:]
        assert len(later) <= 1
        assert threading.active_count() == before

    def test_narrow_pass_builds_no_pool(self, materials, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-index pass must not build a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        water, _, air = materials
        rows = make_kernel(water, air).rows(
            study_wavelengths(), integration_grid().points
        )
        assert np.all(np.isfinite(rows))

    def test_fine_grid_rows_peak_memory(self, materials):
        water, _, air = materials
        kernel = make_kernel(water, air)
        wl, grid = study_wavelengths(), fine_grid()
        tracemalloc.start()
        try:
            kernel_rows(kernel, wl, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the per-wavelength pass this replaced peaked at 16.5 MB
        assert peak <= 16.5e6


class TestMaterials:
    def test_known_materials_load(self):
        for name in ("h2o", "water", "CsI", "air"):
            table = get_material(name)
            assert table.wavelengths[0] <= 0.5
            assert table.wavelengths[-1] >= 3.4

    @pytest.mark.parametrize(
        "name",
        ["../data/h2o", "../../aeroinv/data/csi", "../sub/h2o", "data/h2o",
         "data\\h2o", "c:h2o", "..", ".", "", "  ", "twomey_prior",
         "../tables/twomey_prior"],
    )
    def test_only_bare_stems_resolve(self, name, tmp_path, monkeypatch):
        """A name with a path separator, a drive, or a ``.``/``..`` component
        resolves to nothing, in the package data and in the override
        directory, even where the file it points at exists; nor does any
        name reach the package's twomey prior table."""
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "h2o.csv").write_text(
            "wavelength_um,real,imag\n0.4,1.5,0\n4.0,1.5,0\n"
        )
        monkeypatch.setenv("AEROSOL_DATA_DIR", str(tmp_path / "sub"))
        with pytest.raises(FileNotFoundError, match="no refractive-index table"):
            get_material(name)

    def test_malformed_first_row_is_not_a_header(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = ["0.5,abc,0.0", "1.0,1.33,0.0", "2.0,1.33,0.0"]
        for lines in (rows, ["wavelength_um,real,imag", *rows]):
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ValueError, match="0.5"):
                load_index_table(path)
        path.write_text("\n".join(["# water", "wl,n,k", *rows[1:]]) + "\n")
        assert load_index_table(path).wavelengths.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "name, digest",
        [("h2o", "798329047561481b742b29d248933f902bcd5a07baf90e1e96506bb3ef436f17"),
         ("csi", "da5f9deb602f7e85a2a866ed3a1725249b2029bf96f8511ea1a9b928e5062f44"),
         ("air", "9807d04e6bf2f7860c2a62b34daa68f24a75130fe841d88fe72aa4269788da11")],
    )
    def test_shipped_tables_read_bit_for_bit(self, name, digest):
        """The shipped tables read back to the same float64 and complex128
        bits as the reader they were frozen with."""
        import hashlib

        table = get_material(name)
        raw = table.wavelengths.tobytes() + table.indices.tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest

    @pytest.mark.parametrize(
        "rows, column",
        [([",1.40,0.0", "1.0,1.33,0.0", "2.0,1.33,0.0"], "wavelength_um"),
         (["1.0,1.33,0.0", " ,1.40,0.0", "2.0,1.33,0.0"], "wavelength_um"),
         (["1.0,1.33,0.0", "2.0,1.33"], "imag"),
         (["1.0,1.33,0.0", "2.0,,0.0"], "real")],
        ids=["blank_first_cell_leading", "blank_first_cell", "short", "blank_cell"],
    )
    def test_rows_with_a_missing_cell_name_it(self, tmp_path, rows, column):
        """Only a leading row whose first cell is text may be a header; a
        row with a blank or missing cell is an error naming the column."""
        path = tmp_path / "m.csv"
        path.write_text("\n".join(["wavelength_um,real,imag", *rows]) + "\n")
        with pytest.raises(ValueError, match=column):
            load_index_table(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n,,\nwl,n,k\n1.0,1.33,0.0\n\n , \n2.0,1.34,0.0\n")
        assert load_index_table(path).wavelengths.tolist() == [1.0, 2.0]

    def test_data_dir_override(self, tmp_path, monkeypatch):
        path = tmp_path / "h2o.csv"
        path.write_text("wavelength_um,real,imag\n0.4,1.5,0\n4.0,1.5,0\n")
        monkeypatch.setenv("AEROSOL_DATA_DIR", str(tmp_path))
        table = get_material("h2o")
        assert interpolate_index(table, 1.0) == 1.5 + 0.0j
