import csv

import numpy as np
import pytest

from aeroinv.errors import OutOfBand
from aeroinv.optics import (
    IndexTable,
    get_material,
    interpolate_index,
    kernel_value,
    lorentz_lorenz_mix,
    make_mixed_kernel,
    mie_qext,
    mixed_kernel_rows,
)

try:
    from importlib import resources

    _H2O_PATH = resources.files("aeroinv.data").joinpath("h2o.csv")
except Exception:  # pragma: no cover
    _H2O_PATH = None


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


class TestMixedKernelRows:
    WAVELENGTHS = (0.6, 1.2, 2.3, 3.2)
    FRACTIONS = (0.0, 0.25, 0.6, 1.0)

    @pytest.fixture(scope="class")
    def materials(self):
        return get_material("h2o"), get_material("csi"), get_material("air")

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
            assert make_mixed_kernel(water, csi, air, 0.3)(radii, l) == (
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


class TestMaterials:
    def test_known_materials_load(self):
        for name in ("h2o", "water", "CsI", "air"):
            table = get_material(name)
            assert table.wavelengths[0] <= 0.5
            assert table.wavelengths[-1] >= 3.4

    def test_data_dir_override(self, tmp_path, monkeypatch):
        path = tmp_path / "h2o.csv"
        path.write_text("wavelength_um,real,imag\n0.4,1.5,0\n4.0,1.5,0\n")
        monkeypatch.setenv("AEROSOL_DATA_DIR", str(tmp_path))
        table = get_material("h2o")
        assert interpolate_index(table, 1.0) == 1.5 + 0.0j
