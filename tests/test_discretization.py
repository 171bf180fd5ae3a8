import numpy as np
import pytest
from scipy.integrate import simpson

from aeroinv.discretization import (
    RadiusGrid,
    assemble_kernel_matrix,
    build_collocation_grid,
    evaluate_distribution,
    hat_basis_values,
    trapezoid_weights,
    uniform_grid,
)
from aeroinv.errors import DimensionError, OutOfRange


class TestCollocationGrid:
    def test_identity_subgrid(self):
        igrid = uniform_grid(0.01, 7.0, 40)
        cgrid = build_collocation_grid(40, igrid)
        assert np.array_equal(cgrid.points, igrid.points)

    def test_three_points(self):
        igrid = uniform_grid(0.01, 7.0, 300)
        cgrid = build_collocation_grid(3, igrid)
        mid = 0.5 * (0.01 + 7.0)
        nearest = igrid.points[np.argmin(np.abs(igrid.points - mid))]
        assert cgrid.points[0] == 0.01
        assert cgrid.points[-1] == 7.0
        assert cgrid.points[1] == nearest

    def test_matches_bruteforce_nearest_search(self):
        igrid = uniform_grid(0.01, 7.0, 300)
        cgrid = build_collocation_grid(10, igrid)
        pre = np.linspace(0.01, 7.0, 10)
        expected = []
        for p in pre:
            d = np.abs(igrid.points - p)
            expected.append(igrid.points[np.argmin(d)])  # argmin = lowest on tie
        expected[0], expected[-1] = igrid.points[0], igrid.points[-1]
        assert np.array_equal(cgrid.points, np.unique(expected))

    def test_bounds(self):
        igrid = uniform_grid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            build_collocation_grid(2, igrid)
        with pytest.raises(ValueError):
            build_collocation_grid(11, igrid)
        # NaN compares false, so only a finiteness check rejects these
        with pytest.raises(ValueError):
            RadiusGrid([0.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="finite"):
            with np.errstate(invalid="ignore"):
                uniform_grid(0.01, np.inf, 5)


def hat_basis_loop(collocation_grid, r):
    """One hat at a time: the reference ``hat_basis_values`` must equal."""
    c = collocation_grid.points
    r = np.asarray(r, dtype=float)
    vals = np.zeros((c.size, r.size))
    for k in range(c.size):
        b = np.zeros(r.size)
        if k > 0:
            mask = (r >= c[k - 1]) & (r <= c[k])
            b[mask] = (r[mask] - c[k - 1]) / (c[k] - c[k - 1])
        if k < c.size - 1:
            mask = (r > c[k]) & (r <= c[k + 1])
            b[mask] = (c[k + 1] - r[mask]) / (c[k + 1] - c[k])
        if k == 0:
            b[r == c[0]] = 1.0
        vals[k] = b
    return vals


class TestHatBasis:
    def test_equals_the_per_hat_loop_bit_for_bit(self):
        from aeroinv.simulation_study import integration_grid

        igrid = integration_grid()
        nodes = igrid.points
        # the nodes, every midpoint and radii outside the grid on both sides
        off_grid = np.concatenate(
            ([nodes[0] - 1.0, nodes[0] - 1e-9], 0.5 * (nodes[1:] + nodes[:-1]),
             [nodes[-1] + 1e-9, nodes[-1] + 1.0])
        )
        radii = np.concatenate((nodes, off_grid))
        sizes = set()
        for n_col in range(3, nodes.size + 1):
            cgrid = build_collocation_grid(n_col, igrid)
            sizes.add(len(cgrid))
            got = hat_basis_values(cgrid, radii)
            assert got.tobytes() == hat_basis_loop(cgrid, radii).tobytes()
        assert len(sizes) > 200


class TestAssembly:
    def test_constant_kernel_gives_hat_areas(self):
        igrid = uniform_grid(0.0, 1.0, 101)
        cgrid = build_collocation_grid(6, igrid)
        wavelengths = [0.5, 0.6, 0.7, 0.8]
        km = assemble_kernel_matrix(
            lambda r, l: np.ones_like(r), wavelengths, igrid, cgrid
        )
        c = cgrid.points
        areas = 0.5 * (c[2:] - c[:-2])
        assert km.entries == pytest.approx(np.tile(areas, (4, 1)))

    def test_linear_kernel_matches_symbolic_integral(self):
        # r * hat(r) integrates exactly under the trapezoidal rule on a
        # uniform grid: the quadratic error cancels between the two flanks
        igrid = uniform_grid(0.0, 2.0, 201)
        cgrid = build_collocation_grid(9, igrid)
        km = assemble_kernel_matrix(lambda r, l: r, [1.0] * 8, igrid, cgrid)
        c = cgrid.points
        exact = []
        for k in range(1, len(c) - 1):
            left, mid, right = c[k - 1], c[k], c[k + 1]
            # closed form: int r*b_k dr over both flanks
            up = (mid**3 - left**3) / 3 - left * (mid**2 - left**2) / 2
            up /= mid - left
            down = right * (right**2 - mid**2) / 2 - (right**3 - mid**3) / 3
            down /= right - mid
            exact.append(up + down)
        assert km.entries[0] == pytest.approx(np.array(exact), rel=1e-12)

    def test_mie_kernel_shape_and_sign(self):
        from aeroinv.optics import get_material, make_kernel

        kernel = make_kernel(get_material("h2o"), get_material("air"))
        igrid = uniform_grid(0.01, 7.0, 300)
        cgrid = build_collocation_grid(10, igrid)
        wavelengths = np.linspace(0.6, 3.3, 48)
        km = assemble_kernel_matrix(kernel, wavelengths, igrid, cgrid)
        assert km.interior_dim == 8
        assert km.entries.shape == (48, 8)
        assert np.all(km.entries >= 0.0)

    def test_dimension_error(self):
        igrid = uniform_grid(0.0, 1.0, 50)
        cgrid = build_collocation_grid(10, igrid)
        with pytest.raises(DimensionError):
            assemble_kernel_matrix(
                lambda r, l: np.ones_like(r), [0.5] * 4, igrid, cgrid
            )


class TestEvaluateDistribution:
    def setup_method(self):
        self.igrid = uniform_grid(0.0, 1.0, 11)
        self.grid = build_collocation_grid(6, self.igrid)
        self.weights = np.array([2.0, 4.0, 1.0, 3.0])

    def test_node_values(self):
        for j, w in enumerate(self.weights):
            r = self.grid.points[j + 1]
            assert evaluate_distribution(self.weights, self.grid, r) == w

    def test_zero_boundaries(self):
        assert evaluate_distribution(self.weights, self.grid, self.grid.r_min) == 0.0
        assert evaluate_distribution(self.weights, self.grid, self.grid.r_max) == 0.0

    def test_linear_midpoint(self):
        mid = 0.5 * (self.grid.points[1] + self.grid.points[2])
        assert evaluate_distribution(self.weights, self.grid, mid) == pytest.approx(3.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            evaluate_distribution(self.weights, self.grid, 1.5)

    def test_nan_radius_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            evaluate_distribution(self.weights, self.grid, np.nan)
        inside = self.grid.points[1]
        with pytest.raises(OutOfRange):
            evaluate_distribution(self.weights, self.grid, np.array([inside, np.nan]))


class TestQuadratureConsistency:
    def test_forward_consistency_with_simpson(self):
        # trapezoid collocation forward vs fine Simpson integral, <= 2% at 50
        # collocation points
        igrid = uniform_grid(0.01, 7.0, 300)
        cgrid = build_collocation_grid(50, igrid)
        kernel = lambda r, l: np.exp(-0.3 * r * l) * (1 + r) ** 2
        wavelengths = np.linspace(0.6, 3.3, 48)
        km = assemble_kernel_matrix(kernel, wavelengths, igrid, cgrid)
        smooth = lambda r: np.exp(-0.5 * (r - 2.5) ** 2)
        weights = smooth(cgrid.points[1:-1])
        approx = km.entries @ weights
        fine = np.linspace(0.01, 7.0, 10001)
        hats = hat_basis_values(cgrid, fine)[1:-1]
        recon = weights @ hats
        exact = np.array(
            [simpson(kernel(fine, l) * recon, x=fine) for l in wavelengths]
        )
        assert np.all(np.abs(approx - exact) <= 0.02 * np.abs(exact))

    def test_representation_error_nonincreasing_on_nested_grids(self):
        igrid = uniform_grid(0.0, 1.0, 257)
        target = lambda r: np.sin(np.pi * r) ** 2 + 0.3 * r
        fine = np.linspace(0.0, 1.0, 4001)
        tvals = target(fine)
        errors = []
        for n_col in (5, 9, 17, 33, 65):  # nested snapped subgrids
            cgrid = build_collocation_grid(n_col, igrid)
            hats = hat_basis_values(cgrid, fine)[1:-1]
            w = np.sqrt(np.gradient(fine))
            coef, *_ = np.linalg.lstsq((hats * w).T, tvals * w, rcond=None)
            resid = tvals - coef @ hats
            errors.append(np.sqrt(simpson(resid**2, x=fine)))
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_trapezoid_weights(self):
        nodes = np.array([0.0, 1.0, 3.0, 4.0])
        assert trapezoid_weights(nodes) == pytest.approx([0.5, 1.5, 1.5, 0.5])
