"""Tests for the energy, divergence and error diagnostics."""

import numpy as np
import pytest

from inductionfd import (
    ErrorRecord,
    Grid2D,
    build_sbp,
    convergence_rate,
    discrete_divergence,
    l2_norm,
    p_energy,
    rel_percent_error,
)


class TestPEnergy:
    def test_matches_explicit_weighted_sum(self):
        grid = Grid2D(0.0, 1.0, 0.0, 2.0, 9, 12)
        op_x, op_y = build_sbp(4, 9), build_sbp(4, 12)
        rng = np.random.default_rng(19)
        v = rng.standard_normal((2, 9, 12))
        wx = grid.dx * op_x.p
        wy = grid.dy * op_y.p
        want = sum(
            wx[i] * wy[j] * (v[0, i, j] ** 2 + v[1, i, j] ** 2)
            for i in range(9)
            for j in range(12)
        )
        assert p_energy(v, grid, op_x, op_y) == pytest.approx(want, rel=1e-13)

    def test_constant_field_measures_area(self):
        """P weights sum to the domain lengths, so energy = 2 * area."""
        grid = Grid2D(0.0, 2.0, 0.0, 3.0, 15, 10)
        op = build_sbp(2, 15), build_sbp(2, 10)
        v = np.ones((2, 15, 10))
        assert p_energy(v, grid, *op) == pytest.approx(2.0 * 6.0, rel=1e-12)

    def test_shape_validation(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
        op = build_sbp(2, 5)
        with pytest.raises(ValueError, match="shape"):
            p_energy(np.zeros((2, 5, 6)), grid, op, op)


class TestDiscreteDivergence:
    def test_divergence_free_linear_field(self):
        """B = (y, x) is divergence free and linear, hence exact."""
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 11, 13)
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        v = np.stack([yy, xx])
        for order in (2, 4):
            op_x, op_y = build_sbp(order, 11), build_sbp(order, 13)
            div = discrete_divergence(v, grid, op_x, op_y)
            np.testing.assert_allclose(div, 0.0, atol=1e-13)

    def test_quadratic_field_exact_at_order_4(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 12, 12)
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        v = np.stack([xx**2, yy**2])
        op = build_sbp(4, 12)
        div = discrete_divergence(v, grid, op, op)
        np.testing.assert_allclose(div, 2.0 * xx + 2.0 * yy, atol=1e-12)


class TestL2Norm:
    def test_hand_value(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 3, 5)  # dx = 0.5, dy = 0.25
        assert l2_norm(np.ones((3, 5)), grid) == pytest.approx(
            np.sqrt(0.5 * 0.25 * 15.0)
        )

    def test_scales_linearly(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
        rng = np.random.default_rng(2)
        f = rng.standard_normal((4, 4))
        assert l2_norm(3.0 * f, grid) == pytest.approx(3.0 * l2_norm(f, grid))


class TestRelPercentError:
    def test_uniform_magnitude_inflation(self):
        """A field 1 percent larger in magnitude gives exactly 1.0."""
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 8, 8)
        exact = lambda x, y, t: (np.cos(x) + 2.0, np.sin(y) + t)
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        v = 1.01 * np.stack(exact(xx, yy, 0.5))
        assert rel_percent_error(v, exact, 0.5, grid) == pytest.approx(1.0, rel=1e-10)

    def test_exact_sample_gives_zero(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 6, 7)
        exact = lambda x, y, t: (x * y, x - y + t)
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        v = np.stack(exact(xx, yy, 2.0))
        assert rel_percent_error(v, exact, 2.0, grid) == 0.0

    def test_zero_exact_solution_rejected(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="identically zero"):
            rel_percent_error(
                np.ones((2, 4, 4)), lambda x, y, t: (0.0 * x, 0.0 * x), 0.0, grid
            )


class TestConvergenceRate:
    def test_halving_errors(self):
        np.testing.assert_allclose(convergence_rate([4.0, 1.0, 0.25]), [2.0, 2.0])

    def test_single_pair(self):
        assert convergence_rate([8.0, 1.0]) == [3.0]

    def test_failed_rows_give_nan(self):
        rates = convergence_rate([1.0, float("nan"), 0.5])
        assert np.isnan(rates).all()
        assert np.isnan(convergence_rate([1.0, 0.0]))[0]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            convergence_rate([1.0])


def test_error_record_defaults():
    rec = ErrorRecord("10x10", 1.0, 0.1, 2.0, 6.28)
    assert rec.failed is False
