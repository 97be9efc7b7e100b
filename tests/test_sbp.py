"""Tests for the one-dimensional SBP operators and their 2D application."""

import numpy as np
import pytest

from inductionfd import (
    Grid2D,
    apply_dx,
    apply_dy,
    build_dissipation,
    build_sbp,
    verify_sbp,
)
from inductionfd.sbp import EXACT_DEGREE

from dense_oracle import dense_d, dense_p, dense_q


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [8, 21, 50])
def test_sbp_identity(order, n):
    """Q + Q^T must equal diag(-1, 0, ..., 0, 1) to round-off."""
    op = build_sbp(order, n)
    q = op.dense_q()
    b = np.zeros((n, n))
    b[0, 0], b[-1, -1] = -1.0, 1.0
    np.testing.assert_allclose(q + q.T, b, atol=1e-14)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [8, 21, 50])
def test_norm_positive(order, n):
    op = build_sbp(order, n)
    assert op.p.min() > 0.0


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [9, 32])
def test_polynomial_exactness(order, n):
    """D reproduces monomial derivatives at the documented degrees."""
    op = build_sbp(order, n)
    h = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    d = op.dense_d(h)
    deg_all, deg_interior = EXACT_DEGREE[order]
    rows = op.top.shape[0]
    for k in range(deg_interior + 1):
        got = d @ x**k
        want = k * x ** (k - 1) if k > 0 else np.zeros(n)
        if k <= deg_all:
            np.testing.assert_allclose(got, want, atol=1e-12)
        else:
            np.testing.assert_allclose(got[rows:-rows], want[rows:-rows],
                                       atol=1e-12)


@pytest.mark.parametrize("order", [2, 4])
def test_constant_derivative_zero(order):
    op = build_sbp(order, 17)
    np.testing.assert_allclose(op.dense_d(0.1) @ np.ones(17), 0.0, atol=1e-12)


def test_closure_error_second_order():
    """Order-4 closure rows differentiate x^3 with an O(h^2) defect."""
    errs = []
    for n in (41, 81):
        op = build_sbp(4, n)
        x = np.linspace(0.0, 1.0, n)
        d = op.dense_d(x[1] - x[0]) @ x**3 - 3.0 * x**2
        rows = op.top.shape[0]
        np.testing.assert_allclose(d[rows:-rows], 0.0, atol=1e-12)
        errs.append(np.abs(d).max())
    rate = np.log2(errs[0] / errs[1])
    assert 1.5 <= rate <= 2.5


@pytest.mark.parametrize("order,n", [(2, 11), (2, 30), (4, 11), (4, 30)])
def test_dense_matches_oracle(order, n):
    """Package coefficient tables equal the independently written ones."""
    op = build_sbp(order, n)
    h = 0.37
    np.testing.assert_allclose(np.diag(h * op.p), dense_p(order, n, h),
                               atol=1e-15)
    np.testing.assert_allclose(op.dense_q(), dense_q(order, n), atol=1e-15)
    np.testing.assert_allclose(op.dense_d(h), dense_d(order, n, h), atol=1e-12)


@pytest.mark.parametrize("order", [2, 4])
def test_banded_apply_matches_dense(order):
    """Matrix-free application along both axes equals the dense product."""
    rng = np.random.default_rng(7)
    grid = Grid2D(-1.0, 1.5, 0.0, 2.0, 14, 11)
    f = rng.normal(size=grid.shape)
    op_x = build_sbp(order, grid.npx)
    op_y = build_sbp(order, grid.npy)
    np.testing.assert_allclose(
        apply_dx(op_x, f, grid), dense_d(order, grid.npx, grid.dx) @ f,
        atol=1e-12)
    np.testing.assert_allclose(
        apply_dy(op_y, f, grid), f @ dense_d(order, grid.npy, grid.dy).T,
        atol=1e-12)


def test_apply_dx_on_y_field_is_zero():
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 12, 12)
    _, y = grid.meshgrid()
    op = build_sbp(4, 12)
    np.testing.assert_allclose(apply_dx(op, y, grid), 0.0, atol=5e-13)
    np.testing.assert_allclose(apply_dy(op, y, grid), 1.0, atol=1e-12)


@pytest.mark.parametrize("order,n_min", [(2, 3), (4, 8)])
def test_minimum_point_count(order, n_min):
    build_sbp(order, n_min)  # smallest legal operator
    with pytest.raises(ValueError):
        build_sbp(order, n_min - 1)


def test_unsupported_order():
    with pytest.raises(ValueError):
        build_sbp(3, 20)


@pytest.mark.parametrize("order", [2, 4])
def test_verify_sbp_clean(order):
    report = verify_sbp(build_sbp(order, 24))
    assert report.qqt_residual <= 1e-14
    assert max(report.exactness_all.values()) <= 1e-12
    assert max(report.exactness_interior.values()) <= 1e-12
    assert report.min_norm_weight > 0.0


def test_verify_sbp_flags_perturbation():
    """A corrupted closure coefficient must show up in the report."""
    from inductionfd.sbp import SbpOperator1D

    op = build_sbp(4, 24)
    bad = np.array(op.q_closure)
    bad[1, 2] += 1e-3
    perturbed = SbpOperator1D(order=4, n=24, p=np.array(op.p),
                              q_interior=np.array(op.q_interior),
                              q_closure=bad)
    assert verify_sbp(perturbed).qqt_residual > 1e-4


class TestGrid:
    def test_spacing_and_shape(self):
        grid = Grid2D(-1.0, 1.0, 0.0, 1.0, 41, 21)
        assert grid.shape == (41, 21)
        np.testing.assert_allclose(grid.dx, 0.05)
        np.testing.assert_allclose(grid.dy, 0.05)
        x, y = grid.meshgrid()
        assert x.shape == grid.shape
        assert x[0, 0] == -1.0 and y[3, -1] == 1.0

    def test_coordinates_computed_once_and_read_only(self):
        grid = Grid2D(-1.0, 1.0, 0.0, 3.0, 41, 7)
        for coords, (lo, hi, n) in ((grid.x, (-1.0, 1.0, 41)), (grid.y, (0.0, 3.0, 7))):
            np.testing.assert_array_equal(coords, np.linspace(lo, hi, n))
            assert not coords.flags.writeable
        assert grid.x is grid.x and grid.y is grid.y

    @pytest.mark.parametrize("bad", [
        dict(npx=1), dict(npy=0), dict(xmax=-1.0), dict(ymax=0.0),
    ])
    def test_validation(self, bad):
        kw = dict(xmin=-1.0, xmax=1.0, ymin=0.0, ymax=1.0, npx=5, npy=5)
        kw.update(bad)
        with pytest.raises(ValueError):
            Grid2D(**kw)


@pytest.mark.parametrize("order", [2, 4])
def test_stacked_apply_matches_per_field(order):
    """Applying to a stack of fields equals applying to each field alone,
    along both axes, for derivative and dissipation operators; ``out``
    receives the result."""
    rng = np.random.default_rng(13)
    grid = Grid2D(-1.0, 1.5, 0.0, 2.0, 14, 11)
    stack = rng.normal(size=(3, 2) + grid.shape)
    cases = (
        (apply_dx, build_sbp(order, grid.npx)),
        (apply_dy, build_sbp(order, grid.npy)),
        (apply_dx, build_dissipation(order, "upwind", 0.8, grid.npx)),
        (apply_dy, build_dissipation(order, "accurate", 2.5, grid.npy)),
    )
    for apply, op in cases:
        got = apply(op, stack, grid)
        for index in np.ndindex(stack.shape[:2]):
            np.testing.assert_allclose(got[index], apply(op, stack[index], grid),
                                       rtol=0, atol=1e-13)
        out = np.full_like(stack, np.nan)
        assert apply(op, stack, grid, out=out) is out
        np.testing.assert_array_equal(out, got)
    with pytest.raises(ValueError, match="does not match grid"):
        apply_dx(build_sbp(order, grid.npx), np.zeros((2, 14, 12)), grid)


def test_lopsided_interior_stencil_rejected():
    """The apply pairs the interior nodes symmetrically about the centre, so
    a row that is neither symmetric nor antisymmetric cannot be applied."""
    from inductionfd.sbp import SbpOperator1D

    op = build_sbp(2, 9)
    lopsided = SbpOperator1D(order=2, n=9, p=np.array(op.p),
                             q_interior=np.array([-0.5, 0.1, 0.4]),
                             q_closure=np.array(op.q_closure))
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 9, 9)
    with pytest.raises(ValueError, match="neither symmetric nor antisymmetric"):
        apply_dx(lopsided, np.zeros(grid.shape), grid)
