"""Tests for the norm-compatible artificial dissipation operators."""

import re

import numpy as np
import pytest

from inductionfd import Grid2D, apply_dx, apply_dy, build_dissipation, build_sbp
from inductionfd.dissipation import difference_matrix, difference_stencil

import dense_oracle
from applied import applied_matrix


def _case(order, *rest):
    """A case for the stencil width p = order/2, the only width there is.
    Its id keeps the ``<order>-None-...`` form that the suite reported when
    the width was a parameter (None = the default), so ids stay comparable."""
    return pytest.param(order, *rest, id="-".join(map(str, (order, None, *rest))))


@pytest.mark.parametrize(
    "p, expected",
    [
        (1, [-1.0, 1.0]),
        (2, [1.0, -2.0, 1.0]),
        (3, [-1.0, 3.0, -3.0, 1.0]),
    ],
)
def test_difference_stencil(p, expected):
    np.testing.assert_array_equal(difference_stencil(p), expected)


def test_difference_matrix_shape_and_rows():
    s = difference_matrix(7, 2)
    assert s.shape == (5, 7)
    np.testing.assert_array_equal(s[0, :3], [1.0, -2.0, 1.0])
    np.testing.assert_array_equal(s[4, 4:], [1.0, -2.0, 1.0])
    assert np.count_nonzero(s) == 15
    # an undivided p-th difference annihilates degree < p polynomials
    np.testing.assert_allclose(s @ np.arange(7.0), 0.0, atol=1e-13)


@pytest.mark.parametrize("order, coef", [_case(2, 0.5), _case(4, 1.0 / 12.0)])
def test_interior_row(order, coef):
    """Interior row is -alpha * c_p * (p-th difference squared), p = order/2."""
    alpha = 0.7
    op = build_dissipation(order, "upwind", alpha, 20)
    stencil = difference_stencil(order // 2)
    want = -alpha * coef * np.convolve(stencil, stencil[::-1])
    np.testing.assert_allclose(op.interior, want, rtol=1e-14)
    assert len(op.interior) == order + 1


@pytest.mark.parametrize("order, width", [(2, 1), (4, 2)])
@pytest.mark.parametrize("scaling", ["accurate", "upwind"])
def test_matches_dense_oracle(order, width, scaling):
    """Banded tables agree with an independently assembled dense matrix."""
    n, h, alpha = 14, 0.05, 1.3
    op = build_dissipation(order, scaling, alpha, n)
    assert len(op.interior) == 2 * width + 1
    got = applied_matrix(op, h)
    want = dense_oracle.dense_dissipation(order, scaling, alpha, n, h)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("order", [_case(2), _case(4)])
@pytest.mark.parametrize("scaling", ["accurate", "upwind"])
def test_negative_semidefinite(order, scaling):
    """P A must only remove energy: all eigenvalues of sym(P A) <= 0."""
    n, h = 16, 1.0 / 15.0
    op = build_dissipation(order, scaling, 2.0, n)
    a = applied_matrix(op, h)
    pa = np.diag(h * build_sbp(order, n).p) @ a
    np.testing.assert_allclose(pa, pa.T, atol=1e-14)
    eigs = np.linalg.eigvalsh(0.5 * (pa + pa.T))
    assert eigs.max() <= 1e-12


@pytest.mark.parametrize("order", [_case(2), _case(4)])
def test_annihilates_low_degree_polynomials(order):
    """A kills polynomials of degree < order/2 exactly (no spurious forcing)."""
    n = 18
    op = build_dissipation(order, "upwind", 1.0, n)
    a = applied_matrix(op, 0.1)
    x = np.linspace(-1.0, 1.0, n)
    for k in range(order // 2):
        np.testing.assert_allclose(a @ x**k, 0.0, atol=1e-11)


@pytest.mark.parametrize(
    "order, scaling, expected_rate",
    [
        _case(2, "accurate", 2.0),
        _case(2, "upwind", 1.0),
        _case(4, "accurate", 4.0),
        _case(4, "upwind", 3.0),
    ],
)
def test_consistency_order(order, scaling, expected_rate):
    """Interior perturbation decays at the documented rate on smooth data."""
    errs = []
    for n in (41, 81):
        h = 1.0 / (n - 1)
        x = np.linspace(0.0, 1.0, n)
        op = build_dissipation(order, scaling, 1.0, n)
        a = applied_matrix(op, h)
        rows = op.top.shape[0]
        errs.append(np.abs(a @ np.sin(2.0 * x))[rows:-rows].max())
    rate = np.log2(errs[0] / errs[1])
    assert abs(rate - expected_rate) < 0.25


def test_energy_identity():
    """w^T P A w equals -alpha c_p s(h) |Delta_p w|^2 by construction."""
    rng = np.random.default_rng(11)
    n, h, alpha = 15, 0.07, 0.9
    for order, coef in ((2, 0.5), (4, 1.0 / 12.0)):
        op = build_dissipation(order, "accurate", alpha, n)
        a = applied_matrix(op, h)
        p = np.diag(h * build_sbp(order, n).p)
        w = rng.standard_normal(n)
        dw = difference_matrix(n, order // 2) @ w
        got = w @ p @ a @ w
        np.testing.assert_allclose(got, -alpha * coef * h * dw @ dw, rtol=1e-12)


def test_zero_alpha_is_zero_operator():
    op = build_dissipation(4, "upwind", 0.0, 12)
    assert not op.top.any() and not op.bot.any() and not op.interior.any()


def test_h_exponent_by_scaling():
    assert build_dissipation(2, "accurate", 1.0, 8).h_exponent == 0
    assert build_dissipation(2, "upwind", 1.0, 8).h_exponent == -1


def test_upwind_is_accurate_over_h():
    """The two scalings share tables; only the h power differs."""
    acc = build_dissipation(4, "accurate", 1.0, 13)
    up = build_dissipation(4, "upwind", 1.0, 13)
    h = 0.25
    np.testing.assert_allclose(
        applied_matrix(up, h) * h, applied_matrix(acc, h), rtol=1e-15
    )


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(order=3, scaling="upwind", alpha=1.0, n=12), "unsupported order"),
        (dict(order=2, scaling="downwind", alpha=1.0, n=12), "unknown scaling"),
        (dict(order=2, scaling="upwind", alpha=-0.1, n=12), "nonnegative"),
        (dict(order=4, scaling="accurate", alpha=-0.1, n=12), "nonnegative"),
        (dict(order=2, scaling="upwind", alpha=1.0, n=2), "at least"),
        (dict(order=4, scaling="upwind", alpha=1.0, n=7), "at least"),
        (dict(order=2, scaling="upwind", alpha=np.nan, n=12), "finite"),
        (dict(order=4, scaling="accurate", alpha=np.inf, n=12), "finite"),
        pytest.param(dict(order=2, scaling="downwind", alpha=1.0, n=12),
                     "^" + re.escape("unknown scaling 'downwind', expected one of "
                                     "('accurate', 'upwind')") + "$",
                     id="exact-scaling-message"),
    ],
)
def test_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        build_dissipation(**kwargs)


def test_tables_are_frozen():
    op = build_dissipation(4, "upwind", 1.0, 12)
    with pytest.raises(ValueError):
        op.top[0, 0] = 1.0


def test_apply_matches_dense():
    """The banded 2D application agrees with the dense oracle per axis."""
    rng = np.random.default_rng(23)
    grid = Grid2D(0.0, 1.0, -1.0, 1.0, 13, 11)
    f = rng.standard_normal(grid.shape)
    for order in (2, 4):
        op_x = build_dissipation(order, "upwind", 1.2, grid.npx)
        op_y = build_dissipation(order, "accurate", 0.6, grid.npy)
        ax = dense_oracle.dense_dissipation(order, "upwind", 1.2, grid.npx, grid.dx)
        ay = dense_oracle.dense_dissipation(order, "accurate", 0.6, grid.npy, grid.dy)
        np.testing.assert_allclose(apply_dx(op_x, f, grid), ax @ f, atol=1e-13)
        np.testing.assert_allclose(apply_dy(op_y, f, grid), f @ ay.T, atol=1e-13)


@pytest.mark.parametrize("width, order", [(1, 2), (2, 4)])
def test_closures_match_dense_construction(width, order):
    """Closure blocks equal the corners of -alpha c_p P^{-1} S^T S built
    from the full (n - p) x n difference matrix, p = ``width`` = order/2,
    for every legal n up to 40."""
    alpha, coef = 0.7, {1: 0.5, 2: 1.0 / 12.0}[width]
    rows, n_min = {2: (1, 3), 4: (4, 8)}[order]
    with pytest.raises(ValueError, match="at least"):
        build_dissipation(order, "upwind", alpha, n_min - 1)
    for n in range(n_min, 41):
        op = build_dissipation(order, "upwind", alpha, n)
        s = difference_matrix(n, width)
        a = -(alpha * coef / build_sbp(order, n).p)[:, None] * (s.T @ s)
        assert op.top.shape == op.bot.shape == (rows, rows + width)
        cols = rows + width
        np.testing.assert_allclose(op.top, a[:rows, :cols], rtol=0, atol=1e-14)
        np.testing.assert_allclose(op.bot, a[n - rows:, n - cols:], rtol=0, atol=1e-14)
