"""Tests for the one-dimensional SBP operators and their 2D application."""

from itertools import combinations

import numpy as np
import pytest

from inductionfd import induction
from inductionfd import (
    Grid2D,
    apply_dx,
    apply_dy,
    build_dissipation,
    build_sbp,
    verify_sbp,
)
from inductionfd.sbp import _MIN_POINTS, EXACT_DEGREE, BandedStencil

from applied import applied_matrix
from dense_oracle import dense_d, dense_dissipation, dense_p, dense_q


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [8, 21, 50])
def test_sbp_identity(order, n):
    """Q = h P D of the applied D satisfies Q + Q^T = diag(-1, 0, ..., 0, 1)
    to round-off."""
    op = build_sbp(order, n)
    h = 1.0 / (n - 1)
    q = h * op.p[:, None] * applied_matrix(op, h)
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
    """The applied D reproduces monomial derivatives at the documented
    degrees."""
    op = build_sbp(order, n)
    h = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    d = applied_matrix(op, h)
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
    np.testing.assert_allclose(applied_matrix(op, 0.1) @ np.ones(17), 0.0, atol=1e-12)


def test_closure_error_second_order():
    """Order-4 closure rows of the applied D differentiate x^3 with an
    O(h^2) defect."""
    errs = []
    for n in (41, 81):
        op = build_sbp(4, n)
        x = np.linspace(0.0, 1.0, n)
        d = applied_matrix(op, x[1] - x[0]) @ x**3 - 3.0 * x**2
        rows = op.top.shape[0]
        np.testing.assert_allclose(d[rows:-rows], 0.0, atol=1e-12)
        errs.append(np.abs(d).max())
    rate = np.log2(errs[0] / errs[1])
    assert 1.5 <= rate <= 2.5


@pytest.mark.parametrize("order,n", [(2, 11), (2, 30), (4, 11), (4, 30)])
def test_dense_matches_oracle(order, n):
    """The norm weights, and the applied D and its Q = h P D, equal the
    independently written dense matrices."""
    op = build_sbp(order, n)
    h = 0.37
    d = applied_matrix(op, h)
    np.testing.assert_allclose(np.diag(h * op.p), dense_p(order, n, h),
                               atol=1e-15)
    np.testing.assert_allclose(h * op.p[:, None] * d, dense_q(order, n), atol=1e-15)
    np.testing.assert_allclose(d, dense_d(order, n, h), atol=1e-12)


#: grid shapes per order whose interior lengths (n minus both closures)
#: cover the block edges of ``BandedStencil``: below one block of 8, a
#: multiple of 8, 8k +- 1, and the minimum point count (order 2: 3 points,
#: interior 1; order 4: 8 points, no interior); (14, 11) keeps the id of
#: the order alone
_BLOCK_EDGE_SHAPES = [
    pytest.param(order, shape, id=str(order) if shape == (14, 11)
                 else f"{order}-{shape[0]}x{shape[1]}")
    for order, shapes in ((2, [(14, 11), (3, 3), (18, 19), (17, 10), (3, 18)]),
                          (4, [(14, 11), (8, 8), (24, 25), (23, 17), (8, 24)]))
    for shape in shapes
]


@pytest.mark.parametrize("order, shape", _BLOCK_EDGE_SHAPES)
def test_banded_apply_matches_dense(order, shape):
    """Matrix-free application along both axes equals the dense product,
    on planes and on lines: columns (k, npx, 1) along x, rows (k, 1, npy)
    along y."""
    rng = np.random.default_rng(7)
    grid = Grid2D(-1.0, 1.5, 0.0, 2.0, *shape)
    op_x = build_sbp(order, grid.npx)
    op_y = build_sbp(order, grid.npy)
    d_x, d_y = dense_d(order, grid.npx, grid.dx), dense_d(order, grid.npy, grid.dy)
    for f_x, f_y in ((rng.normal(size=grid.shape),) * 2,
                     (rng.normal(size=(3, grid.npx, 1)), rng.normal(size=(3, 1, grid.npy)))):
        np.testing.assert_allclose(apply_dx(op_x, f_x, grid), d_x @ f_x, atol=1e-12)
        np.testing.assert_allclose(apply_dy(op_y, f_y, grid), f_y @ d_y.T, atol=1e-12)


def test_apply_dx_on_y_field_is_zero():
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 12, 12)
    y = np.broadcast_to(grid.y, grid.shape)
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


@pytest.mark.parametrize("build", [lambda: build_sbp(2, 8),
                                   lambda: build_dissipation(2, "accurate", 1.0, 8)],
                         ids=["sbp", "dissipation"])
def test_operators_compare_and_hash_by_identity(build):
    """Comparing array fields would raise; an operator is equal to itself
    only, and hashable."""
    a, b = build(), build()
    assert a == a and a != b
    assert len({a: 1, b: 2}) == 2


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
                              interior=np.array(op.interior),
                              q_closure=bad)
    assert verify_sbp(perturbed).qqt_residual > 1e-4


@pytest.mark.parametrize("table", ["bot", "top"])
def test_verify_sbp_checks_the_applied_tables(table):
    """A corrupted closure table of the apply shows up in the report even
    though ``q_closure``, from which the table was derived, is intact."""
    op = build_sbp(4, 24)
    bad = np.array(getattr(op, table))
    bad[1, 2] += 1e-3
    object.__setattr__(op, table, bad)
    assert verify_sbp(op).qqt_residual > 1e-4


class TestGrid:
    def test_spacing_and_shape(self):
        grid = Grid2D(-1.0, 1.0, 0.0, 1.0, 41, 21)
        assert grid.shape == (41, 21)
        np.testing.assert_allclose(grid.dx, 0.05)
        np.testing.assert_allclose(grid.dy, 0.05)
        assert grid.x.shape == (41,) and grid.y.shape == (21,)
        assert grid.x[0] == -1.0 and grid.y[-1] == 1.0

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
    along both axes, for derivative and dissipation operators."""
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
    with pytest.raises(ValueError, match="does not match grid"):
        apply_dx(build_sbp(order, grid.npx), np.zeros((2, 13, 11)), grid)
    with pytest.raises(ValueError, match="does not match grid"):
        apply_dy(build_sbp(order, grid.npy), np.zeros((2, 14, 12)), grid)


@pytest.mark.parametrize("order, shape", _BLOCK_EDGE_SHAPES)
def test_row_range_apply_matches_full_apply(monkeypatch, order, shape):
    """Every strip layout of ``InductionRhs`` and a range of rows between
    any two cuts of the x stencil, applied to a view of one or several
    fields, write into an ``out`` shaped like the strip the full apply's
    values there, bit for bit, along both axes, for derivative and
    dissipation operators; a range of rows that does not start and end at
    a cut is rejected."""
    rng = np.random.default_rng(17)
    stack = rng.normal(size=(3,) + shape)
    ops = (
        (-2, build_sbp(order, shape[0])),
        (-1, build_sbp(order, shape[1])),
        (-2, build_dissipation(order, "upwind", 0.8, shape[0])),
        (-1, build_dissipation(order, "accurate", 2.5, shape[1])),
    )
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, *shape)
    cuts = BandedStencil([(ops[0][1], 1.0)], -2, grid).cuts
    layouts = [[(fields, slice(a, b))] for a, b in combinations(cuts, 2)
               for fields in (slice(0, 3), slice(1, 2))]
    for length in (1, 2, 3, 5, 64):
        monkeypatch.setattr(induction, "STRIP_NODES", length * shape[1])
        layouts.append(induction._strips(*shape, cuts))
    for axis, op in ops:
        stencil = BandedStencil([(op, 0.7)], axis, grid)
        full = stencil.apply(stack, np.empty_like(stack))
        for layout in layouts:
            for fields, rows in layout:
                out = np.full_like(stack[fields, rows], np.nan)
                assert stencil.apply(stack[fields], out, rows) is out
                np.testing.assert_array_equal(out, full[fields, rows])
        if axis == -2:
            for rows in (slice(0, shape[0] - 1), slice(1, shape[0]), slice(0, 0)):
                with pytest.raises(ValueError, match="must start and end at"):
                    stencil.apply(stack, np.empty_like(stack[:, rows]), rows=rows)


@pytest.mark.parametrize("order, shape", _BLOCK_EDGE_SHAPES)
def test_summed_stencil_is_the_sum_of_its_terms(order, shape):
    """A stencil of two terms applies the sum of its operators, each times
    its factor and its power of the grid spacing: within round-off of the
    one-term stencils applied one by one and of the dense matrices.  A
    one-term stencil holds the operator's closure rows times that scale,
    bit for bit."""
    stack = np.random.default_rng(5).normal(size=(2,) + shape)
    grid = Grid2D(-1.0, 1.5, 0.0, 2.0, *shape)
    for axis, n, h in ((-2, shape[0], grid.dx), (-1, shape[1], grid.dy)):
        d, a = build_sbp(order, n), build_dissipation(order, "upwind", 3.0, n)
        terms = [(d, -2.0), (a, 1.0)]
        want = sum(BandedStencil([term], axis, grid).apply(stack, np.empty_like(stack))
                   for term in terms)
        got = BandedStencil(terms, axis, grid).apply(stack, np.empty_like(stack))
        tol = 1e-13 * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        matrix = -2.0 * dense_d(order, n, h) + dense_dissipation(order, "upwind", 3.0, n, h)
        dense = np.einsum("ij,fjk->fik", matrix, stack) if axis == -2 else stack @ matrix.T
        np.testing.assert_allclose(got, dense, rtol=0, atol=10 * tol)
        one = BandedStencil(terms[:1], axis, grid)
        top = d.top * (-2.0 * h**-1)
        assert one.top.tobytes() == (top if axis == -2 else top.T.copy()).tobytes()


def test_stencil_rejects_bad_terms():
    """No terms, terms of different n or table shapes, and operators not
    built for the grid's axis are rejected with ValueError."""
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 12, 9)
    with pytest.raises(ValueError, match="one or more"):
        BandedStencil([], -2, grid)
    for terms in ([(build_sbp(2, 12), 1.0), (build_sbp(2, 13), 1.0)],
                  [(build_sbp(2, 12), 1.0), (build_sbp(4, 12), 1.0)],
                  [(build_sbp(4, 12), 1.0), (build_dissipation(2, "upwind", 1.0, 12), 1.0)]):
        with pytest.raises(ValueError, match="share n and their table shapes"):
            BandedStencil(terms, -2, grid)
    with pytest.raises(ValueError, match="operator built for 12 points, grid has npy=9"):
        BandedStencil([(build_sbp(2, 12), 1.0)], -1, grid)


@pytest.mark.parametrize("order", [2, 4])
def test_edge_blocks_cover_every_remainder(monkeypatch, order):
    """On every line length from the operator's minimum to 2 closures plus
    24 nodes, so that the interior holds 0, 1 and 2 whole blocks and any
    remainder of 8, a two-term stencil (D, -0.7) plus upwind A equals the
    dense matrices: along x whole, between every two cuts and on a view
    of one field, along y whole and on a row range of one field.  A whole
    apply is the interior product and one product per end, at most three
    ``np.matmul`` calls."""
    closure = build_sbp(order, 40).top.shape[0]
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    for n in range(_MIN_POINTS[order], 2 * closure + 25):
        grid = Grid2D(-1.0, 1.5, 0.0, 2.0, n, n)
        stack = np.random.default_rng(n).normal(size=(2, n, n))
        for axis, h in ((-2, grid.dx), (-1, grid.dy)):
            d, a = build_sbp(order, n), build_dissipation(order, "upwind", 1.3, n)
            matrix = -0.7 * dense_d(order, n, h) + dense_dissipation(order, "upwind", 1.3, n, h)
            want = np.einsum("ij,fjk->fik", matrix, stack) if axis == -2 else stack @ matrix.T
            tol = 1e-13 * np.abs(want).max()
            stencil = BandedStencil([(d, -0.7), (a, 1.0)], axis, grid)
            ranges = ([(slice(None), slice(i, j)) for i, j in combinations(stencil.cuts, 2)]
                      + [(slice(1, 2), slice(None))] if axis == -2
                      else [(slice(1, 2), slice(1, n - 1))])
            monkeypatch.setattr(np, "matmul", counted)
            calls.clear()
            got = stencil.apply(stack, np.empty_like(stack))
            monkeypatch.setattr(np, "matmul", matmul)
            assert len(calls) <= 3, (n, axis, len(calls))
            np.testing.assert_allclose(got, want, rtol=0, atol=tol)
            for fields, rows in ranges:
                part = stencil.apply(stack[fields], np.empty_like(stack[fields, rows]), rows)
                np.testing.assert_allclose(part, want[fields, rows], rtol=0, atol=tol)


@pytest.mark.parametrize("axis", [-2, -1])
def test_apply_rejects_operands_it_cannot_read(axis):
    """An apply checks its operands against the ones its plan was made
    for: an f or out that is not a C-contiguous float64 array, or an out
    not of the strip's shape, raises ValueError, also after an apply of
    the same shape (an F-ordered stack would otherwise be read with C
    strides).  Other C-contiguous operands of the same shapes, such as a
    one-field view of a stride over several, are applied as usual."""
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 30, 30)
    stack = np.random.default_rng(3).normal(size=(2, 30, 30))
    stencil = BandedStencil([(build_sbp(4, 30), 1.0)], axis, grid)
    want = stencil.apply(stack, np.empty_like(stack))
    bad = [
        (np.asfortranarray(stack), np.empty_like(stack)),
        (np.repeat(stack, 2, axis=-1)[..., ::2], np.empty_like(stack)),
        (stack.astype(np.float32), np.empty_like(stack)),
        (stack, np.empty_like(stack, order="F")),
        (stack, np.empty_like(stack, dtype=np.float32)),
        (stack, np.empty((2, 30, 31))[..., :30]),
        (stack, np.empty((2, 31, 30))),
        (stack, np.empty((1, 30, 30))),
    ]
    for f, out in bad:
        with pytest.raises(ValueError, match="C-contiguous float64"):
            stencil.apply(f, out)
    out = np.full((2, 30, 30), np.nan)[::2]
    assert out.flags.c_contiguous and out.strides != np.empty_like(out).strides
    np.testing.assert_array_equal(stencil.apply(stack[:1], out), want[:1])
    np.testing.assert_array_equal(stencil.apply(stack, np.empty_like(stack)), want)
