"""Tests for the semi-discrete induction system: fields, SAT, boundary data."""

from dataclasses import replace

import numpy as np
import pytest

from inductionfd import induction
from inductionfd import (
    BoundaryData,
    Grid2D,
    InductionRhs,
    IntegratorConfig,
    MagneticField,
    VelocityCoeffs,
    apply_dx,
    apply_dy,
    assemble,
    build_dissipation,
    build_sbp,
    compute_dt,
    compute_rhs,
    experiment1,
    experiment2,
    experiment3,
    integrate,
    make_sat_config,
    rk4_step,
    sample_velocity,
    sat_sigma,
    scheme_config,
    study_config,
)

from inductionfd.sbp import _BLOCK, BandedStencil

from dense_oracle import dense_rhs_matrix
from run_pieces import pieces_rhs, run_pieces


def _setup(grid, order, theta=1.0, velocity=None, alpha=None, scaling="upwind"):
    """Assemble operator pieces for a hand-built run on ``grid``."""
    if velocity is None:
        velocity = lambda x, y: (np.ones_like(x), 2.0 * np.ones_like(x))
    op_x = build_sbp(order, grid.npx)
    op_y = build_sbp(order, grid.npy)
    coeffs = sample_velocity(velocity, grid, op_x, op_y)
    sat = make_sat_config(coeffs, grid, op_x, op_y, theta=theta)
    diss_x = diss_y = None
    if alpha is not None:
        diss_x = build_dissipation(order, scaling, alpha, grid.npx)
        diss_y = build_dissipation(order, scaling, alpha, grid.npy)
    return op_x, op_y, coeffs, sat, diss_x, diss_y


class TestMagneticField:
    def test_sample_and_views(self):
        grid = Grid2D(0.0, 1.0, 0.0, 2.0, 5, 7)
        field = MagneticField.sample(grid, lambda x, y: (x + y, x - y))
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        np.testing.assert_allclose(field.data[0], xx + yy)
        np.testing.assert_allclose(field.data[1], xx - yy)
        np.testing.assert_allclose(field.magnitude(), np.hypot(xx + yy, xx - yy))

    def test_shape_validation(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 3)
        with pytest.raises(ValueError, match="shape"):
            MagneticField(grid, np.zeros((2, 3, 4)))


class TestSampleVelocity:
    def test_constant_velocity_has_zero_gradients(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 9, 9)
        for order in (2, 4):
            op = build_sbp(order, 9)
            coeffs = sample_velocity(lambda x, y: (3.0, -1.5), grid, op, op)
            np.testing.assert_array_equal(coeffs.lam_x, 3.0)
            np.testing.assert_array_equal(coeffs.lam_y, -1.5)
            for g in (coeffs.du1dx, coeffs.du1dy, coeffs.du2dx, coeffs.du2dy):
                np.testing.assert_array_equal(g, 0.0)
            assert coeffs.max_speed == pytest.approx(4.5)

    @pytest.mark.parametrize("order", [2, 4])
    def test_only_constant_components_lose_their_gradients(self, order):
        """A constant u1 next to a varying u2: u1's planes are exactly 0,
        u2's are the stacked apply's bits."""
        grid = Grid2D(0.0, 1.0, -1.0, 0.5, 10, 13)
        op_x, op_y = build_sbp(order, 10), build_sbp(order, 13)
        coeffs = sample_velocity(lambda x, y: (0.7, np.sin(3.0 * x * y)), grid, op_x, op_y)
        du1dx, du1dy, du2dx, du2dy = coeffs.du1dx, coeffs.du1dy, coeffs.du2dx, coeffs.du2dy
        np.testing.assert_array_equal(du1dx, 0.0)
        np.testing.assert_array_equal(du1dy, 0.0)
        u = np.stack([coeffs.lam_x, coeffs.lam_y])
        assert du2dx.tobytes() == apply_dx(op_x, u, grid)[1].tobytes()
        assert du2dy.tobytes() == apply_dy(op_y, u, grid)[1].tobytes()

    def test_linear_velocity_has_exact_gradients(self, monkeypatch):
        """Rotation u = (-y, x) is linear, so SBP gradients are exact; the
        gradients along the axes its components are constant along are
        not computed and exactly 0.  The callable gets the open mesh."""
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 11, 13)
        op_x, op_y = build_sbp(4, 11), build_sbp(4, 13)
        shapes = []
        coeffs = sample_velocity(lambda x, y: shapes.append((x.shape, y.shape)) or (-y, x),
                                 grid, op_x, op_y)
        assert shapes == [((11, 1), (1, 13))]
        du1dx, du1dy, du2dx, du2dy = coeffs.du1dx, coeffs.du1dy, coeffs.du2dx, coeffs.du2dy
        np.testing.assert_array_equal(du1dx, 0.0)
        np.testing.assert_allclose(du1dy, -1.0, atol=1e-12)
        np.testing.assert_allclose(du2dx, 1.0, atol=1e-12)
        np.testing.assert_array_equal(du2dy, 0.0)
        # u1 = -y is constant along x and u2 = x along y; their views and
        # gradients say so, and the gradients along those axes are broadcast 0s
        assert coeffs.lam_x.strides[0] == 0 and coeffs.lam_y.strides[1] == 0
        assert du1dy.strides[0] == 0 and du2dx.strides[1] == 0
        assert du1dx.shape == du2dy.shape == grid.shape
        assert not any(du1dx.strides + du2dy.strides)
        # so the rotation's RHS skips the zero pair in every strip, not the other
        for length in (None, 1):
            if length is not None:
                monkeypatch.setattr(induction, "STRIP_NODES", length * 37)
            rhs = assemble(experiment1(), scheme_config("sbp3"), 41, 37).rhs
            assert (len(rhs._strips) > 2) == (length is not None)
            for *_, sub, add in rhs._strips:
                assert sub is None and add is not None

    def test_nonfinite_velocity_rejected(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
        op = build_sbp(2, 5)
        with pytest.raises(ValueError, match=r"u1 is not finite at node \(2, 2\)"), \
                np.errstate(divide="ignore"):
            sample_velocity(lambda x, y: (1.0 / ((x - 0.5) ** 2 + (y - 0.5) ** 2), 0.0),
                            grid, op, op)


class TestSatSigma:
    def test_inflow_scales_with_theta(self):
        assert sat_sigma(1.0) == -1.0
        assert sat_sigma(1.0, theta=0.5) == -0.5
        assert sat_sigma(2.5, theta=2.0) == -5.0

    def test_outflow_is_free(self):
        assert sat_sigma(-1.0) == 0.0
        assert sat_sigma(0.0) == 0.0

    def test_array_input(self):
        u = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(sat_sigma(u), [0.0, 0.0, -3.0])


class TestSatConfig:
    def test_rotation_inflow_pattern(self):
        """For u = (-y, x) each side is inflow on half its length."""
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9)
        op = build_sbp(2, 9)
        coeffs = sample_velocity(lambda x, y: (-y, x), grid, op, op)
        sat = make_sat_config(coeffs, grid, op, op)
        w = grid.dx * op.p[0]  # boundary norm weight, equal on all four sides
        # at x = xmin the inward speed is u1 = -y: inflow where y < 0
        # coef_x rows are the sides xmin, xmax; coef_y columns ymin, ymax
        assert sat.coef_x.shape == (2, 9) and sat.coef_y.shape == (9, 2)
        np.testing.assert_array_equal(sat.coef_x[0], -np.maximum(-grid.y, 0.0) / w)
        # at x = xmax the inward speed is -u1 = y: inflow where y > 0
        np.testing.assert_array_equal(sat.coef_x[1], -np.maximum(grid.y, 0.0) / w)
        np.testing.assert_array_equal(sat.coef_y[:, 0], -np.maximum(grid.x, 0.0) / w)
        np.testing.assert_array_equal(sat.coef_y[:, 1], -np.maximum(-grid.x, 0.0) / w)

    def test_coef_divides_boundary_norm_weight(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 12, 12)
        op = build_sbp(4, 12)
        coeffs = sample_velocity(lambda x, y: (1.0, 2.0), grid, op, op)
        sat = make_sat_config(coeffs, grid, op, op)
        h = grid.dx
        np.testing.assert_allclose(sat.coef_x[0], -1.0 / (h * 17.0 / 48.0))
        np.testing.assert_allclose(sat.coef_x[1], 0.0)
        np.testing.assert_allclose(sat.coef_y[:, 0], -2.0 / (h * 17.0 / 48.0))


class TestBoundaryTrace:
    def test_zero_mode(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 8)
        assert BoundaryData.zero(grid).all_sides(0.3) is None
        g_x, g_y = BoundaryData.from_exact(grid, lambda x, y, t: (x, y)).all_sides(0.3)
        assert g_x.shape == (2, 2, 8) and g_y.shape == (2, 5, 2)

    def test_exact_mode_samples_side_coordinates(self):
        grid = Grid2D(0.0, 2.0, -1.0, 1.0, 6, 5)

        def exact(x, y, t):
            return x + 10.0 * y + t, y

        bdata = BoundaryData.from_exact(grid, exact)
        g_x, g_y = bdata.all_sides(0.5)
        np.testing.assert_allclose(g_x[0, 1], 2.0 + 10.0 * grid.y + 0.5)  # xmax
        np.testing.assert_allclose(g_x[1, 1], grid.y)
        g_x, g_y = bdata.all_sides(0.0)
        np.testing.assert_allclose(g_y[0, :, 0], grid.x - 10.0)  # ymin
        np.testing.assert_allclose(g_y[1, :, 0], -1.0)
        # the layout is that of the strided boundary views of a field
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        np.testing.assert_array_equal(g_x, np.stack(exact(xx[::5, :], yy[::5, :], 0.0)))
        np.testing.assert_array_equal(g_y, np.stack(exact(xx[:, ::4], yy[:, ::4], 0.0)))

    def test_mode_validation(self):
        """The data is zero (None) or an exact-solution callable; anything
        else, and ``from_exact`` without a callable, is rejected."""
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
        assert BoundaryData(grid) == BoundaryData(grid, None) == BoundaryData.zero(grid)
        for exact in ("zero", "exact", 0.0):
            with pytest.raises(ValueError, match="must be None or a callable"):
                BoundaryData(grid, exact)
        with pytest.raises(ValueError, match="needs an exact-solution callable"):
            BoundaryData.from_exact(grid, None)


class TestComputeRhs:
    def test_free_stream_is_exactly_zero(self):
        """Constant field + matching Dirichlet data is a discrete steady state."""
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 12, 12)
        for order in (2, 4):
            op_x, op_y, coeffs, sat, dx, dy = _setup(grid, order, alpha=1.5)
            bdata = BoundaryData.from_exact(
                grid, lambda x, y, t: (2.0 * np.ones_like(x), -3.0 * np.ones_like(x))
            )
            v = np.stack([np.full(grid.shape, 2.0), np.full(grid.shape, -3.0)])
            rhs = compute_rhs(v, 0.7, grid, coeffs, bdata, sat, op_x, op_y, dx, dy)
            # zero up to round-off in the order-4 closure coefficients
            assert np.abs(rhs).max() <= 1e-12

    def test_linear_in_state_with_zero_data(self):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 10, 11)
        rng = np.random.default_rng(17)
        op_x, op_y, coeffs, sat, dx, dy = _setup(
            grid, 4, velocity=lambda x, y: (-y, x), alpha=0.8
        )
        bdata = BoundaryData.zero(grid)
        args = (grid, coeffs, bdata, sat, op_x, op_y, dx, dy)
        va = rng.standard_normal((2, 10, 11))
        vb = rng.standard_normal((2, 10, 11))
        lhs = compute_rhs(2.0 * va - 3.0 * vb, 0.0, *args)
        rhs = 2.0 * compute_rhs(va, 0.0, *args) - 3.0 * compute_rhs(vb, 0.0, *args)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_components_decouple_for_constant_velocity(self):
        """Without velocity gradients, dV1/dt does not see V2 and vice versa."""
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 9, 9)
        rng = np.random.default_rng(29)
        op_x, op_y, coeffs, sat, _, _ = _setup(grid, 2)
        bdata = BoundaryData.zero(grid)
        v = rng.standard_normal((2, 9, 9))
        w = v.copy()
        w[1] = rng.standard_normal((9, 9))
        r_v = compute_rhs(v, 0.0, grid, coeffs, bdata, sat, op_x, op_y)
        r_w = compute_rhs(w, 0.0, grid, coeffs, bdata, sat, op_x, op_y)
        np.testing.assert_array_equal(r_v[0], r_w[0])
        assert np.abs(r_v[1] - r_w[1]).max() > 1e-3

    def test_boundary_data_only_touches_boundary_rows(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 11, 11)
        rng = np.random.default_rng(5)
        op_x, op_y, coeffs, sat, _, _ = _setup(grid, 4)
        v = rng.standard_normal((2, 11, 11))
        zero = BoundaryData.zero(grid)
        exact = BoundaryData.from_exact(
            grid, lambda x, y, t: (np.sin(x + y + t), np.cos(x - y))
        )
        diff = compute_rhs(v, 0.2, grid, coeffs, zero, sat, op_x, op_y) - compute_rhs(
            v, 0.2, grid, coeffs, exact, sat, op_x, op_y
        )
        assert np.abs(diff[:, 1:-1, 1:-1]).max() == 0.0
        assert np.abs(diff).max() > 0.0

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_energy_never_produced(self, order, theta):
        """v^T P (dv/dt) <= 0 up to round-off for zero boundary data."""
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 14, 14)
        op_x, op_y, coeffs, sat, dx, dy = _setup(grid, order, theta=theta, alpha=0.5)
        bdata = BoundaryData.zero(grid)
        px = grid.dx * op_x.p
        py = grid.dy * op_y.p
        weights = px[:, None] * py[None, :]
        rng = np.random.default_rng(101)
        for _ in range(50):
            v = rng.standard_normal((2, 14, 14))
            rhs = compute_rhs(v, 0.0, grid, coeffs, bdata, sat, op_x, op_y, dx, dy)
            rate = np.sum(weights * v * rhs)
            norm = np.sum(weights * v * v)
            assert rate <= 1e-12 * norm

    def test_state_validation(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 8, 8)
        op_x, op_y, coeffs, sat, _, _ = _setup(grid, 2)
        bdata = BoundaryData.zero(grid)
        with pytest.raises(ValueError, match="shape"):
            compute_rhs(np.zeros((2, 8, 9)), 0.0, grid, coeffs, bdata, sat, op_x, op_y)


class TestConsistency:
    """The tendency applied to a smooth exact solution converges to dB/dt."""

    @staticmethod
    def _translate_exact(x, y, t):
        b1 = np.sin(2.0 * (x - t)) * np.cos(y - 2.0 * t)
        b2 = np.cos(x - t) * np.sin(y - 2.0 * t)
        return b1, b2

    @staticmethod
    def _translate_dbdt(x, y, t):
        db1 = -2.0 * np.cos(2.0 * (x - t)) * np.cos(y - 2.0 * t) + 2.0 * np.sin(
            2.0 * (x - t)
        ) * np.sin(y - 2.0 * t)
        db2 = np.sin(x - t) * np.sin(y - 2.0 * t) - 2.0 * np.cos(x - t) * np.cos(
            y - 2.0 * t
        )
        return db1, db2

    @pytest.mark.parametrize("order, expected_rate", [(2, 1.5), (4, 2.5)])
    def test_truncation_rate(self, order, expected_rate):
        """P-norm truncation decays as h^(closure order + 1/2).

        The closure rows are one (order 2) or two (order 4) degrees less
        accurate than the interior; their O(h^q) defect lives on a strip
        whose P measure is O(h), giving h^(q + 1/2) overall.
        """
        errs = []
        for n in (32, 64):
            grid = Grid2D(0.0, 1.0, 0.0, 1.0, n, n)
            op = build_sbp(order, n)
            coeffs = sample_velocity(
                lambda x, y: (np.ones_like(x), 2.0 * np.ones_like(x)), grid, op, op
            )
            sat = make_sat_config(coeffs, grid, op, op)
            bdata = BoundaryData.from_exact(grid, self._translate_exact)
            t = 0.3
            xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
            v = np.stack(self._translate_exact(xx, yy, t))
            want = np.stack(self._translate_dbdt(xx, yy, t))
            got = compute_rhs(v, t, grid, coeffs, bdata, sat, op, op)
            weights = (grid.dx * op.p)[:, None] * (grid.dy * op.p)[None, :]
            errs.append(float(np.sqrt(np.sum(weights * (got - want) ** 2))))
        rate = np.log2(errs[0] / errs[1])
        assert abs(rate - expected_rate) < 0.2


def _per_term_rhs(setup, v, t):
    """The RHS without dissipation plus each axis's dissipation applied alone."""
    grid = setup.grid
    pieces = run_pieces(setup)
    rhs = pieces_rhs(setup, pieces._replace(diss_x=None, diss_y=None), t, v)
    if pieces.diss_x is not None:
        rhs += apply_dx(pieces.diss_x, v, grid) + apply_dy(pieces.diss_y, v, grid)
    return rhs


_SCHEMES = [scheme_config(name) for name in ("sbp1", "sbp2", "sbp3", "sbp4")]
_SCHEMES.append(study_config("sbp4"))


def _shear(x, y):
    return y, np.zeros_like(y)


def _full_rank(x, y):
    return np.sin(x + 2.0 * y), np.cos(2.0 * x - y)


class TestFusedRhs:
    """RunSetup.rhs applies one dissipation operator per axis to the stacked
    state; it must agree with the term-by-term sum and the dense oracle."""

    @pytest.mark.parametrize("scheme", _SCHEMES,
                             ids=["sbp1", "sbp2", "sbp3", "sbp4", "sbp4-study"])
    @pytest.mark.parametrize("npx, npy, velocity", [
        pytest.param(npx, npy, velocity, id=f"{npx}-{npy}{name}")
        for name, velocity in (("", None), ("-shear", _shear), ("-full-rank", _full_rank))
        for npx, npy in ((9, 13), (14, 10))])
    def test_matches_per_term_sum_and_dense_oracle(self, scheme, npx, npy, velocity):
        """Over the rotation of the experiments (rank-1 speeds, one zero
        coupling pair), the shear u = (y, 0) (a rank-1 x speed, a folded
        zero y speed, a coupling pair with one zero plane) and a velocity
        whose speeds and coupling planes are all full-rank."""
        specs = [experiment1(), experiment2()]
        if velocity is not None:
            specs = [replace(spec, velocity=velocity) for spec in specs]
        rng = np.random.default_rng(npx * npy)
        # zero boundary data: the RHS is exactly the dense matrix times V
        setup = assemble(specs[0], scheme, npx, npy)
        grid = setup.grid
        matrix = dense_rhs_matrix(grid, scheme.order, setup.spec.velocity,
                                  theta=scheme.theta, dissipation=scheme.dissipation,
                                  alpha=setup.coeffs.max_speed)
        pieces = run_pieces(setup)
        for _ in range(5):
            v = rng.standard_normal((2, npx, npy))
            fused = setup.rhs(0.0, v)
            np.testing.assert_allclose(fused, pieces_rhs(setup, pieces, 0.0, v),
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(fused, _per_term_rhs(setup, v, 0.0),
                                       rtol=0, atol=1e-13)
            dense = (matrix @ v.ravel()).reshape(v.shape)
            np.testing.assert_allclose(fused, dense, rtol=0, atol=1e-13)
        # time-dependent data on all four sides
        setup = assemble(specs[1], scheme, npx, npy)
        v = rng.standard_normal((2, npx, npy))
        want = _per_term_rhs(setup, v, 0.4)
        np.testing.assert_allclose(setup.rhs(0.4, v), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    def test_exact_data_sampled_once_per_rhs(self):
        grid = Grid2D(0.0, 1.0, -1.0, 2.0, 9, 12)
        op_x, op_y, coeffs, sat, dx, dy = _setup(
            grid, 4, velocity=lambda x, y: (-y, x), alpha=0.5
        )
        calls = []

        def exact(x, y, t):
            calls.append(t)
            return np.sin(x + 2.0 * y + t), np.cos(x - y)

        bdata = BoundaryData.from_exact(grid, exact)
        # the per-side reference data, sampled before counting calls
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        edges = (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1])
        traces = [exact(xx[edge], yy[edge], 0.3) for edge in edges]
        calls.clear()
        v = np.random.default_rng(3).standard_normal((2, 9, 12))
        got = compute_rhs(v, 0.3, grid, coeffs, bdata, sat, op_x, op_y, dx, dy)
        assert calls == [0.3]
        # the data enters only as -coef * g on each side, corners twice
        zero = compute_rhs(v, 0.3, grid, coeffs, BoundaryData.zero(grid), sat,
                           op_x, op_y, dx, dy)
        want = np.zeros_like(v)
        coefs = (sat.coef_x[0], sat.coef_x[1], sat.coef_y[:, 0], sat.coef_y[:, 1])
        for edge, coef, (g1, g2) in zip(edges, coefs, traces):
            want[(slice(None),) + edge] -= coef * np.stack([g1, g2])
        np.testing.assert_allclose(got - zero, want, rtol=0, atol=1e-12)

    def test_zero_data_evaluates_nothing(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 8, 10)
        op_x, op_y, coeffs, sat, _, _ = _setup(grid, 2)
        bdata = BoundaryData.zero(grid)
        assert bdata.exact is None and bdata.all_sides(0.5) is None
        v = np.random.default_rng(8).standard_normal((2, 8, 10))
        rhs = compute_rhs(v, 0.5, grid, coeffs, bdata, sat, op_x, op_y)
        assert np.isfinite(rhs).all()
        assert InductionRhs(grid, coeffs, bdata, sat, op_x, op_y).boundary_data(0.5) is None


def _counting_exp2_rhs(npx=10, npy=12):
    """An experiment 2 run whose exact boundary callable records its times."""
    setup = assemble(experiment2(), study_config("sbp4"), npx, npy)
    pieces = run_pieces(setup)
    times = []

    def exact(x, y, t):
        times.append(t)
        return setup.spec.exact(x, y, t)

    rhs = InductionRhs(setup.grid, pieces.coeffs, BoundaryData.from_exact(setup.grid, exact),
                       pieces.sat, setup.op_x, setup.op_y, pieces.diss_x, pieces.diss_y)
    return setup, rhs, times


class TestAssembledRhs:
    """One InductionRhs object per run: fresh results or ones written into
    a caller's buffer, a boundary memo that never goes stale, and the same
    values as the one-shot compute_rhs."""

    def test_results_are_fresh_arrays(self):
        setup, rhs, _ = _counting_exp2_rhs()
        rng = np.random.default_rng(4)
        va, vb = rng.standard_normal((2,) + setup.v0.data.shape)
        first = rhs(0.1, va)
        kept = first.copy()
        second = rhs(0.2, vb)
        assert second is not first and not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(rhs(0.1, va), kept)

    @pytest.mark.parametrize("experiment, scheme, n", [
        (experiment2(), study_config("sbp4"), 20),
        (experiment3(), scheme_config("sbp1"), 20),
        (experiment1(), scheme_config("sbp3"), 320),  # cut into strips
    ])
    def test_out_is_written_and_returned(self, experiment, scheme, n):
        """``rhs(t, v, out=o)`` returns ``o`` holding the bits of the fresh
        result, whatever ``o`` held before."""
        setup = assemble(experiment, scheme, n, n)
        v = np.random.default_rng(n).standard_normal(setup.v0.data.shape)
        out = np.full(v.shape, np.nan)
        assert setup.rhs(0.3, v, out=out) is out
        assert out.tobytes() == setup.rhs(0.3, v).tobytes()

    def test_bad_out_rejected(self):
        """The operand rule of ``BandedStencil.apply``: an ``out`` that is
        the state, of another shape, or not a C-contiguous float64 array
        raises ValueError."""
        setup = assemble(experiment3(), scheme_config("sbp1"), 12, 12)
        v = np.random.default_rng(2).standard_normal(setup.v0.data.shape)
        block = np.empty((2,) + v.shape)
        for out in (v, np.empty((2, 12, 13)), np.empty(v.shape, order="F"),
                    np.empty(v.shape, dtype=np.float32), block[:, 0], block[0][:, ::-1]):
            with pytest.raises(ValueError, match="out must be"):
                setup.rhs(0.3, v, out=out)

    def test_one_rk4_step_samples_at_most_three_times(self):
        setup, rhs, times = _counting_exp2_rhs()
        rk4_step(setup.v0.data, 0.3, 0.01, rhs)
        assert times == [0.3, 0.3 + 0.5 * 0.01, 0.3 + 0.01]

    def test_rk4_steps_sample_at_most_twice_per_step_plus_one(self):
        setup, rhs, times = _counting_exp2_rhs()
        config = IntegratorConfig(t_final=0.6, method="rk4",
                                  fixed_dt=compute_dt(setup.grid, setup.coeffs, 0.9))
        v, steps = integrate(setup.v0.data, config, rhs, t0=0.1)
        assert steps >= 5 and np.isfinite(v).all()
        # each step's end time is the next step's start, so no time repeats
        assert len(times) == len(set(times)) == 2 * steps + 1

    def test_ssp32_steps_sample_twice_per_step_plus_one(self):
        """The stages at t + dt/2 and t + dt sample; the next step's first
        stage at t + dt hits the memo."""
        setup, rhs, times = _counting_exp2_rhs()
        config = IntegratorConfig(t_final=0.6, method="ssp32",
                                  fixed_dt=compute_dt(setup.grid, setup.coeffs, 1.4))
        v, steps = integrate(setup.v0.data, config, rhs, t0=0.1)
        assert steps >= 5 and np.isfinite(v).all()
        assert len(times) == len(set(times)) == 2 * steps + 1

    def test_memo_is_never_stale(self):
        setup, rhs, times = _counting_exp2_rhs()
        v = np.random.default_rng(6).standard_normal(setup.v0.data.shape)
        r1 = rhs(0.1, v)
        rhs(0.2, v)
        again = rhs(0.1, v)
        assert times == [0.1, 0.2, 0.1]
        np.testing.assert_array_equal(again, r1)
        np.testing.assert_array_equal(again, pieces_rhs(setup, run_pieces(setup), 0.1, v))

    def test_memoised_data_is_read_only(self):
        setup, rhs, times = _counting_exp2_rhs()
        g_x, g_y = rhs.boundary_data(0.4)
        assert rhs.boundary_data(0.4)[0] is g_x and times == [0.4]
        for g in (g_x, g_y):
            assert not g.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g[0, 0, 0] = 1.0


class TestStrips:
    """InductionRhs applies every term to one strip of whole rows at a
    time, cut where a block of the x stencil starts; any cut must give the
    one-strip result bit for bit."""

    @pytest.mark.parametrize("npx, npy", [(9, 13), (23, 17), (240, 200), (15, 6000)])
    @pytest.mark.parametrize("length", [1, 5, 64])
    def test_strip_layout(self, monkeypatch, npx, npy, length):
        monkeypatch.setattr(induction, "STRIP_NODES", length * npy)
        for order in (2, 4):
            grid = Grid2D(0.0, 1.0, 0.0, 1.0, npx, npy)
            stencil = BandedStencil([(build_sbp(order, npx), 1.0)], -2, grid)
            lo, blocks = stencil.closure, stencil.full
            strips = induction._strips(npx, npy, stencil.cuts)
            if npx <= length or blocks < 2:
                # small enough, or too short to hold two blocks: not cut
                assert strips == [(slice(0, 2), slice(0, npx))]
                continue
            # consecutive strips of whole rows, the same in each component
            half = len(strips) // 2
            assert len(strips) > 2 and strips[half:] == [
                (slice(1, 2), rows) for _, rows in strips[:half]]
            starts = [rows.start for _, rows in strips[:half]]
            stops = [rows.stop for _, rows in strips[:half]]
            assert starts == [0] + stops[:-1] and stops[-1] == npx
            for fields, rows in strips[:half]:
                assert fields == slice(0, 1)
                # cut only where a block starts, with a whole block inside
                for cut in (rows.start, rows.stop):
                    assert cut in (0, npx) or (cut - lo) % _BLOCK == 0
                inside = [j for j in range(blocks)
                          if rows.start <= lo + _BLOCK * j <= rows.stop - _BLOCK]
                assert inside

    @pytest.mark.parametrize("scheme", _SCHEMES,
                             ids=["sbp1", "sbp2", "sbp3", "sbp4", "sbp4-study"])
    @pytest.mark.parametrize("npx, npy", [(9, 13), (14, 10), (23, 17), (41, 9)])
    def test_forced_strips_match_one_strip_and_dense_oracle(self, monkeypatch, scheme,
                                                            npx, npy):
        rng = np.random.default_rng(npx + npy)
        v = rng.standard_normal((2, npx, npy))
        one = {}
        for spec in (experiment2(), experiment1()):
            setup = assemble(spec, scheme, npx, npy)
            assert len(setup.rhs._strips) == 1
            one[spec.id] = setup.rhs(0.4, v)
        # experiment 1 has zero boundary data: its RHS is the matrix times V
        matrix = dense_rhs_matrix(setup.grid, scheme.order, setup.spec.velocity,
                                  theta=scheme.theta, dissipation=scheme.dissipation,
                                  alpha=setup.coeffs.max_speed)
        dense = (matrix @ v.ravel()).reshape(v.shape)
        np.testing.assert_allclose(one[1], dense, rtol=0, atol=1e-13)
        for length in (1, 2, 3, 5):
            monkeypatch.setattr(induction, "STRIP_NODES", length * npy)
            for spec in (experiment1(), experiment2()):
                rhs = assemble(spec, scheme, npx, npy).rhs
                # strips this short cut at every cut the x stencil allows
                assert len(rhs._strips) == (1 if len(rhs._dx.cuts) == 2
                                            else 2 * (len(rhs._dx.cuts) - 1))
                got = rhs(0.4, v)
                np.testing.assert_array_equal(got, one[spec.id])
                if spec.id == 1:
                    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("npx, npy, length", [(320, 320, None), (240, 200, None),
                                                  (41, 9, 3), (23, 17, 64)])
    def test_scratch_holds_largest_strip(self, monkeypatch, npx, npy, length):
        """The scratch buffer holds the nodes of the largest strip, not of
        the state, so that it stays in cache; each strip works in a
        contiguous view of its start, shaped like the strip."""
        if length is not None:
            monkeypatch.setattr(induction, "STRIP_NODES", length * npy)
        rhs = assemble(experiment1(), scheme_config("sbp3"), npx, npy).rhs
        shapes = [(len(range(2)[fields]), len(range(npx)[rows]), npy)
                  for (fields, rows), *_ in rhs._strips]
        assert rhs._scratch.size == max(np.prod(shape) for shape in shapes)
        if len(shapes) > 1:
            assert rhs._scratch.size < npx * npy
        for (_, work, *_), shape in zip(rhs._strips, shapes):
            assert work.shape == shape and work.flags.c_contiguous
            assert work.base is rhs._scratch and np.shares_memory(work, rhs._scratch[:1])

    def test_real_strips_match_one_strip(self, monkeypatch):
        """Experiment 2 at 240 x 200 is cut with the module's own strip size."""
        v = np.random.default_rng(24).standard_normal((2, 240, 200))
        scheme = scheme_config("sbp3")
        rhs = assemble(experiment2(), scheme, 240, 200).rhs
        assert len(rhs._strips) > 2
        got = rhs(0.7, v)
        monkeypatch.setattr(induction, "STRIP_NODES", 240 * 200)
        one = assemble(experiment2(), scheme, 240, 200).rhs
        assert len(one._strips) == 1
        np.testing.assert_array_equal(got, one(0.7, v))


def _separate_terms_rhs(setup, t, v):
    """A run's RHS from stencils applied one by one to the whole state, its
    terms added in the assembled RHS's order: lam_x Dx + lam_y Dy
    - [du2dy, du1dx] V + [du1dy, du2dx] swap(V) + Ax + Ay, then the SAT."""
    grid, pieces = setup.grid, run_pieces(setup)
    coeffs, sat = pieces.coeffs, pieces.sat

    def applied(op, axis, factor):
        return BandedStencil([(op, factor)], axis, grid).apply(v, np.empty(v.shape))

    rhs = (applied(setup.op_x, -2, -1.0) * coeffs.lam_x
           + applied(setup.op_y, -1, -1.0) * coeffs.lam_y
           - np.stack([coeffs.du2dy, coeffs.du1dx]) * v
           + np.stack([coeffs.du1dy, coeffs.du2dx]) * v[::-1])
    for diss, axis in ((pieces.diss_x, -2), (pieces.diss_y, -1)):
        if diss is not None:
            rhs += applied(diss, axis, 1.0)
    vx, vy = v[:, ::grid.npx - 1, :], v[:, :, ::grid.npy - 1]
    g = pieces.bdata.all_sides(t)
    if g is not None:
        vx, vy = vx - g[0], vy - g[1]
    rhs[:, ::grid.npx - 1, :] += sat.coef_x * vx
    rhs[:, :, ::grid.npy - 1] += sat.coef_y * vy
    return rhs


def _count_applies(monkeypatch):
    """Patch BandedStencil.apply to count its calls into the returned list."""
    calls = []
    apply = BandedStencil.apply

    def counted(self, *args, **kwargs):
        calls.append(self)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(BandedStencil, "apply", counted)
    return calls


class TestConstantSpeeds:
    """An axis whose speed is one value over the grid is one stencil,
    c times the derivative plus the axis's dissipation, and a coupling
    pair that is one broadcast 0 is not applied; every other term gives
    the bits it gives applied alone."""

    @pytest.mark.parametrize("speeds", [(1.0, 2.0), (-1.0, 0.5), (1.0, 0.0)],
                             ids=["1,2", "-1,0.5", "1,0"])
    @pytest.mark.parametrize("dissipation", ["none", "accurate", "upwind"])
    @pytest.mark.parametrize("order", [2, 4])
    def test_merged_rhs_matches_dense_oracle(self, monkeypatch, order, dissipation,
                                             speeds):
        velocity = lambda x, y: speeds
        rng = np.random.default_rng(order + len(dissipation))
        for npx, npy in [(9, 13), (41, 9), (34, 11)]:
            grid = Grid2D(0.0, 1.0, -0.5, 1.0, npx, npy)
            op_x, op_y, coeffs, sat, _, _ = _setup(grid, order, velocity=velocity)
            diss = (None, None)
            if dissipation != "none":
                diss = [build_dissipation(order, dissipation, coeffs.max_speed, n)
                        for n in grid.shape]
            matrix = dense_rhs_matrix(grid, order, velocity, dissipation=dissipation,
                                      alpha=coeffs.max_speed)
            v = rng.standard_normal((2, npx, npy))
            dense = (matrix @ v.ravel()).reshape(v.shape)
            for length in (None, 1, 3):
                if length is not None:
                    monkeypatch.setattr(induction, "STRIP_NODES", length * npy)
                rhs = InductionRhs(grid, coeffs, BoundaryData.zero(grid), sat, op_x, op_y,
                                   *diss)
                assert rhs._diss == [] and all(
                    strip[2:] == (None,) * 4 for strip in rhs._strips)
                if length is not None and npx > 9:
                    assert len(rhs._strips) > 2
                np.testing.assert_allclose(rhs(0.0, v), dense, rtol=0,
                                           atol=1e-13 * np.abs(dense).max())
            monkeypatch.undo()

    def test_rank_is_read_from_strides(self):
        """Full arrays of a constant velocity are applied term by term, not
        folded, and give the folded RHS; a constant pair that is not 0 is
        applied."""
        grid = Grid2D(0.0, 1.0, -0.5, 1.0, 41, 9)
        op_x, op_y, coeffs, sat, *diss = _setup(grid, 4, alpha=0.5)
        v = np.random.default_rng(5).standard_normal((2, 41, 9))
        zero = BoundaryData.zero(grid)
        folded = InductionRhs(grid, coeffs, zero, sat, op_x, op_y, *diss)(0.0, v)
        full = VelocityCoeffs(*(np.array(a) for a in (coeffs.lam_x, coeffs.lam_y,
                                                       coeffs.du1dx, coeffs.du1dy,
                                                       coeffs.du2dx, coeffs.du2dy)))
        rhs = InductionRhs(grid, full, zero, sat, op_x, op_y, *diss)
        assert len(rhs._diss) == 2 and all(
            c is not None for strip in rhs._strips for c in strip[2:])
        scale = np.abs(folded).max()
        np.testing.assert_allclose(rhs(0.0, v), folded, rtol=0, atol=1e-13 * scale)
        half = np.broadcast_to(0.5, (41, 9))
        pair = replace(coeffs, du1dy=half, du2dx=half)
        got = InductionRhs(grid, pair, zero, sat, op_x, op_y, *diss)(0.0, v)
        np.testing.assert_allclose(got - folded, 0.5 * v[::-1], rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("scheme", _SCHEMES,
                             ids=["sbp1", "sbp2", "sbp3", "sbp4", "sbp4-study"])
    @pytest.mark.parametrize("experiment", [experiment1, experiment2])
    def test_varying_speeds_apply_every_term(self, monkeypatch, experiment, scheme):
        rng = np.random.default_rng(7)
        for npx, npy in [(14, 10), (41, 9)]:
            setup = assemble(experiment(), scheme, npx, npy)
            v = rng.standard_normal((2, npx, npy))
            want = _separate_terms_rhs(setup, 0.4, v)
            assert setup.rhs(0.4, v).tobytes() == want.tobytes()
            monkeypatch.setattr(induction, "STRIP_NODES", npy)
            rhs = assemble(experiment(), scheme, npx, npy).rhs
            assert rhs(0.4, v).tobytes() == want.tobytes()
            monkeypatch.undo()

    @pytest.mark.parametrize("name", ["sbp1", "sbp2", "sbp3", "sbp4"])
    @pytest.mark.parametrize("length", [None, 1])
    def test_applies_per_strip(self, monkeypatch, name, length):
        """Two stencil applies per strip for a constant velocity, one per
        axis; a varying one adds the dissipation per axis."""
        npx, npy = 41, 9
        if length is not None:
            monkeypatch.setattr(induction, "STRIP_NODES", length * npy)
        v = np.random.default_rng(2).standard_normal((2, npx, npy))
        calls = _count_applies(monkeypatch)
        for spec, per_strip in ((experiment3(), 2),
                                (experiment2(), 4 if name in ("sbp1", "sbp3") else 2)):
            rhs = assemble(spec, scheme_config(name), npx, npy).rhs
            assert (len(rhs._strips) > 2) == (length is not None)
            calls.clear()
            rhs(0.3, v)
            assert len(calls) == per_strip * len(rhs._strips)
