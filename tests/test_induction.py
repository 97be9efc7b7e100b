"""Tests for the semi-discrete induction system: fields, SAT, boundary data."""

import numpy as np
import pytest

from inductionfd import (
    BoundaryData,
    Grid2D,
    InductionRhs,
    IntegratorConfig,
    MagneticField,
    apply_dx,
    apply_dy,
    assemble,
    build_dissipation,
    build_sbp,
    compute_rhs,
    experiment1,
    experiment2,
    integrate,
    make_sat_config,
    rk4_step,
    sample_velocity,
    sat_sigma,
    scheme_config,
    study_config,
)

from dense_oracle import dense_rhs_matrix


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
        xx, yy = grid.meshgrid()
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
        op = build_sbp(2, 9)
        coeffs = sample_velocity(lambda x, y: (3.0, -1.5), grid, op, op)
        np.testing.assert_array_equal(coeffs.lam_x, 3.0)
        np.testing.assert_array_equal(coeffs.lam_y, -1.5)
        for g in (coeffs.couple_sub, coeffs.couple_add):
            np.testing.assert_allclose(g, 0.0, atol=1e-13)
        assert coeffs.max_speed == pytest.approx(4.5)

    def test_linear_velocity_has_exact_gradients(self):
        """Rotation u = (-y, x) is linear, so SBP gradients are exact."""
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 11, 13)
        op_x, op_y = build_sbp(4, 11), build_sbp(4, 13)
        coeffs = sample_velocity(lambda x, y: (-y, x), grid, op_x, op_y)
        du2dy, du1dx = coeffs.couple_sub
        du1dy, du2dx = coeffs.couple_add
        np.testing.assert_allclose(du1dx, 0.0, atol=1e-12)
        np.testing.assert_allclose(du1dy, -1.0, atol=1e-12)
        np.testing.assert_allclose(du2dx, 1.0, atol=1e-12)
        np.testing.assert_allclose(du2dy, 0.0, atol=1e-12)

    def test_nonfinite_velocity_rejected(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
        op = build_sbp(2, 5)
        with pytest.raises(ValueError, match="not finite"), \
                np.errstate(divide="ignore"):
            sample_velocity(lambda x, y: (1.0 / (x - x[2, 2]), 0.0), grid, op, op)


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

    @pytest.mark.parametrize("theta", [0.49, 0.0, -1.0])
    def test_weak_penalty_rejected(self, theta):
        with pytest.raises(ValueError, match="theta"):
            sat_sigma(1.0, theta=theta)


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
        xx, yy = grid.meshgrid()
        np.testing.assert_array_equal(g_x, np.stack(exact(xx[::5, :], yy[::5, :], 0.0)))
        np.testing.assert_array_equal(g_y, np.stack(exact(xx[:, ::4], yy[:, ::4], 0.0)))

    def test_mode_validation(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
        with pytest.raises(ValueError, match="unknown boundary mode"):
            BoundaryData(grid, "periodic")
        with pytest.raises(ValueError, match="callable"):
            BoundaryData(grid, "exact")
        with pytest.raises(ValueError, match="unknown boundary mode"):
            BoundaryData(grid, "table")


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
        bad = np.zeros((2, 8, 8))
        bad[0, 3, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            compute_rhs(bad, 0.0, grid, coeffs, bdata, sat, op_x, op_y)


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
            xx, yy = grid.meshgrid()
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
    rhs = compute_rhs(v, t, grid, setup.coeffs, setup.bdata, setup.sat,
                      setup.op_x, setup.op_y)
    if setup.diss_x is not None:
        rhs += apply_dx(setup.diss_x, v, grid) + apply_dy(setup.diss_y, v, grid)
    return rhs


_SCHEMES = [scheme_config(name) for name in ("sbp1", "sbp2", "sbp3", "sbp4")]
_SCHEMES.append(study_config("sbp4"))


class TestFusedRhs:
    """RunSetup.rhs applies one dissipation operator per axis to the stacked
    state; it must agree with the term-by-term sum and the dense oracle."""

    @pytest.mark.parametrize("scheme", _SCHEMES,
                             ids=["sbp1", "sbp2", "sbp3", "sbp4", "sbp4-study"])
    @pytest.mark.parametrize("npx, npy", [(9, 13), (14, 10)])
    def test_matches_per_term_sum_and_dense_oracle(self, scheme, npx, npy):
        rng = np.random.default_rng(npx * npy)
        # zero boundary data: the RHS is exactly the dense matrix times V
        setup = assemble(experiment1(), scheme, npx, npy)
        grid = setup.grid
        matrix = dense_rhs_matrix(grid, scheme.order, setup.spec.velocity,
                                  theta=scheme.theta, dissipation=scheme.dissipation,
                                  alpha=setup.coeffs.max_speed)
        pieces = (grid, setup.coeffs, setup.bdata, setup.sat, setup.op_x, setup.op_y,
                  setup.diss_x, setup.diss_y)
        for _ in range(5):
            v = rng.standard_normal((2, npx, npy))
            fused = setup.rhs(0.0, v)
            np.testing.assert_allclose(fused, compute_rhs(v, 0.0, *pieces),
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(fused, _per_term_rhs(setup, v, 0.0),
                                       rtol=0, atol=1e-13)
            dense = (matrix @ v.ravel()).reshape(v.shape)
            np.testing.assert_allclose(fused, dense, rtol=0, atol=1e-13)
        # time-dependent exact data on all four sides
        setup = assemble(experiment2(), scheme, npx, npy)
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
        xx, yy = grid.meshgrid()
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
    times = []

    def exact(x, y, t):
        times.append(t)
        return setup.spec.exact(x, y, t)

    rhs = InductionRhs(setup.grid, setup.coeffs, BoundaryData.from_exact(setup.grid, exact),
                       setup.sat, setup.op_x, setup.op_y, setup.diss_x, setup.diss_y)
    return setup, rhs, times


class TestAssembledRhs:
    """One InductionRhs object per run: fresh results, a boundary memo that
    never goes stale, and the same values as the one-shot compute_rhs."""

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

    def test_one_rk4_step_samples_at_most_three_times(self):
        setup, rhs, times = _counting_exp2_rhs()
        rk4_step(setup.v0.data, 0.3, 0.01, rhs)
        assert times == [0.3, 0.3 + 0.5 * 0.01, 0.3 + 0.01]

    def test_rk4_steps_sample_at_most_twice_per_step_plus_one(self):
        setup, rhs, times = _counting_exp2_rhs()
        config = IntegratorConfig(t_final=0.6, method="rk4", cfl=0.9)
        v, steps = integrate(setup.v0.data, config, rhs, t0=0.1,
                             grid=setup.grid, coeffs=setup.coeffs)
        assert steps >= 5 and np.isfinite(v).all()
        # each step's end time is the next step's start, so no time repeats
        assert len(times) == len(set(times)) == 2 * steps + 1

    def test_memo_is_never_stale(self):
        setup, rhs, times = _counting_exp2_rhs()
        v = np.random.default_rng(6).standard_normal(setup.v0.data.shape)
        r1 = rhs(0.1, v)
        rhs(0.2, v)
        again = rhs(0.1, v)
        assert times == [0.1, 0.2, 0.1]
        np.testing.assert_array_equal(again, r1)
        np.testing.assert_array_equal(again, compute_rhs(
            v, 0.1, setup.grid, setup.coeffs, setup.bdata, setup.sat,
            setup.op_x, setup.op_y, setup.diss_x, setup.diss_y))

    def test_memoised_data_is_read_only(self):
        setup, rhs, times = _counting_exp2_rhs()
        g_x, g_y = rhs.boundary_data(0.4)
        assert rhs.boundary_data(0.4)[0] is g_x and times == [0.4]
        for g in (g_x, g_y):
            assert not g.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                g[0, 0, 0] = 1.0
