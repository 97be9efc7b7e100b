"""Tests for the explicit Runge-Kutta integrators and CFL step control."""

import numpy as np
import pytest

from inductionfd import (
    BoundaryData,
    Grid2D,
    InstabilityError,
    IntegratorConfig,
    assemble,
    build_dissipation,
    build_sbp,
    compute_dt,
    compute_rhs,
    experiment3,
    integrate,
    make_sat_config,
    p_energy,
    rk2_step,
    rk4_step,
    sample_velocity,
    scheme_config,
)

import dense_oracle


def _linear_system(order=2, n=6):
    """Dense semi-discrete operator M for u=(1,2), g=0 on an n x n grid."""
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, n, n)
    m = dense_oracle.dense_rhs_matrix(grid, order, lambda x, y: (1.0, 2.0))
    return grid, m


def _expm_apply(m, t, v0):
    """exp(m t) v0 via eigendecomposition (m is small and diagonalizable)."""
    lam, s = np.linalg.eig(m)
    return (s @ (np.exp(lam * t) * np.linalg.solve(s, v0))).real


class TestComputeDt:
    def test_formula(self):
        grid = Grid2D(0.0, 1.0, 0.0, 2.0, 11, 11)  # dx = 0.1, dy = 0.2
        op = build_sbp(2, 11)
        coeffs = sample_velocity(lambda x, y: (3.0, -4.0), grid, op, op)
        dt = compute_dt(grid, coeffs, cfl=0.45)
        assert dt == pytest.approx(0.45 / (3.0 / 0.1 + 4.0 / 0.2))

    def test_zero_velocity_rejected(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
        op = build_sbp(2, 5)
        coeffs = sample_velocity(lambda x, y: (0.0, 0.0), grid, op, op)
        with pytest.raises(ValueError, match="vanishes"):
            compute_dt(grid, coeffs)

    @pytest.mark.parametrize("cfl", [0.0, -0.1, 1.5])
    def test_cfl_range(self, cfl):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
        op = build_sbp(2, 5)
        coeffs = sample_velocity(lambda x, y: (1.0, 0.0), grid, op, op)
        with pytest.raises(ValueError, match="cfl"):
            compute_dt(grid, coeffs, cfl=cfl)


class TestConfig:
    def test_defaults(self):
        config = IntegratorConfig(t_final=1.0)
        assert config.method == "rk2" and config.cfl == 0.45

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(t_final=1.0, method="euler"), "unknown method"),
            (dict(t_final=-1.0), "t_final"),
            (dict(t_final=1.0, cfl=0.0), "cfl"),
            (dict(t_final=1.0, fixed_dt=0.0), "fixed_dt"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            IntegratorConfig(**kwargs)


class TestSteppers:
    def test_heun_exact_on_affine_forcing(self):
        """Heun is the trapezoid rule: exact for dV/dt = a + b t."""
        a, b = 1.25, -0.75

        def rhs(t, v):
            return a + b * t + 0.0 * v

        v = np.array([2.0])
        t, dt = 0.3, 0.17
        got = rk2_step(v, t, dt, rhs)
        want = v + a * dt + b * (t * dt + dt**2 / 2.0)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_rk4_exact_on_cubic_forcing(self):
        """The classical RK4 quadrature is Simpson's rule: exact for t^3."""

        def rhs(t, v):
            return np.full_like(v, t**3)

        v = np.zeros(2)
        got = rk4_step(v, 0.0, 1.0, rhs)
        np.testing.assert_allclose(got, 0.25, rtol=1e-14)

    @pytest.mark.parametrize(
        "stepper, expected_order", [(rk2_step, 2), (rk4_step, 4)]
    )
    def test_order_of_accuracy(self, stepper, expected_order):
        """Step error against exp(M t) shrinks at the advertised order."""
        _, m = _linear_system()
        rng = np.random.default_rng(41)
        v0 = rng.standard_normal(m.shape[0])

        def rhs(t, v):
            return m @ v

        errs = []
        for dt in (0.02, 0.01):
            n_steps = round(0.4 / dt)
            v = v0.copy()
            for k in range(n_steps):
                v = stepper(v, k * dt, dt, rhs)
            errs.append(np.linalg.norm(v - _expm_apply(m, 0.4, v0)))
        rate = np.log2(errs[0] / errs[1])
        assert abs(rate - expected_order) < 0.3


class TestIntegrate:
    def test_matches_matrix_exponential(self):
        """CFL-free path: fixed_dt integration tracks the exact propagator."""
        grid, m = _linear_system(order=2, n=6)
        rng = np.random.default_rng(7)
        v0 = rng.standard_normal(m.shape[0])
        config = IntegratorConfig(t_final=0.5, method="rk4", fixed_dt=1e-3)
        v, _ = integrate(v0, config, lambda t, v: m @ v)
        np.testing.assert_allclose(v, _expm_apply(m, 0.5, v0), atol=1e-10)

    def test_zero_t_final_returns_copy(self):
        v0 = np.array([1.0, 2.0])
        calls = []
        v, steps = integrate(
            v0, IntegratorConfig(t_final=0.0, fixed_dt=0.1), lambda t, v: v,
            hook=lambda k, t, v: calls.append((k, t)),
        )
        np.testing.assert_array_equal(v, v0)
        assert v is not v0
        assert calls == [(0, 0.0)]
        assert steps == 0

    def test_final_step_truncated_to_t_final(self):
        """Hook times run from t0; the rhs sees absolute times, so Heun
        integrates dV/dt = t exactly to ((t0 + 1)^2 - t0^2) / 2."""
        for t0 in (0.0, 2.5):
            times = []
            config = IntegratorConfig(t_final=t0 + 1.0, fixed_dt=0.4)
            v, steps = integrate(
                np.zeros(1), config, lambda t, v: np.full_like(v, t), t0=t0,
                hook=lambda k, t, v: times.append(t),
            )
            assert steps == 3
            np.testing.assert_allclose(times, [t0, t0 + 0.4, t0 + 0.8, t0 + 1.0])
            np.testing.assert_allclose(v, t0 + 0.5, rtol=1e-14)

    def test_t_final_before_t0_rejected(self):
        config = IntegratorConfig(t_final=1.0, fixed_dt=0.1)
        with pytest.raises(ValueError, match="before the start time"):
            integrate(np.zeros(1), config, lambda t, v: v, t0=2.0)

    def test_hook_cadence_and_final_call(self):
        steps = []
        config = IntegratorConfig(t_final=0.5, fixed_dt=0.1)
        integrate(
            np.zeros(1), config, lambda t, v: np.zeros_like(v),
            hook=lambda k, t, v: steps.append(k), hook_every=2,
        )
        assert steps == [0, 2, 4, 5]

    def test_cfl_path_needs_grid_and_coeffs(self):
        with pytest.raises(ValueError, match="grid and coeffs"):
            integrate(np.zeros(1), IntegratorConfig(t_final=1.0), lambda t, v: v)

    def test_instability_reports_step_and_last_state(self):
        v0 = np.array([1.0])
        for t0 in (0.0, 4.0 * np.pi):
            config = IntegratorConfig(t_final=t0 + 10.0, fixed_dt=1.0)
            with pytest.raises(InstabilityError) as excinfo, np.errstate(over="ignore"):
                integrate(v0, config, lambda t, v: v * 1e160, t0=t0)
            err = excinfo.value
            assert err.step == 1
            assert err.time == t0
            np.testing.assert_array_equal(err.last_state, v0)

    def test_stage_overflow_becomes_instability(self):
        """A stage whose state overflows inside compute_rhs is an instability
        of the run, reported with its step, time and last finite state."""
        setup = assemble(experiment3(), scheme_config("sbp1"), 40, 40)
        config = IntegratorConfig(t_final=50.0, fixed_dt=0.05)
        with pytest.raises(InstabilityError) as excinfo, \
                np.errstate(over="ignore", invalid="ignore"):
            integrate(setup.v0.data, config, setup.rhs)
        err = excinfo.value
        assert err.step is not None and err.step >= 1
        assert err.time == pytest.approx((err.step - 1) * 0.05)
        assert err.last_state.shape == (2, 40, 40)
        assert np.isfinite(err.last_state).all()
        # called directly, compute_rhs still rejects the state as bad input
        with pytest.raises(ValueError, match="non-finite"):
            setup.rhs(0.0, np.full((2, 40, 40), np.inf))

    def test_integration_error_converges_second_order(self):
        """Global Heun error vs exp(M t) shrinks 4x when dt halves."""
        _, m = _linear_system()
        rng = np.random.default_rng(13)
        v0 = rng.standard_normal(m.shape[0])
        want = _expm_apply(m, 0.3, v0)
        errs = []
        for dt in (0.01, 0.005):
            config = IntegratorConfig(t_final=0.3, fixed_dt=dt)
            v, _ = integrate(v0, config, lambda t, v: m @ v)
            errs.append(np.linalg.norm(v - want))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


class TestDiscreteEnergy:
    @pytest.mark.parametrize("order", [2, 4])
    def test_energy_decays_per_step_with_dissipation(self, order):
        """Fully discrete energy is non-increasing once accurate dissipation
        at the wave-speed scale is on.

        The semi-discrete estimate alone does not control the explicit
        integrator: the plain order-4 scheme shows a small per-step energy
        growth under rk2, which the dissipation term absorbs.
        """
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 24, 24)
        op = build_sbp(order, 24)
        coeffs = sample_velocity(lambda x, y: (1.0, 2.0), grid, op, op)
        sat = make_sat_config(coeffs, grid, op, op)
        bdata = BoundaryData.zero(grid)
        alpha = coeffs.max_speed
        diss = build_dissipation(order, "accurate", alpha, 24)
        xx, yy = grid.meshgrid()
        v0 = np.stack([
            np.sin(2.0 * np.pi * xx) * yy, np.cos(np.pi * xx * yy),
        ])

        def rhs(t, v):
            return compute_rhs(v, t, grid, coeffs, bdata, sat, op, op, diss, diss)

        energies = []
        config = IntegratorConfig(t_final=0.5, method="rk2")
        integrate(
            v0, config, rhs, grid=grid, coeffs=coeffs,
            hook=lambda k, t, v: energies.append(p_energy(v, grid, op, op)),
        )
        diffs = np.diff(energies)
        assert (diffs <= 1e-14 * energies[0]).all()
