"""Tests for the explicit Runge-Kutta integrators and CFL step control."""

import tracemalloc

import numpy as np
import pytest

from inductionfd import (
    BoundaryData,
    Grid2D,
    InductionRhs,
    InstabilityError,
    IntegratorConfig,
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
    p_energy,
    sample_velocity,
    scheme_config,
    study_config,
    study_spec,
)
from inductionfd.timestep import METHODS, stage_times

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


def _fresh_step(method, v, t, dt, rhs):
    """One step of ``method`` in its formula's fresh-array expressions."""
    if method == "rk2":
        k1 = rhs(t, v)
        k2 = rhs(t + dt, v + dt * k1)
        return v + (0.5 * dt) * (k1 + k2)
    if method == "rk4":
        k1 = rhs(t, v)
        k2 = rhs(t + 0.5 * dt, v + (0.5 * dt) * k1)
        k3 = rhs(t + 0.5 * dt, v + (0.5 * dt) * k2)
        k4 = rhs(t + dt, v + dt * k3)
        return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    h = 0.5 * dt
    u = v + h * rhs(t, v)
    u += h * rhs(t + h, u)
    u += h * rhs(t + dt, u)
    return (v + 2.0 * u) / 3.0


class TestComputeDt:
    def test_formula(self):
        grid = Grid2D(0.0, 1.0, 0.0, 2.0, 11, 11)  # dx = 0.1, dy = 0.2
        op = build_sbp(2, 11)
        coeffs = sample_velocity(lambda x, y: (3.0, -4.0), grid, op, op)
        dt = compute_dt(grid, coeffs, courant=0.45)
        assert dt == pytest.approx(0.45 / (3.0 / 0.1 + 4.0 / 0.2))

    def test_zero_velocity_rejected(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
        op = build_sbp(2, 5)
        coeffs = sample_velocity(lambda x, y: (0.0, 0.0), grid, op, op)
        with pytest.raises(ValueError, match="vanishes"):
            compute_dt(grid, coeffs, 1.0)

    def test_speeds_reduced_at_their_rank(self):
        """``max_speed`` and ``compute_dt`` read only the values the
        rotation's speeds hold, a row and a column: at 320² the peak
        allocation of each call stays below one plane (819 200 B), and the
        results equal the reductions of the full planes, bit for bit."""
        spec = experiment1()
        grid, op = spec.make_grid(320, 320), build_sbp(4, 320)
        coeffs = sample_velocity(spec.velocity, grid, op, op)
        lam_x, lam_y = (np.abs(np.array(lam)) for lam in (coeffs.lam_x, coeffs.lam_y))
        want = (float(np.max(lam_x + lam_y)),
                0.9 / float(np.max(lam_x) / grid.dx + np.max(lam_y) / grid.dy))
        for call, value in zip((lambda: coeffs.max_speed,
                                lambda: compute_dt(grid, coeffs, 0.9)), want):
            tracemalloc.start()
            try:
                got = call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == value
            assert peak < 8 * 320 * 320


class TestConfig:
    def test_defaults(self):
        config = IntegratorConfig(t_final=1.0, fixed_dt=0.1)
        assert config.method == "rk2" and config.fixed_dt == 0.1

    # the ids are those of the cases the suite reported when the config
    # also checked t_final and cfl
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            pytest.param(dict(t_final=1.0, fixed_dt=0.1, method="euler"),
                         "unknown integrator", id="kwargs0-unknown method"),
            pytest.param(dict(t_final=1.0, fixed_dt=0.0), "fixed_dt",
                         id="kwargs3-fixed_dt"),
            pytest.param(dict(t_final=1.0, fixed_dt=np.nan), "fixed_dt",
                         id="nan-fixed_dt"),
            pytest.param(dict(t_final=1.0, fixed_dt=np.inf), "fixed_dt",
                         id="inf-fixed_dt"),
            pytest.param(dict(t_final=np.nan, fixed_dt=0.1), "t_final",
                         id="nan-t_final"),
            pytest.param(dict(t_final=np.inf, fixed_dt=0.1), "t_final",
                         id="inf-t_final"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            IntegratorConfig(**kwargs)


class TestSteppers:
    """Each method, stepped by ``integrate`` on a plain ``rhs(t, v)``."""

    def test_heun_exact_on_affine_forcing(self):
        """Heun is the trapezoid rule: exact for dV/dt = a + b t."""
        a, b = 1.25, -0.75

        def rhs(t, v):
            return a + b * t + 0.0 * v

        v = np.array([2.0])
        t, dt = 0.3, 0.17
        got, steps = integrate(v, IntegratorConfig(t + dt, dt, "rk2"), rhs, t0=t)
        want = v + a * dt + b * (t * dt + dt**2 / 2.0)
        assert steps == 1
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_ssp32_exact_on_affine_forcing(self):
        """SSPRK(3,2) weights its stages at t, t + dt/2 and t + dt by dt/3
        each, which integrates dV/dt = a + b t exactly."""
        a, b = 1.25, -0.75

        def rhs(t, v):
            return a + b * t + 0.0 * v

        v = np.array([2.0])
        t, dt = 0.3, 0.17
        got, steps = integrate(v, IntegratorConfig(t + dt, dt, "ssp32"), rhs, t0=t)
        want = v + a * dt + b * (t * dt + dt**2 / 2.0)
        assert steps == 1
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_rk4_exact_on_cubic_forcing(self):
        """The classical RK4 quadrature is Simpson's rule: exact for t^3."""

        def rhs(t, v):
            return np.full_like(v, t**3)

        got, steps = integrate(np.zeros(2), IntegratorConfig(1.0, 1.0, "rk4"), rhs)
        assert steps == 1
        np.testing.assert_allclose(got, 0.25, rtol=1e-14)

    # the ids are those of the cases the suite reported when the test
    # called the steppers themselves
    @pytest.mark.parametrize("method, expected_order", [
        pytest.param("rk2", 2, id="rk2_step-2"),
        pytest.param("rk4", 4, id="rk4_step-4"),
        pytest.param("ssp32", 2, id="ssp32_step-2"),
    ])
    def test_order_of_accuracy(self, method, expected_order):
        """Error against exp(M t) over a run from t0 = 0.2 shrinks at the
        advertised order."""
        _, m = _linear_system()
        rng = np.random.default_rng(41)
        v0 = rng.standard_normal(m.shape[0])

        def rhs(t, v):
            return m @ v

        errs = []
        for dt in (0.02, 0.01):
            config = IntegratorConfig(t_final=0.6, fixed_dt=dt, method=method)
            v, steps = integrate(v0, config, rhs, t0=0.2)
            assert steps == round(0.4 / dt)
            errs.append(np.linalg.norm(v - _expm_apply(m, 0.4, v0)))
        rate = np.log2(errs[0] / errs[1])
        assert abs(rate - expected_order) < 0.3


class TestRegisters:
    """``integrate`` steps in three registers it reuses for the whole run,
    with the bits of each method's formula on fresh arrays."""

    @pytest.mark.parametrize("plain", [False, True], ids=["rhs", "lambda"])
    @pytest.mark.parametrize("spec, scheme", [
        pytest.param(study_spec(experiment2()), study_config("sbp4"), id="exp2-sbp4"),
        pytest.param(experiment3(), scheme_config("sbp1"), id="exp3-sbp1"),
    ])
    @pytest.mark.parametrize("method", METHODS)
    def test_steps_equal_fresh_array_formulas_bitwise(self, method, spec, scheme, plain):
        """12 steps of ``integrate`` on a 20² run, with the run's
        ``InductionRhs`` and with a plain callable around it, give byte for
        byte the state of the same steps in fresh-array expressions; a
        stage update or combination in another order changes the bytes."""
        setup = assemble(spec, scheme, 20, 20)
        dt = compute_dt(setup.grid, setup.coeffs, setup.scheme.courant)
        rhs = (lambda t, v: setup.rhs(t, v)) if plain else setup.rhs
        got, steps = integrate(setup.v0.data, IntegratorConfig(12 * dt, dt, method), rhs)
        want = setup.v0.data
        for k in range(12):
            want = _fresh_step(method, want, k * dt, (k + 1) * dt - k * dt, setup.rhs)
        assert steps == 12
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method", METHODS)
    def test_rhs_writes_into_at_most_three_buffers(self, monkeypatch, method):
        """Over 20 steps every RHS call writes into a buffer it is handed,
        of at most three, none of them the caller's ``v0``."""
        setup = assemble(experiment3(), scheme_config("sbp1"), 20, 20)
        outs = []
        call = InductionRhs.__call__

        def spy(self, t, v, out=None):
            assert out is not None
            outs.append(out.__array_interface__["data"][0])
            return call(self, t, v, out)

        monkeypatch.setattr(InductionRhs, "__call__", spy)
        v0 = setup.v0.data
        dt = compute_dt(setup.grid, setup.coeffs, setup.scheme.courant)
        _, steps = integrate(v0, IntegratorConfig(20 * dt, dt, method), setup.rhs)
        assert steps == 20
        assert len(outs) == 20 * len(stage_times(method, 0.0, 1.0))
        assert len(set(outs)) <= 3
        assert v0.__array_interface__["data"][0] not in outs


class TestStageTimes:
    """One helper gives a step's stage times, to the steppers and to the
    plan that ``integrate`` hands to an ``InductionRhs``."""

    @pytest.mark.parametrize("method", METHODS)
    def test_steppers_call_the_rhs_at_stage_times(self, method):
        """One step of ``integrate`` from 0.3 calls a plain callable at
        the step's stage times, the last one ``t_final``."""
        seen = []

        def rhs(t, v):
            seen.append(t)
            return -v

        config = IntegratorConfig(t_final=0.3 + 0.07, fixed_dt=0.07, method=method)
        _, steps = integrate(np.ones((2, 3, 3)), config, rhs, t0=0.3)
        assert steps == 1
        assert seen == list(stage_times(method, 0.3, config.t_final - 0.3))
        assert seen[0] == 0.3 and seen[-1] == 0.3 + 0.07

    @pytest.mark.parametrize("method", METHODS)
    def test_plan_is_the_distinct_call_times_of_the_run(self, monkeypatch, method):
        """The times handed to the RHS are the times it is called at, in
        order, less a time equal to the one before it; the last is
        ``t_final``."""
        setup = assemble(study_spec(experiment2()), study_config("sbp4"), 10, 10)
        plans, seen = [], []
        expect, call = InductionRhs.expect_times, InductionRhs.__call__

        def spy_expect(self, times):
            plans.append(times := list(times))
            expect(self, times)

        def spy_call(self, t, v, out=None):
            seen.append(t)
            return call(self, t, v, out)

        monkeypatch.setattr(InductionRhs, "expect_times", spy_expect)
        monkeypatch.setattr(InductionRhs, "__call__", spy_call)
        config = IntegratorConfig(t_final=0.5, fixed_dt=0.03, method=method)
        _, steps = integrate(setup.v0.data, config, setup.rhs, t0=0.1)
        distinct = [t for k, t in enumerate(seen) if k == 0 or t != seen[k - 1]]
        assert plans == [distinct] and distinct[-1] == 0.5
        assert len(distinct) == (1 if method == "rk2" else 2) * steps + 1


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
        config = IntegratorConfig(t_final=-1.0, fixed_dt=0.1)
        with pytest.raises(ValueError, match="before the start time"):
            integrate(np.zeros(1), config, lambda t, v: v)

    def test_hook_cadence_and_final_call(self):
        steps = []
        config = IntegratorConfig(t_final=0.5, fixed_dt=0.1)
        integrate(
            np.zeros(1), config, lambda t, v: np.zeros_like(v),
            hook=lambda k, t, v: steps.append(k), hook_every=2,
        )
        assert steps == [0, 2, 4, 5]

    def test_hook_every_below_one_rejected(self):
        """Rejected before the first hook call and the first step."""
        calls = []
        config = IntegratorConfig(t_final=0.5, fixed_dt=0.1)
        for every in (0, -1):
            with pytest.raises(ValueError, match="hook_every"):
                integrate(np.zeros(1), config, lambda t, v: calls.append(t) or v,
                          hook=lambda k, t, v: calls.append(k), hook_every=every)
        assert calls == []

    def test_instability_reports_step_and_last_state(self):
        v0 = np.array([1.0])
        for method in METHODS:
            for t0 in (0.0, 4.0 * np.pi):
                config = IntegratorConfig(t_final=t0 + 10.0, fixed_dt=1.0, method=method)
                with pytest.raises(InstabilityError) as excinfo, \
                        np.errstate(over="ignore", invalid="ignore"):
                    integrate(v0, config, lambda t, v: v * 1e160, t0=t0)
                err = excinfo.value
                assert err.step == 1
                assert err.time == t0
                np.testing.assert_array_equal(err.last_state, v0)

    @pytest.mark.parametrize("method", METHODS)
    def test_late_instability_keeps_the_last_hook_state(self, method):
        """dV/dt = V under an energy limit between those of steps 4 and 5:
        step 5 is rejected, and ``last_state`` is bitwise the state the
        hook was handed at step 4 and copied, so the registers the steps
        rotate through never write into the last accepted state."""
        v0 = np.random.default_rng(5).standard_normal((2, 4, 3))
        config = IntegratorConfig(t_final=4.0, fixed_dt=0.5, method=method)
        energies = []
        integrate(v0, config, lambda t, v: v,
                  hook=lambda k, t, v: energies.append(np.vdot(v, v)))
        seen = []
        with pytest.raises(InstabilityError) as excinfo:
            integrate(v0, config, lambda t, v: v, hook=lambda k, t, v: seen.append(v.copy()),
                      energy_bound=(1.0, 0.5 * (energies[4] + energies[5])))
        err = excinfo.value
        assert (err.step, err.time) == (5, 2.0)
        assert len(seen) == 5
        assert err.last_state.tobytes() == seen[4].tobytes()

    def test_stage_overflow_becomes_instability(self):
        """A step whose stages overflow is an instability of the run,
        reported with its step, time and last accepted state: bitwise the
        state the hook was handed, and copied, one step earlier."""
        setup = assemble(experiment3(), scheme_config("sbp1"), 40, 40)
        for method in METHODS:
            config = IntegratorConfig(t_final=50.0, fixed_dt=0.05, method=method)
            seen = []
            with pytest.raises(InstabilityError) as excinfo, \
                    np.errstate(over="ignore", invalid="ignore"):
                integrate(setup.v0.data, config, setup.rhs,
                          hook=lambda k, t, v: seen.append(v.copy()))
            err = excinfo.value
            assert err.step is not None and err.step >= 4
            assert err.time == pytest.approx((err.step - 1) * 0.05)
            assert len(seen) == err.step
            assert err.last_state.tobytes() == seen[-1].tobytes()
            assert np.isfinite(err.last_state).all()

    def test_energy_bound_rejects_first_step_above_limit(self):
        """dV/dt = V grows by r = 1 + dt + dt^2/2 per Heun step, so the
        weighted energy 2 r^(2k) first exceeds 20 at step 3, where it is
        36.8, 1.841 times the limit; the hook never sees that state."""
        r = 1.625  # dt = 0.5
        seen = []
        config = IntegratorConfig(t_final=5.0, fixed_dt=0.5)
        with pytest.raises(InstabilityError, match=r"1\.841 times the limit 20;.* "
                           r"at node \(0,\)") as excinfo:
            integrate(np.array([1.0, 0.0]), config, lambda t, v: v,
                      hook=lambda k, t, v: seen.append(k),
                      energy_bound=(np.array([2.0, 1.0]), 20.0))
        err = excinfo.value
        assert (err.step, err.time) == (3, 1.0)
        np.testing.assert_allclose(err.last_state, [r * r, 0.0], rtol=1e-15)
        assert seen == [0, 1, 2]

    @pytest.mark.parametrize("plain", [True, False], ids=["lambda", "exp2-rhs"])
    def test_steps_are_generated_as_taken(self, plain):
        """A run of 10^6 steps allocates under 1 MiB up to its second step,
        with a plain callable and with the assembled experiment 2 RHS that
        is handed the run's stage times: neither the steps nor the plan is
        built whole, which would take about 100 MB."""

        class Stop(Exception):
            pass

        def hook(k, t, v):
            if k == 2:
                raise Stop

        setup = assemble(study_spec(experiment2()), study_config("sbp2"), 10, 10)
        rhs = (lambda t, v: -v) if plain else setup.rhs
        config = IntegratorConfig(t_final=1.0, fixed_dt=1e-6, method="rk4")
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                integrate(setup.v0.data, config, rhs, hook=hook)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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
        xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
        v0 = np.stack([
            np.sin(2.0 * np.pi * xx) * yy, np.cos(np.pi * xx * yy),
        ])

        def rhs(t, v):
            return compute_rhs(v, t, grid, coeffs, bdata, sat, op, op, diss, diss)

        energies = []
        config = IntegratorConfig(t_final=0.5, method="rk2",
                                  fixed_dt=compute_dt(grid, coeffs, 0.45))
        integrate(
            v0, config, rhs,
            hook=lambda k, t, v: energies.append(p_energy(v, grid, op, op)),
        )
        diffs = np.diff(energies)
        assert (diffs <= 1e-14 * energies[0]).all()
