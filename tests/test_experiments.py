"""Tests for the benchmark problems and study harnesses."""

from dataclasses import replace

import numpy as np
import pytest

from inductionfd import (
    InstabilityError,
    assemble,
    build_sbp,
    discrete_divergence,
    experiment1,
    experiment2,
    experiment3,
    get_experiment,
    p_energy,
    run_convergence_study,
    run_long_time,
    run_single,
    scheme_config,
    study_config,
    study_spec,
)
from inductionfd import experiments
from inductionfd.experiments import SCHEMES, SchemeConfig, _hump, _rotated_hump


class TestExactSolutions:
    def test_rotation_starts_from_initial_data(self):
        spec = experiment1()
        x = np.linspace(-1.0, 1.0, 7)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        b0 = spec.initial(xx, yy)
        bt = spec.exact(xx, yy, 0.0)
        np.testing.assert_allclose(bt, b0, atol=1e-15)

    def test_rotation_has_period_two_pi(self):
        spec = experiment1()
        x = np.linspace(-1.0, 1.0, 9)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        np.testing.assert_allclose(
            spec.exact(xx, yy, 2.0 * np.pi), spec.initial(xx, yy), atol=1e-13
        )

    def test_half_rotation_mirrors_the_hump(self):
        """At t = pi the field is the negated hump at the mirrored point."""
        x = np.linspace(-1.0, 1.0, 11)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        b1, b2 = _rotated_hump(xx, yy, np.pi)
        e1, e2 = _hump(-xx, -yy)
        np.testing.assert_allclose(b1, -e1, atol=1e-13)
        np.testing.assert_allclose(b2, -e2, atol=1e-13)

    def test_hump_is_divergence_free(self):
        """div B0 = 0 analytically, so the discrete divergence is pure
        truncation error: tiny in the interior and shrinking under
        refinement where the boundary closure dominates the max."""
        spec = experiment1()
        maxima, interior = [], []
        for n in (64, 128):
            grid = spec.make_grid(n, n)
            op = build_sbp(4, n)
            xx, yy = grid.meshgrid()
            div = discrete_divergence(np.stack(_hump(xx, yy)), grid, op, op)
            maxima.append(np.abs(div).max())
            interior.append(np.abs(div[8:-8, 8:-8]).max())
        assert maxima[0] < 0.02
        assert maxima[0] / maxima[1] > 3.5
        assert interior[0] / interior[1] > 12.0

    def test_hump_magnitude_peaks_on_ring(self):
        """|B0| = 4 r exp(-20 r^2) peaks at r = 1/sqrt(40) around (1/2, 0)."""
        r = 1.0 / np.sqrt(40.0)
        b1, b2 = _hump(0.5 + r, 0.0)
        peak = np.hypot(b1, b2)
        assert peak == pytest.approx(4.0 * r * np.exp(-0.5), rel=1e-12)
        b1, b2 = _hump(0.5 + 2.0 * r, 0.0)
        assert np.hypot(b1, b2) < peak

    def test_translated_step(self):
        spec = experiment3()
        assert spec.exact(0.6, 0.95, 0.25)[0] == 0.0  # x-t=0.35 <= y-2t=0.45
        x, y, t = np.array([0.9]), np.array([0.2]), 0.25
        b1, b2 = spec.exact(x, y, t)  # 0.65 > -0.3
        assert b1[0] == 2.0 and b2[0] == 2.0
        b1, b2 = spec.exact(np.array([0.1]), np.array([0.9]), 0.0)
        assert b1[0] == 0.0


class TestSpecs:
    def test_experiment1_defaults(self):
        spec = experiment1()
        assert (spec.xmin, spec.xmax, spec.ymin, spec.ymax) == (-1, 1, -1, 1)
        assert spec.boundary_mode == "zero"
        assert spec.t_final == pytest.approx(2.0 * np.pi)
        assert spec.grids == (40, 80, 160, 320, 640)
        assert spec.divergence_free

    def test_experiment2_defaults(self):
        spec = experiment2()
        assert (spec.xmin, spec.xmax) == (0, 1)
        assert spec.boundary_mode == "exact"
        assert spec.grids == (10, 20, 40, 80, 160)

    def test_experiment3_defaults(self):
        spec = experiment3()
        assert spec.t_final == 0.5
        assert spec.grids == (100,)
        assert not spec.divergence_free
        u1, u2 = spec.velocity(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(u1, 1.0)
        np.testing.assert_array_equal(u2, 2.0)

    def test_get_experiment(self):
        assert get_experiment(1).id == 1
        assert get_experiment(3).id == 3
        with pytest.raises(ValueError, match="unknown experiment"):
            get_experiment(4)


class TestSchemeRegistry:
    @pytest.mark.parametrize(
        "name, order, dissipation",
        [("sbp1", 2, "upwind"), ("sbp2", 2, "none"),
         ("sbp3", 4, "upwind"), ("sbp4", 4, "none")],
    )
    def test_registered_schemes(self, name, order, dissipation):
        scheme = scheme_config(name)
        assert scheme.order == order
        assert scheme.dissipation == dissipation
        if name == "sbp4":
            assert scheme.cfl == 0.9 and scheme.integrator == "rk4"
        else:
            assert scheme.cfl == 0.45 and scheme.integrator == "rk2"

    def test_overrides(self):
        scheme = scheme_config("sbp2", cfl=0.3, theta=0.5)
        assert scheme.cfl == 0.3 and scheme.theta == 0.5
        assert SCHEMES["sbp2"].cfl == 0.45

    def test_unknown_scheme_lists_options(self):
        with pytest.raises(ValueError, match="sbp1.*sbp2.*sbp3.*sbp4"):
            scheme_config("sbp9")

    def test_dissipation_mode_validated(self):
        with pytest.raises(ValueError, match="dissipation mode"):
            SchemeConfig("bad", order=2, dissipation="hyper")


class TestStudyVariants:
    def test_plain_order4_gets_safety_damping(self):
        """The study variant damps sbp4 with one accurate-scaled term."""
        scheme = study_config("sbp4")
        assert scheme == replace(scheme_config("sbp4"), dissipation="accurate")
        setup = assemble(experiment2(), scheme, 12, 12)
        assert setup.diss_x.scaling == setup.diss_y.scaling == "accurate"
        assert setup.diss_x.alpha == pytest.approx(setup.coeffs.max_speed)

    @pytest.mark.parametrize("name", ["sbp1", "sbp2", "sbp3"])
    def test_other_schemes_unchanged(self, name):
        assert study_config(name) == scheme_config(name)

    def test_study_spec_uses_exact_trace_for_experiment1(self):
        spec = study_spec(experiment1())
        assert spec.boundary_mode == "exact"
        assert spec.id == 1 and spec.t_final == experiment1().t_final

    def test_study_spec_leaves_others_alone(self):
        for spec in (experiment2(), experiment3()):
            assert study_spec(spec) is spec


class TestAssemble:
    def test_minimum_grid_enforced(self):
        with pytest.raises(ValueError, match="at least 3"):
            assemble(experiment1(), scheme_config("sbp2"), 2, 12)
        with pytest.raises(ValueError,
                           match="order-4 operator needs at least 8 points, got 7"):
            assemble(experiment1(), scheme_config("sbp4"), 12, 7)
        # the smallest legal order-4 grid assembles, dissipation included
        assert assemble(experiment1(), scheme_config("sbp3"), 8, 8).diss_x.n == 8

    def test_alpha_defaults_to_max_speed(self):
        setup = assemble(experiment3(), scheme_config("sbp1"), 12, 12)
        assert setup.diss_x.alpha == pytest.approx(3.0)  # |u1| + |u2| = 3

    def test_dissipation_override(self):
        setup = assemble(experiment1(), scheme_config("sbp2", dissipation="upwind"),
                         12, 12)
        assert setup.diss_x.scaling == setup.diss_y.scaling == "upwind"
        setup = assemble(experiment1(), scheme_config("sbp1", dissipation="none"),
                         12, 12)
        assert setup.diss_x is None and setup.diss_y is None

    def test_boundary_mode_follows_spec(self):
        assert assemble(experiment1(), scheme_config("sbp2"), 12, 12).bdata.mode == "zero"
        assert assemble(experiment2(), scheme_config("sbp2"), 12, 12).bdata.mode == "exact"

    def test_rectangular_grid(self):
        setup = assemble(experiment1(), scheme_config("sbp2"), 11, 17)
        assert setup.grid.shape == (11, 17)
        assert setup.op_x.n == 11 and setup.op_y.n == 17
        assert setup.v0.data.shape == (2, 11, 17)


class TestRunHarnesses:
    def test_short_run_record_fields(self):
        setup = assemble(experiment1(), scheme_config("sbp2"), 12, 12)
        field, record = run_single(setup, t_final=0.1)
        assert field.data.shape == (2, 12, 12)
        assert np.isfinite(field.data).all()
        assert record.grid_label == "12x12" and record.time == 0.1
        assert not record.failed
        assert np.isfinite([record.error_percent, record.div_l2, record.energy]).all()
        assert record.error_percent > 0.0 and record.energy > 0.0

    def test_unstable_run_becomes_failed_row(self):
        """An instability mid-study is recorded and the study continues."""
        scheme = scheme_config("sbp4", cfl=1.0, integrator="rk2")
        with np.errstate(over="ignore"):
            results = run_convergence_study(
                experiment3(), [scheme], grids=(10, 100), t_final=0.5
            )
        rows = results["sbp4"]
        assert len(rows) == 2
        assert not rows[0].failed and np.isfinite(rows[0].error_percent)
        assert rows[1].failed and np.isnan(rows[1].error_percent)

    def test_stage_overflow_becomes_failed_row(self):
        """At CFL 1 the upwind order-2 scheme overflows inside an RK stage;
        each grid is a failed row and the study goes on to the next."""
        scheme = scheme_config("sbp1", cfl=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            results = run_convergence_study(
                experiment3(), [scheme], grids=(10, 20), t_final=50.0
            )
        rows = results["sbp1"]
        assert [r.failed for r in rows] == [True, True]
        assert all(0.0 < r.time < 50.0 for r in rows)

    def test_overflowing_end_state_becomes_failed_row(self):
        """Without dissipation at CFL 0.8 under rk2 the order-4 scheme ends the
        run with finite values whose error and P-energy overflow at 40^2; at
        30^2 they stay finite (error 1.5e139 percent) but the P-energy is far
        beyond its limit.  run_single reports both as instabilities, so the
        study records two failed rows."""
        scheme = scheme_config("sbp4", cfl=0.8, dissipation="none", integrator="rk2")
        with np.errstate(over="ignore"):
            with pytest.raises(InstabilityError, match="inf") as excinfo:
                run_single(assemble(experiment3(), scheme, 40, 40), t_final=20.0)
            results = run_convergence_study(
                experiment3(), [scheme], grids=(30, 40), t_final=20.0
            )
        err = excinfo.value
        assert err.time == 20.0 and np.isfinite(err.last_state).all()
        rows = results["sbp4"]
        assert [r.failed for r in rows] == [True, True]
        assert [r.time for r in rows] == [20.0, 20.0]

    def test_finite_blow_up_raises(self):
        """A run that ends finite but far above the energy limit has blown up."""
        scheme = scheme_config("sbp4", cfl=0.8, dissipation="none", integrator="rk2")
        setup = assemble(experiment3(), scheme, 30, 30)
        with np.errstate(over="ignore"), \
                pytest.raises(InstabilityError, match="times the larger") as excinfo:
            run_single(setup, t_final=20.0)
        err = excinfo.value
        assert err.time == 20.0 and np.isfinite(err.last_state).all()
        assert p_energy(err.last_state, setup.grid, setup.op_x, setup.op_y) > 1e200

    def test_energy_limit_scales_the_reference_energy(self, monkeypatch):
        """A regular run passes, and fails once the limit is below its ratio
        of final to reference P-energy (at most 1 without inflow data)."""
        setup = assemble(experiment1(), scheme_config("sbp2"), 12, 12)
        run_single(setup, t_final=0.1)
        monkeypatch.setattr(experiments, "ENERGY_LIMIT", 0.5)
        with pytest.raises(InstabilityError, match=r"limit 0\.5"):
            run_single(setup, t_final=0.1)

    def test_long_time_records_each_rotation(self):
        records = run_long_time(experiment1(), scheme_config("sbp2"), 20, 20, 2)
        assert len(records) == 3
        np.testing.assert_allclose(
            [r.time for r in records], [0.0, 2.0 * np.pi, 4.0 * np.pi]
        )
        assert records[0].error_percent == 0.0
        assert records[1].error_percent > 0.0

    def test_long_time_blow_up_raises_at_absolute_time(self):
        """Without dissipation at CFL 0.6 under rk2 the order-4 scheme on 10^2
        ends the first rotation with 1.2 times its reference P-energy and the
        second with thousands of times; every rotation is one run_single, so
        the long-time run raises at t = 4 pi."""
        scheme = scheme_config("sbp4", cfl=0.6, dissipation="none", integrator="rk2")
        with np.errstate(over="ignore"), pytest.raises(InstabilityError) as excinfo:
            run_long_time(experiment3(), scheme, 10, 10, 3)
        err = excinfo.value
        assert err.time == 4.0 * np.pi
        assert np.isfinite(err.last_state).all()

    def test_later_start_reports_absolute_time(self):
        """A run started at t0 reports a stage overflow at its absolute time."""
        setup = assemble(experiment3(), scheme_config("sbp1", cfl=1.0), 10, 10)
        t0 = 4.0 * np.pi
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(InstabilityError) as excinfo:
            run_single(setup, t0=t0, t_final=t0 + 50.0)
        assert t0 < excinfo.value.time < t0 + 50.0

    def test_negative_rotations_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            run_long_time(experiment1(), scheme_config("sbp2"), 20, 20, -1)

    def test_study_uses_spec_grids_by_default(self):
        results = run_convergence_study(
            experiment3(), [scheme_config("sbp1")], t_final=0.02
        )
        assert [r.grid_label for r in results["sbp1"]] == ["100x100"]
