"""Stability of each scheme at the step it takes.

The fully discrete run V_{n+1} = R(dt L) V_n is stable for an eigenvector
of L with eigenvalue lambda only when |R(dt lambda)| <= 1, where R is the
integrator's stability polynomial.  The eigenvalues come from the dense
oracle's operator (homogeneous boundary data) on 20^2 grids.  L is not
normal, so this is necessary, not sufficient; the long runs below check
the same schemes to t = 20, and a fine-grid run checks the margin the
small-grid spectrum overstates.
"""

from functools import lru_cache

import numpy as np
import pytest

from inductionfd import (
    InstabilityError,
    assemble,
    compute_dt,
    experiment3,
    get_experiment,
    run_single,
    scheme_config,
    study_config,
)

from dense_oracle import dense_rhs_matrix

N = 20
TOL = 1e-9

STABILITY_POLYNOMIALS = {
    "rk2": lambda z: 1.0 + z + z * z / 2.0,
    "rk4": lambda z: 1.0 + z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0,
    "ssp32": lambda z: 1.0 / 3.0 + (2.0 / 3.0) * (1.0 + z / 2.0) ** 3,
}


@lru_cache(maxsize=None)
def _spectrum(experiment: int, order: int, dissipation: str) -> np.ndarray:
    spec = get_experiment(experiment)
    scheme = scheme_config("sbp2" if order == 2 else "sbp4", dissipation=dissipation)
    setup = assemble(spec, scheme, N, N)
    matrix = dense_rhs_matrix(setup.grid, order, spec.velocity, scheme.theta,
                              dissipation, setup.coeffs.max_speed)
    return np.linalg.eigvals(matrix)


def _max_amplification(scheme, experiment: int) -> float:
    """max |R(dt lambda)| over the spectrum, at the step ``run_single`` takes."""
    setup = assemble(get_experiment(experiment), scheme, N, N)
    dt = compute_dt(setup.grid, setup.coeffs, scheme.courant)
    lam = _spectrum(experiment, scheme.order, scheme.dissipation)
    return float(np.abs(STABILITY_POLYNOMIALS[scheme.integrator](dt * lam)).max())


@pytest.mark.parametrize("experiment", [1, 2, 3])
@pytest.mark.parametrize("scheme", [
    scheme_config("sbp1"),
    scheme_config("sbp2"),
    scheme_config("sbp3"),
    scheme_config("sbp4"),
    study_config("sbp4"),
], ids=["sbp1", "sbp2", "sbp3", "sbp4", "sbp4-study"])
def test_registered_step_is_spectrally_stable(scheme, experiment):
    assert _max_amplification(scheme, experiment) <= 1.0 + TOL


@pytest.mark.parametrize("experiment", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dissipation", ["none", "accurate"])
def test_rk4_without_upwind_is_stable_at_twice_cfl_1(dissipation, order, experiment):
    """cfl = 1 is a Courant number of 2 here; the measured limits are 2.06
    and above, which is what lets these combinations take twice the step."""
    scheme = scheme_config("sbp2" if order == 2 else "sbp4", integrator="rk4",
                           dissipation=dissipation, cfl=1.0)
    assert scheme.courant == 2.0
    assert _max_amplification(scheme, experiment) <= 1.0 + TOL


@pytest.mark.parametrize("experiment", [1, 2, 3])
def test_ssp32_with_upwind_is_stable_at_twice_cfl_of_order_2(experiment):
    """``sbp1`` at its cfl 0.45 under SSPRK(3,2) is a Courant number of
    0.9, inside its measured limits of 1.115-1.125; with the registered
    ``sbp3`` this shows factor 2 on both orders."""
    scheme = scheme_config("sbp1", integrator="ssp32")
    assert scheme.courant == 0.9
    assert _max_amplification(scheme, experiment) <= 1.0 + TOL


def test_sbp3_fine_grid_margin():
    """At 160^2 the step blows up at a smaller Courant number (about 1.55)
    than the 20^2 and 40^2 spectra allow (1.7-2.1): the registered 1.4
    stays bounded on experiment 3, while 1.6 raises within t = 0.5."""
    _, record = run_single(assemble(experiment3(), scheme_config("sbp3"), 160, 160),
                           t_final=0.5)
    assert record.energy < 8.0
    scheme = scheme_config("sbp3", cfl=0.8)
    assert scheme.courant == 1.6
    with pytest.raises(InstabilityError) as excinfo:
        run_single(assemble(experiment3(), scheme, 160, 160), t_final=0.5)
    assert 0.0 < excinfo.value.time < 0.5


@pytest.mark.parametrize("scheme", [
    scheme_config("sbp3"), scheme_config("sbp4"), study_config("sbp4"),
    scheme_config("sbp1"),
], ids=["sbp3", "sbp4", "sbp4-study", "sbp1"])
def test_long_run_stays_bounded(scheme):
    """The translated step to t = 20 at 40^2: by then the inflow value 2
    fills the domain, so the exact P-energy is 8; an unstable mode would
    grow far beyond it (``run_single`` raises above 10 times)."""
    setup = assemble(experiment3(), scheme, 40, 40)
    field, record = run_single(setup, t_final=20.0)
    assert record.error_percent < 0.5
    assert record.energy == pytest.approx(8.0, rel=1e-4)
    assert np.abs(field.data - 2.0).max() < 0.01


def test_default_scheme_long_run_stays_bounded():
    """``sbp2`` under its registered RK4 step on the same run; under RK2 at
    cfl 0.45 it grew by up to 1.0035 per step and this run blew up."""
    field, record = run_single(assemble(experiment3(), scheme_config("sbp2"), 40, 40),
                               t_final=20.0)
    assert record.error_percent < 1.0
    assert record.energy == pytest.approx(8.0, rel=1e-4)
    assert np.abs(field.data - 2.0).max() < 0.05
