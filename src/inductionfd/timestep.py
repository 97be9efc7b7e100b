"""Explicit Runge-Kutta time integration and the CFL step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid2D
from .induction import VelocityCoeffs


class InstabilityError(RuntimeError):
    """A step rejected by the energy bound of :func:`integrate`: ``step`` is
    that step, ``time`` its start time, ``last_state`` the last accepted state."""

    def __init__(self, message: str, step: int, time: float, last_state: np.ndarray):
        super().__init__(message)
        self.step = step
        self.time = time
        self.last_state = last_state


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-integration parameters: final time, step length and method.

    ``fixed_dt`` is the step length (``run_single`` passes the step
    :func:`compute_dt` gives for the scheme's Courant number); the final
    step is truncated so the integration lands exactly on ``t_final``.
    """

    t_final: float
    fixed_dt: float
    method: str = "rk2"

    def __post_init__(self) -> None:
        check_integrator(self.method)
        if not np.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final}")
        if not 0 < self.fixed_dt < np.inf:
            raise ValueError(f"fixed_dt must be positive and finite, got {self.fixed_dt}")


def compute_dt(grid: Grid2D, coeffs: VelocityCoeffs, courant: float) -> float:
    """Step dt = courant / (max|u1|/dx + max|u2|/dy) from the sampled speeds.

    ``courant`` is the advective Courant number of the step.  ``run_single``
    passes ``SchemeConfig.courant``, which is the scheme's cfl times its
    integrator's factor (up to 2), so the step returned here is the step
    taken.  It is not range-checked here; ``SchemeConfig`` validates the
    scheme's cfl.
    """
    u1, u2 = (np.max(speed) for speed in coeffs.held_speeds())
    denom = u1 / grid.dx + u2 / grid.dy
    if denom == 0.0:
        raise ValueError("velocity vanishes everywhere; no advective step exists")
    return courant / float(denom)


def rk2_step(v: np.ndarray, t: float, dt: float, rhs: Callable) -> np.ndarray:
    """One step of Heun's method (explicit trapezoid); stages at t and t + dt."""
    k1 = rhs(t, v)
    k2 = rhs(t + dt, v + dt * k1)
    return v + (0.5 * dt) * (k1 + k2)


def rk4_step(v: np.ndarray, t: float, dt: float, rhs: Callable) -> np.ndarray:
    """One step of the classical fourth-order Runge-Kutta method."""
    k1 = rhs(t, v)
    k2 = rhs(t + 0.5 * dt, v + (0.5 * dt) * k1)
    k3 = rhs(t + 0.5 * dt, v + (0.5 * dt) * k2)
    k4 = rhs(t + dt, v + dt * k3)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ssp32_step(v: np.ndarray, t: float, dt: float, rhs: Callable) -> np.ndarray:
    """One step of the optimal three-stage second-order SSP method,
    SSPRK(3,2), in Shu-Osher form with h = dt/2 (Ketcheson, SIAM J. Sci.
    Comput. 30, 2008); stages at t, t + dt/2 and t + dt, result
    v + (dt/3)(k1 + k2 + k3).

    Its stability polynomial 1/3 + (2/3)(1 + z/2)^3 contains the disk of
    radius 2 about z = -2, twice RK2's, which is what an upwind scheme's
    spectrum fills: three stages buy twice RK2's step.
    """
    h = 0.5 * dt
    u = v + h * rhs(t, v)
    u += h * rhs(t + h, u)
    u += h * rhs(t + dt, u)
    return (v + 2.0 * u) / 3.0


_STEPPERS = {"rk2": rk2_step, "rk4": rk4_step, "ssp32": ssp32_step}
METHODS = tuple(_STEPPERS)


def check_integrator(method: str) -> None:
    """The one check of an integrator name: one of ``METHODS``, or ValueError."""
    if method not in _STEPPERS:
        raise ValueError(f"unknown integrator {method!r}, expected one of {METHODS}")


def integrate(
    v0: np.ndarray,
    config: IntegratorConfig,
    rhs: Callable,
    *,
    t0: float = 0.0,
    hook: Callable | None = None,
    hook_every: int = 1,
    energy_bound: tuple[np.ndarray | float, float] = (1.0, np.finfo(float).max),
) -> tuple[np.ndarray, int]:
    """Advance ``v0`` from ``t0`` to ``config.t_final``; return (final state, steps taken).

    Steps have length ``config.fixed_dt``: step k runs from
    t_k = t0 + k*dt to t_{k+1} with length t_{k+1} - t_k, so its last stage
    time is exactly the next step's start time.  ``hook(step, t, v)`` is
    invoked at t0, every ``hook_every`` accepted steps, and at the final time.

    This is the one place that decides a run has blown up.  After every
    step, with ``energy_bound = (weights, limit)``, the new state v has the
    energy E = sum(weights * v**2); ``not E <= limit``, which nan and inf
    also satisfy, rejects the step with an InstabilityError whose message
    gives E / limit and the node of the largest |value|.  The default, unit
    weights and the largest float, catches overflow.
    """
    if config.t_final < t0:
        raise ValueError(f"t_final {config.t_final} lies before the start time {t0}")
    if hook_every < 1:
        raise ValueError(f"hook_every must be at least 1, got {hook_every}")
    v = np.array(v0, dtype=float, copy=True)
    if hook is not None:
        hook(0, t0, v)
    if config.t_final == t0:
        return v, 0

    dt = config.fixed_dt
    stepper = _STEPPERS[config.method]
    weights, limit = energy_bound

    n_steps = max(1, int(np.ceil((config.t_final - t0) / dt - 1e-12)))
    t = t0
    for k in range(n_steps):
        last = k == n_steps - 1
        t_next = config.t_final if last else t0 + (k + 1) * dt
        v_new = stepper(v, t, t_next - t, rhs)
        energy = np.vdot(v_new, weights * v_new)
        if not energy <= limit:
            node = np.unravel_index(np.argmax(np.abs(v_new)), v_new.shape)
            raise InstabilityError(
                f"integration went unstable at step {k + 1} (t={t!r}): energy "
                f"{energy:.6g} is {energy / limit:.4g} times the limit {limit:.6g}; "
                f"largest |value| {abs(v_new[node]):.6g} at node {tuple(map(int, node))}",
                step=k + 1, time=t, last_state=v)
        v = v_new
        t = t_next
        if hook is not None and ((k + 1) % hook_every == 0 or last):
            hook(k + 1, t, v)
    return v, n_steps
