"""Explicit Runge-Kutta time integration with CFL-based step control."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid2D
from .induction import NonFiniteStateError, VelocityCoeffs

METHODS = ("rk2", "rk4")


class InstabilityError(RuntimeError):
    """Raised when a run blows up: its state stops being finite during
    integration, or its final error or P-energy is not finite."""

    def __init__(self, message: str, step: int | None = None, time: float | None = None,
                 last_state: np.ndarray | None = None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.last_state = last_state


@dataclass(frozen=True)
class IntegratorConfig:
    """Time-integration parameters.

    ``fixed_dt`` overrides the CFL-based step when set.  The final step is
    always truncated so the integration lands exactly on ``t_final``.
    """

    t_final: float
    method: str = "rk2"
    cfl: float = 0.45
    fixed_dt: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be nonnegative, got {self.t_final}")
        if self.fixed_dt is None and not (0 < self.cfl <= 1):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.fixed_dt is not None and self.fixed_dt <= 0:
            raise ValueError(f"fixed_dt must be positive, got {self.fixed_dt}")


def compute_dt(grid: Grid2D, coeffs: VelocityCoeffs, cfl: float = 0.45) -> float:
    """CFL step dt = cfl / (max|u1|/dx + max|u2|/dy) from the sampled speeds."""
    if not (0 < cfl <= 1):
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    denom = (
        np.max(np.abs(coeffs.lam_x)) / grid.dx + np.max(np.abs(coeffs.lam_y)) / grid.dy
    )
    if denom == 0.0:
        raise ValueError("velocity vanishes everywhere; use a fixed_dt instead of a CFL")
    return cfl / float(denom)


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


_STEPPERS = {"rk2": rk2_step, "rk4": rk4_step}


def integrate(
    v0: np.ndarray,
    config: IntegratorConfig,
    rhs: Callable,
    *,
    t0: float = 0.0,
    grid: Grid2D | None = None,
    coeffs: VelocityCoeffs | None = None,
    hook: Callable | None = None,
    hook_every: int = 1,
) -> tuple[np.ndarray, list]:
    """Advance ``v0`` from ``t0`` to ``config.t_final``; return (final state, hook records).

    The step size is ``config.fixed_dt`` if given, otherwise the CFL step
    computed from ``grid`` and ``coeffs``; step k starts at t0 + k*dt.
    ``hook(step, t, v)`` is invoked at t0, every ``hook_every`` accepted
    steps, and at the final time; its return values are collected.  A
    non-finite state, after a step or inside one of its stages, aborts with
    an InstabilityError carrying the step index, its start time and the
    last finite state.
    """
    if config.t_final < t0:
        raise ValueError(f"t_final {config.t_final} lies before the start time {t0}")
    records: list = []
    v = np.array(v0, dtype=float, copy=True)
    if hook is not None:
        records.append(hook(0, t0, v))
    if config.t_final == t0:
        return v, records

    if config.fixed_dt is not None:
        dt_base = config.fixed_dt
    else:
        if grid is None or coeffs is None:
            raise ValueError("CFL-based stepping needs grid and coeffs")
        dt_base = compute_dt(grid, coeffs, config.cfl)
    stepper = _STEPPERS[config.method]

    n_steps = max(1, int(np.ceil((config.t_final - t0) / dt_base - 1e-12)))
    for k in range(n_steps):
        t = t0 + k * dt_base
        last = k == n_steps - 1
        dt = config.t_final - t if last else dt_base
        try:
            v_new = stepper(v, t, dt, rhs)
            finite = np.isfinite(v_new).all()
        except NonFiniteStateError:  # a stage overflowed inside compute_rhs
            finite = False
        if not finite:
            raise InstabilityError(f"integration went unstable at step {k + 1} (t={t!r})",
                                   step=k + 1, time=t, last_state=v)
        v = v_new
        if hook is not None and ((k + 1) % hook_every == 0 or last):
            t_next = config.t_final if last else t0 + (k + 1) * dt_base
            records.append(hook(k + 1, t_next, v))
    return v, records
