"""Energy, divergence and error diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid2D
from .sbp import SbpOperator1D, apply_dx, apply_dy


@dataclass(frozen=True)
class ErrorRecord:
    """One row of a convergence or long-time table."""

    grid_label: str
    error_percent: float
    div_l2: float
    energy: float
    time: float
    failed: bool = False


def p_weights(grid: Grid2D, op_x: SbpOperator1D, op_y: SbpOperator1D) -> np.ndarray:
    """Diagonal P-norm weights (dx p_x) outer (dy p_y) of a node, shape (npx, npy)."""
    return np.outer(grid.dx * op_x.p, grid.dy * op_y.p)


def p_energy(v: np.ndarray, grid: Grid2D, op_x: SbpOperator1D, op_y: SbpOperator1D) -> float:
    """Discrete energy ||V||^2 in the P norm, summed over both components.

    Computes V^T (I_2 x P_x x P_y) V with the weights of :func:`p_weights`,
    the energy that ``integrate`` bounds after every step of a run.  The
    squares of both components are added per node, weighted, and summed
    by numpy's pairwise ``np.sum``, so the value does not depend on the
    BLAS thread count, as ``np.vdot``'s does.
    """
    if v.shape != (2, grid.npx, grid.npy):
        raise ValueError(f"state must have shape (2, {grid.npx}, {grid.npy}), got {v.shape}")
    squares = np.square(v)
    plane = np.add(squares[0], squares[1], out=squares[0])
    plane *= p_weights(grid, op_x, op_y)
    return float(np.sum(plane))


def discrete_divergence(
    v: np.ndarray, grid: Grid2D, op_x: SbpOperator1D, op_y: SbpOperator1D
) -> np.ndarray:
    """Discrete divergence D_x V1 + D_y V2, shape (npx, npy)."""
    return apply_dx(op_x, v[0], grid) + apply_dy(op_y, v[1], grid)


def l2_norm(field: np.ndarray, grid: Grid2D) -> float:
    """Uniformly weighted l2 norm sqrt(dx*dy*sum(field^2)) of a scalar grid."""
    return float(np.sqrt(grid.dx * grid.dy * np.sum(field * field)))


def rel_percent_error(
    v: np.ndarray, exact: Callable, t: float, grid: Grid2D
) -> float:
    """Relative l2 error of the field magnitude |B|, in percent.

    ``exact`` is an elementwise callable (X, Y, t) -> (B1, B2), called on
    the open mesh X = x[:, None], Y = y[None, :].  Both the numerical and
    exact magnitudes are measured in the uniformly weighted l2 norm, whose
    scaling cancels in the ratio.
    """
    e1, e2 = exact(grid.x[:, None], grid.y[None, :], t)
    return percent_error(v, (np.broadcast_to(e1, grid.shape), np.broadcast_to(e2, grid.shape)))


def percent_error(v: np.ndarray, exact) -> float:
    """:func:`rel_percent_error` against the exact field already sampled at
    the nodes: ``exact`` holds (B1, B2), each of shape (npx, npy)."""
    mag_exact = np.hypot(exact[0], exact[1])
    denom = np.sqrt(np.sum(mag_exact * mag_exact))
    if denom == 0.0:
        raise ValueError("exact solution is identically zero; relative error undefined")
    mag_num = np.hypot(v[0], v[1])
    diff = mag_num - mag_exact
    return float(100.0 * np.sqrt(np.sum(diff * diff)) / denom)


def convergence_rate(errors) -> list[float]:
    """Observed orders log2(e_{k-1} / e_k) for successively halved spacings.

    Entries paired with a zero or non-finite error come out as nan rather
    than raising, so failed rows in a study do not break the table.
    """
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise ValueError("need at least two errors to form a rate")
    rates = []
    for prev, cur in zip(errors, errors[1:]):
        if prev > 0 and cur > 0 and np.isfinite(prev) and np.isfinite(cur):
            rates.append(float(np.log2(prev / cur)))
        else:
            rates.append(float("nan"))
    return rates
