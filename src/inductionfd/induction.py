"""Semi-discrete scheme for the 2D magnetic induction equations.

The PDE is the non-conservative symmetric form of the induction equations
for a magnetic field B = (B1, B2) advected by a given velocity u = (u1, u2):

    dB1/dt + u1 dB1/dx + u2 dB1/dy = -(du2/dy) B1 + (du1/dy) B2
    dB2/dt + u1 dB2/dx + u2 dB2/dy =  (du2/dx) B1 - (du1/dx) B2

Space is discretized with 1D SBP derivative operators applied along each
axis, the velocity-gradient coupling uses the same operators applied to
the sampled velocity, and Dirichlet data is imposed weakly through
simultaneous-approximation-term (SAT) penalties that act only at inflow
boundary nodes.  The penalty strength is chosen so that the boundary
quadratic form in the discrete energy estimate is non-positive, which
makes the semi-discrete scheme energy-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dissipation import DissipationOperator1D
from .grid import Grid2D
from .sbp import SbpOperator1D, apply_dx, apply_dy

SIDES = ("xmin", "xmax", "ymin", "ymax")


class NonFiniteStateError(ValueError):
    """A state handed to :func:`compute_rhs` holds inf or nan entries.

    The time integrator turns it into an ``InstabilityError``: a stage
    that overflows is a blown-up run, not a usage error.
    """


@dataclass(frozen=True)
class MagneticField:
    """Two-component field on a grid, stored as an array of shape (2, npx, npy).

    Flattening ``data`` in C order gives the component-major, x-major,
    y-inner vector layout shared by all operators.
    """

    grid: Grid2D
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.shape != (2, self.grid.npx, self.grid.npy):
            raise ValueError(
                f"field data must have shape (2, {self.grid.npx}, {self.grid.npy}), "
                f"got {data.shape}"
            )
        if not np.isfinite(data).all():
            raise ValueError("field data contains non-finite values")
        object.__setattr__(self, "data", data)

    def magnitude(self) -> np.ndarray:
        """Pointwise |B| = sqrt(B1^2 + B2^2), shape (npx, npy)."""
        return np.hypot(self.data[0], self.data[1])

    @classmethod
    def sample(cls, grid: Grid2D, fn: Callable) -> "MagneticField":
        """Sample a vectorized callable (X, Y) -> (B1, B2) at the grid nodes."""
        xx, yy = grid.meshgrid()
        b1, b2 = fn(xx, yy)
        data = np.stack(
            [np.broadcast_to(b1, grid.shape), np.broadcast_to(b2, grid.shape)]
        ).astype(float)
        return cls(grid, data)


@dataclass(frozen=True)
class VelocityCoeffs:
    """Frozen velocity samples and their SBP derivative grids.

    ``lam_x`` and ``lam_y`` are the advection speeds u1 and u2 at the
    nodes; the ``du*`` grids are the discrete velocity gradients entering
    the zeroth-order coupling term.  All arrays have shape (npx, npy) and
    are read-only.
    """

    lam_x: np.ndarray
    lam_y: np.ndarray
    du1dx: np.ndarray
    du1dy: np.ndarray
    du2dx: np.ndarray
    du2dy: np.ndarray

    @property
    def max_speed(self) -> float:
        """max over nodes of |u1| + |u2|; the default dissipation strength."""
        return float(np.max(np.abs(self.lam_x) + np.abs(self.lam_y)))


def sample_velocity(
    velocity: Callable,
    grid: Grid2D,
    op_x: SbpOperator1D,
    op_y: SbpOperator1D,
) -> VelocityCoeffs:
    """Sample a velocity callable (X, Y) -> (u1, u2) and form its gradients.

    The gradient grids are computed with the same SBP operators used by the
    scheme, so a constant velocity yields exactly zero coupling and a
    linear velocity yields its exact gradients.
    """
    xx, yy = grid.meshgrid()
    u1, u2 = velocity(xx, yy)
    u1 = np.broadcast_to(np.asarray(u1, dtype=float), grid.shape)
    u2 = np.broadcast_to(np.asarray(u2, dtype=float), grid.shape)
    for name, u in (("u1", u1), ("u2", u2)):
        if not np.isfinite(u).all():
            i, j = np.argwhere(~np.isfinite(u))[0]
            raise ValueError(f"velocity component {name} is not finite at node ({i}, {j})")
    u1 = np.ascontiguousarray(u1)
    u2 = np.ascontiguousarray(u2)
    coeffs = VelocityCoeffs(
        lam_x=u1,
        lam_y=u2,
        du1dx=apply_dx(op_x, u1, grid),
        du1dy=apply_dy(op_y, u1, grid),
        du2dx=apply_dx(op_x, u2, grid),
        du2dy=apply_dy(op_y, u2, grid),
    )
    for a in (coeffs.lam_x, coeffs.lam_y, coeffs.du1dx, coeffs.du1dy, coeffs.du2dx, coeffs.du2dy):
        a.setflags(write=False)
    return coeffs


def sat_sigma(u_inward, theta: float = 1.0):
    """Penalty coefficient for a boundary node with inward normal speed ``u_inward``.

    Inflow (u_inward > 0) gets sigma = -theta * u_inward; outflow gets 0.
    Any theta >= 1/2 keeps the boundary terms of the energy estimate
    non-positive; theta < 1/2 would allow growth and is rejected.
    """
    if theta < 0.5:
        raise ValueError(f"penalty factor theta must be >= 0.5, got {theta}")
    return -theta * np.maximum(u_inward, 0.0)


@dataclass(frozen=True)
class SatConfig:
    """Per-side SAT penalties divided by the boundary norm weight.

    ``coef_*`` are sigma / (h * p_end), with sigma from :func:`sat_sigma`
    per boundary node, and multiply (V - g) on the boundary slice.
    Corner nodes receive the contributions of both adjacent sides.
    """

    coef_xmin: np.ndarray
    coef_xmax: np.ndarray
    coef_ymin: np.ndarray
    coef_ymax: np.ndarray


def make_sat_config(
    coeffs: VelocityCoeffs,
    grid: Grid2D,
    op_x: SbpOperator1D,
    op_y: SbpOperator1D,
    theta: float = 1.0,
) -> SatConfig:
    """Build inflow penalties for all four sides from the sampled velocity."""
    sig = {
        "xmin": sat_sigma(coeffs.lam_x[0, :], theta),
        "xmax": sat_sigma(-coeffs.lam_x[-1, :], theta),
        "ymin": sat_sigma(coeffs.lam_y[:, 0], theta),
        "ymax": sat_sigma(-coeffs.lam_y[:, -1], theta),
    }
    p0x = grid.dx * op_x.p[0]
    pnx = grid.dx * op_x.p[-1]
    p0y = grid.dy * op_y.p[0]
    pny = grid.dy * op_y.p[-1]
    return SatConfig(
        coef_xmin=sig["xmin"] / p0x,
        coef_xmax=sig["xmax"] / pnx,
        coef_ymin=sig["ymin"] / p0y,
        coef_ymax=sig["ymax"] / pny,
    )


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data evaluator for the four sides of the domain.

    ``mode`` is ``zero`` or ``exact``.  In ``exact`` mode ``exact`` is a
    callable (X, Y, t) -> (B1, B2) sampled on the boundary nodes.  The side
    coordinates are computed once, concatenated in ``SIDES`` order (npy
    nodes per x side, npx per y side), so the exact callable samples all
    four sides in one call.
    """

    grid: Grid2D
    mode: str
    exact: Callable | None = None
    side_x: np.ndarray = field(init=False, repr=False, compare=False)
    side_y: np.ndarray = field(init=False, repr=False, compare=False)
    bounds: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("zero", "exact"):
            raise ValueError(f"unknown boundary mode {self.mode!r}")
        if self.mode == "exact" and self.exact is None:
            raise ValueError("exact boundary mode needs an exact-solution callable")
        grid = self.grid
        x, y = grid.x, grid.y
        side_x = np.concatenate([np.full(grid.npy, grid.xmin), np.full(grid.npy, grid.xmax),
                                 x, x])
        side_y = np.concatenate([y, y, np.full(grid.npx, grid.ymin),
                                 np.full(grid.npx, grid.ymax)])
        ends = np.cumsum([0, grid.npy, grid.npy, grid.npx, grid.npx])
        for a in (side_x, side_y):
            a.setflags(write=False)
        object.__setattr__(self, "side_x", side_x)
        object.__setattr__(self, "side_y", side_y)
        object.__setattr__(self, "bounds", {
            side: slice(int(ends[k]), int(ends[k + 1])) for k, side in enumerate(SIDES)
        })

    @classmethod
    def zero(cls, grid: Grid2D) -> "BoundaryData":
        return cls(grid, "zero")

    @classmethod
    def from_exact(cls, grid: Grid2D, exact: Callable) -> "BoundaryData":
        return cls(grid, "exact", exact=exact)

    def all_sides(self, t: float) -> np.ndarray | None:
        """Data (g1, g2) on all four sides at time t, shape (2, 2*npy + 2*npx).

        The columns follow ``side_x``/``side_y``; ``bounds`` maps each side
        to its slice.  Zero mode returns None and evaluates nothing.
        """
        if self.mode == "zero":
            return None
        g1, g2 = self.exact(self.side_x, self.side_y, t)
        shape = self.side_x.shape
        return np.stack([np.broadcast_to(np.asarray(g1, dtype=float), shape),
                         np.broadcast_to(np.asarray(g2, dtype=float), shape)])


#: boundary slice of a stacked (2, npx, npy) array for each side, in SIDES order
_EDGES = (np.s_[:, 0, :], np.s_[:, -1, :], np.s_[:, :, 0], np.s_[:, :, -1])


def compute_rhs(
    v: np.ndarray,
    t: float,
    grid: Grid2D,
    coeffs: VelocityCoeffs,
    bdata: BoundaryData,
    sat: SatConfig,
    op_x: SbpOperator1D,
    op_y: SbpOperator1D,
    diss_x: DissipationOperator1D | None = None,
    diss_y: DissipationOperator1D | None = None,
) -> np.ndarray:
    """Semi-discrete tendency dV/dt for a field of shape (2, npx, npy).

    Adds, in order: the advection terms, the velocity-gradient coupling,
    the optional dissipation operator along each axis, and the per-side
    SAT penalties (sigma / p_boundary) * (V - g) on the boundary slices of
    both components.  Corner nodes accumulate both adjacent sides.  Each
    operator is applied once to both components together, and the
    boundary data of all four sides is evaluated in one call.
    """
    if v.shape != (2, grid.npx, grid.npy):
        raise ValueError(
            f"state must have shape (2, {grid.npx}, {grid.npy}), got {v.shape}"
        )
    if not np.isfinite(v).all():
        raise NonFiniteStateError("state contains non-finite values")
    v1, v2 = v[0], v[1]

    rhs = apply_dx(op_x, v, grid)
    rhs *= coeffs.lam_x
    work = apply_dy(op_y, v, grid)
    work *= coeffs.lam_y
    rhs += work
    np.negative(rhs, out=rhs)
    rhs[0] -= coeffs.du2dy * v1
    rhs[0] += coeffs.du1dy * v2
    rhs[1] += coeffs.du2dx * v1
    rhs[1] -= coeffs.du1dx * v2

    if diss_x is not None:
        rhs += apply_dx(diss_x, v, grid, out=work)
    if diss_y is not None:
        rhs += apply_dy(diss_y, v, grid, out=work)

    g = bdata.all_sides(t)
    coefs = (sat.coef_xmin, sat.coef_xmax, sat.coef_ymin, sat.coef_ymax)
    for side, edge, coef in zip(SIDES, _EDGES, coefs):
        jump = v[edge] if g is None else v[edge] - g[:, bdata.bounds[side]]
        rhs[edge] += coef * jump
    return rhs
