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
from .sbp import BandedStencil, SbpOperator1D, apply_dx, apply_dy


class NonFiniteStateError(ValueError):
    """A state handed to :class:`InductionRhs` holds inf or nan entries.

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
    nodes, shape (npx, npy).  The discrete velocity gradients of the
    zeroth-order coupling term are stored once, stacked as the RHS uses
    them: ``couple_sub`` = [du2dy, du1dx] multiplies (B1, B2) and is
    subtracted, ``couple_add`` = [du1dy, du2dx] multiplies (B2, B1) and is
    added, each of shape (2, npx, npy).  All arrays are read-only.
    """

    lam_x: np.ndarray
    lam_y: np.ndarray
    couple_sub: np.ndarray
    couple_add: np.ndarray

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
    linear velocity yields its exact gradients.  One stacked apply per
    axis writes them straight into the coupling layout.
    """
    xx, yy = grid.meshgrid()
    u = np.empty((2,) + grid.shape)
    u[0], u[1] = velocity(xx, yy)
    for name, component in (("u1", u[0]), ("u2", u[1])):
        if not np.isfinite(component).all():
            i, j = np.argwhere(~np.isfinite(component))[0]
            raise ValueError(f"velocity component {name} is not finite at node ({i}, {j})")
    # planes: du1dy, du2dy, du1dx, du2dx
    grads = np.empty((4,) + grid.shape)
    apply_dy(op_y, u, grid, out=grads[:2])
    apply_dx(op_x, u, grid, out=grads[2:])
    u.setflags(write=False)
    grads.setflags(write=False)
    return VelocityCoeffs(lam_x=u[0], lam_y=u[1], couple_sub=grads[1:3], couple_add=grads[::3])


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
    """SAT penalties divided by the boundary norm weight, laid out like the
    strided boundary views of a field V of shape (2, npx, npy).

    ``coef_x`` has shape (2, npy), rows xmin and xmax, matching
    ``V[:, ::npx-1, :]``; ``coef_y`` has shape (npx, 2), columns ymin and
    ymax, matching ``V[:, :, ::npy-1]``.  Each entry is sigma / (h * p_end)
    with sigma from :func:`sat_sigma` and multiplies (V - g) at its node;
    corner nodes receive the contributions of both adjacent sides.
    """

    coef_x: np.ndarray
    coef_y: np.ndarray


#: inward normal of the (min, max) side of an axis
_INWARD = np.array([1.0, -1.0])


def make_sat_config(
    coeffs: VelocityCoeffs,
    grid: Grid2D,
    op_x: SbpOperator1D,
    op_y: SbpOperator1D,
    theta: float = 1.0,
) -> SatConfig:
    """Build inflow penalties for all four sides from the sampled velocity."""
    inward_x = coeffs.lam_x[:: grid.npx - 1] * _INWARD[:, None]
    inward_y = coeffs.lam_y[:, :: grid.npy - 1] * _INWARD
    # the norm weights are symmetric, so both ends of an axis share p[0]
    return SatConfig(
        coef_x=sat_sigma(inward_x, theta) / (grid.dx * op_x.p[0]),
        coef_y=sat_sigma(inward_y, theta) / (grid.dy * op_y.p[0]),
    )


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet data evaluator for the four sides of the domain.

    ``mode`` is ``zero`` or ``exact``.  In ``exact`` mode ``exact`` is a
    callable (X, Y, t) -> (B1, B2) sampled on the boundary nodes, in the
    layout of :class:`SatConfig`: the x sides as (2, npy) and the y sides
    as (npx, 2), concatenated so that one call samples all four sides.
    """

    grid: Grid2D
    mode: str
    exact: Callable | None = None
    _coords: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.mode not in ("zero", "exact"):
            raise ValueError(f"unknown boundary mode {self.mode!r}")
        if self.mode == "exact" and self.exact is None:
            raise ValueError("exact boundary mode needs an exact-solution callable")
        if self.mode == "exact":
            grid = self.grid
            ends_x, ends_y = (grid.xmin, grid.xmax), (grid.ymin, grid.ymax)
            side_x = np.concatenate([np.repeat(ends_x, grid.npy), np.repeat(grid.x, 2)])
            side_y = np.concatenate([np.tile(grid.y, 2), np.tile(ends_y, grid.npx)])
            object.__setattr__(self, "_coords", (side_x, side_y))

    @classmethod
    def zero(cls, grid: Grid2D) -> "BoundaryData":
        return cls(grid, "zero")

    @classmethod
    def from_exact(cls, grid: Grid2D, exact: Callable) -> "BoundaryData":
        return cls(grid, "exact", exact=exact)

    def all_sides(self, t: float) -> tuple[np.ndarray, np.ndarray] | None:
        """Data on all four sides at time t as read-only (g_x, g_y).

        ``g_x`` of shape (2, 2, npy) matches ``V[:, ::npx-1, :]`` and
        ``g_y`` of shape (2, npx, 2) matches ``V[:, :, ::npy-1]``.  Zero
        mode returns None and evaluates nothing.
        """
        if self.mode == "zero":
            return None
        side_x, side_y = self._coords
        g = np.empty((2, side_x.size))
        g[0], g[1] = self.exact(side_x, side_y, t)
        g.setflags(write=False)
        npx, npy = self.grid.shape
        split = 2 * npy
        return g[:, :split].reshape(2, 2, npy), g[:, split:].reshape(2, npx, 2)


class InductionRhs:
    """The semi-discrete tendency dV/dt = L V + b(t) of one run, assembled once.

    Called as ``rhs(t, v)`` on a field of shape (2, npx, npy), it adds, in
    order: the advection terms, the velocity-gradient coupling, the
    optional dissipation operator along each axis, and the SAT penalties
    (sigma / p_boundary) * (V - g) on the boundary rows of both components,
    corner nodes taking both adjacent sides.  Everything that does not
    change between calls is built here: per axis the derivative stencil
    with -1/h folded in and the dissipation stencil with its h power
    (``BandedStencil``), the coupling arrays of ``coeffs``, the SAT
    coefficients of ``sat`` in their strided layout, and one scratch
    buffer.  The exact boundary data is sampled only when t differs from
    the last time it was sampled, a one-entry memo: RK4's two middle
    stages share a time, and a step's last stage time is the next step's
    first.  Zero boundary data samples nothing.

    Every call returns a fresh array, because the RK stages hold several
    results at once.  The scratch buffer and the memo belong to the
    object, so one object must not be called from two threads at once.
    """

    def __init__(
        self,
        grid: Grid2D,
        coeffs: VelocityCoeffs,
        bdata: BoundaryData,
        sat: SatConfig,
        op_x: SbpOperator1D,
        op_y: SbpOperator1D,
        diss_x: DissipationOperator1D | None = None,
        diss_y: DissipationOperator1D | None = None,
    ) -> None:
        shape = grid.shape
        self.shape = (2,) + shape
        self._dx = BandedStencil(op_x, -2, -(grid.dx**op_x.h_exponent), shape)
        self._dy = BandedStencil(op_y, -1, -(grid.dy**op_y.h_exponent), shape)
        self._diss = tuple(
            BandedStencil(op, axis, h**op.h_exponent, shape)
            for op, axis, h in ((diss_x, -2, grid.dx), (diss_y, -1, grid.dy))
            if op is not None
        )
        self._lam_x, self._lam_y = coeffs.lam_x, coeffs.lam_y
        self._sub, self._add = coeffs.couple_sub, coeffs.couple_add
        self._coef_x, self._coef_y = sat.coef_x, sat.coef_y
        self._edge_steps = (grid.npx - 1, grid.npy - 1)
        self._sample = bdata.all_sides
        self._t = None
        self._g = None
        self._work = np.empty(self.shape)

    def boundary_data(self, t: float) -> tuple[np.ndarray, np.ndarray] | None:
        """``BoundaryData.all_sides(t)``, sampled only when t is not the
        time of the previous sample."""
        if t != self._t:
            self._g = self._sample(t)
            self._t = t
        return self._g

    def __call__(self, t: float, v: np.ndarray) -> np.ndarray:
        if v.shape != self.shape:
            raise ValueError(f"state must have shape {self.shape}, got {v.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteStateError("state contains non-finite values")
        v = np.ascontiguousarray(v, dtype=float)
        work = self._work
        rhs = self._dx.apply(v, np.empty(self.shape))
        rhs *= self._lam_x
        self._dy.apply(v, work)
        work *= self._lam_y
        rhs += work
        np.multiply(self._sub, v, out=work)
        rhs -= work
        np.multiply(self._add, v[::-1], out=work)
        rhs += work
        for stencil in self._diss:
            rhs += stencil.apply(v, work)

        sx, sy = self._edge_steps
        vx, vy = v[:, ::sx, :], v[:, :, ::sy]
        g = self.boundary_data(t)
        if g is not None:
            vx, vy = vx - g[0], vy - g[1]
        rhs[:, ::sx, :] += self._coef_x * vx
        rhs[:, :, ::sy] += self._coef_y * vy
        return rhs


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

    The one-shot form of :class:`InductionRhs`: it assembles the operator
    from these pieces and applies it once.  A run builds the object once
    instead (``RunSetup.rhs``).
    """
    return InductionRhs(grid, coeffs, bdata, sat, op_x, op_y, diss_x, diss_y)(t, v)
