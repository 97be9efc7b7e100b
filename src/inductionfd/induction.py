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
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .dissipation import DissipationOperator1D
from .grid import Grid2D
from .sbp import BandedStencil, SbpOperator1D, apply_dx, apply_dy


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
        """Sample an elementwise callable (X, Y) -> (B1, B2) on the open mesh
        X = x[:, None], Y = y[None, :]; each component is broadcast to the grid."""
        data = np.empty((2,) + grid.shape)
        data[0], data[1] = fn(grid.x[:, None], grid.y[None, :])
        return cls(grid, data)


@dataclass(frozen=True)
class VelocityCoeffs:
    """Frozen velocity samples and their SBP gradients, each at its rank:
    the speeds u1 and u2 as ``lam_x`` and ``lam_y``, and the gradients
    ``du1dx``, ``du1dy``, ``du2dx``, ``du2dy`` of the coupling term.  Each
    is a read-only array of shape (npx, npy), where a stride of 0 along an
    axis means its values are constant along it: ``sample_velocity``
    gives each as a broadcast view of the fewest values that hold it.
    """

    lam_x: np.ndarray
    lam_y: np.ndarray
    du1dx: np.ndarray
    du1dy: np.ndarray
    du2dx: np.ndarray
    du2dy: np.ndarray

    def held_speeds(self) -> tuple[np.ndarray, np.ndarray]:
        """|u1| and |u2| at the values each speed holds (its first entry
        along each axis of stride 0), not at its broadcast plane."""
        return tuple(np.abs(a[tuple(slice(None, 1 if s == 0 else None) for s in a.strides)])
                     for a in (self.lam_x, self.lam_y))

    @property
    def max_speed(self) -> float:
        """max over nodes of |u1| + |u2|, the default dissipation strength,
        from the values each speed holds; if no axis varies in both, it is
        max|u1| + max|u2|, exactly, as rounding is monotone."""
        u1, u2 = self.held_speeds()
        if all(1 in sizes for sizes in zip(u1.shape, u2.shape)):
            return float(u1.max() + u2.max())
        return float(np.max(u1 + u2))


def _fewest(name: str, value, grid: Grid2D) -> np.ndarray:
    """Velocity component ``name`` as returned (a scalar, a row, a column
    or a plane that broadcasts to the grid) as a copy of the fewest of
    its values that reproduce it, of shape (1 or npx, 1 or npy).
    Only the values given are compared; a plane of one value is one value."""
    value = np.atleast_2d(np.asarray(value, dtype=float))
    np.broadcast_to(value, grid.shape)  # ValueError if it does not broadcast
    if not np.isfinite(value).all():
        i, j = np.argwhere(~np.isfinite(value))[0]
        raise ValueError(f"velocity component {name} is not finite at node ({i}, {j})")
    row, column = (value == value[:1]).all(), (value == value[:, :1]).all()
    return value[:1 if row else None, :1 if column else None].copy()


def sample_velocity(
    velocity: Callable,
    grid: Grid2D,
    op_x: SbpOperator1D,
    op_y: SbpOperator1D,
) -> VelocityCoeffs:
    """Sample an elementwise velocity callable (X, Y) -> (u1, u2) on the
    open mesh and form its gradients with the scheme's SBP operators, so
    a linear velocity's are exact.  Each component is kept as the fewest
    values that hold it (``_fewest``) and differentiated only along an
    axis it varies along, as those values: a row along y, a column along
    x, a plane along both.  Every other gradient is a broadcast 0.  All
    six arrays are read-only broadcast views of shape (npx, npy).
    """
    u = [_fewest(name, value, grid) for name, value in
         zip(("u1", "u2"), velocity(grid.x[:, None], grid.y[None, :]), strict=True)]
    # du1dx, du1dy, du2dx, du2dy, each formed only where u_k varies along the axis
    grads = [apply(op, uk, grid) if uk.shape[axis] > 1 else 0.0
             for uk in u for axis, apply, op in ((0, apply_dx, op_x), (1, apply_dy, op_y))]
    return VelocityCoeffs(*(np.broadcast_to(a, grid.shape) for a in u + grads))


def sat_sigma(u_inward, theta: float = 1.0):
    """Penalty coefficient for a boundary node with inward normal speed ``u_inward``.

    Inflow (u_inward > 0) gets sigma = -theta * u_inward; outflow gets 0.
    Any theta >= 1/2 keeps the boundary terms of the energy estimate
    non-positive; theta < 1/2 would allow growth, and ``SchemeConfig``
    rejects it.
    """
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
    """Dirichlet data for the four sides of the domain.

    ``exact`` is None for zero data, or an elementwise callable
    (X, Y, t) -> (B1, B2) sampled on the boundary nodes, in the layout of
    :class:`SatConfig`: the x sides as (2, npy) and the y sides as
    (npx, 2), concatenated so that one call samples all four sides.  X and
    Y are the 1-D side coordinates; t is one time, or a column (T, 1) of
    times that broadcasts against them, so that one call samples the
    sides at T times.
    """

    grid: Grid2D
    exact: Callable | None = None
    _coords: tuple = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.exact is None:
            return
        if not callable(self.exact):
            raise ValueError(f"boundary data must be None or a callable "
                             f"(X, Y, t) -> (B1, B2), got {self.exact!r}")
        grid = self.grid
        ends_x, ends_y = (grid.xmin, grid.xmax), (grid.ymin, grid.ymax)
        side_x = np.concatenate([np.repeat(ends_x, grid.npy), np.repeat(grid.x, 2)])
        side_y = np.concatenate([np.tile(grid.y, 2), np.tile(ends_y, grid.npx)])
        object.__setattr__(self, "_coords", (side_x, side_y))

    @classmethod
    def zero(cls, grid: Grid2D) -> "BoundaryData":
        return cls(grid)

    @classmethod
    def from_exact(cls, grid: Grid2D, exact: Callable) -> "BoundaryData":
        if exact is None:
            raise ValueError("exact boundary data needs an exact-solution callable")
        return cls(grid, exact)

    def all_sides(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Data on all four sides at time t as read-only (g_x, g_y).

        ``g_x`` of shape (2, 2, npy) matches ``V[:, ::npx-1, :]`` and
        ``g_y`` of shape (2, npx, 2) matches ``V[:, :, ::npy-1]``.  For a
        1-D array of T times, ``exact`` is called once with t as a column
        (T, 1), and each array gains a leading axis of the T times: row k
        holds the bits of the call at ``t[k]`` alone, as an elementwise
        callable computes every element alike.  Zero data returns None
        and evaluates nothing.
        """
        if self.exact is None:
            return None
        side_x, side_y = self._coords
        times = np.shape(t)
        g = np.empty(times + (2, side_x.size))
        g[..., 0, :], g[..., 1, :] = self.exact(
            side_x, side_y, np.asarray(t)[:, None] if times else t)
        g.setflags(write=False)
        npx, npy = self.grid.shape
        split = 2 * npy
        return (g[..., :split].reshape(times + (2, 2, npy)),
                g[..., split:].reshape(times + (2, npx, 2)))


#: about the most nodes of one component in one strip of the RHS, the unit
#: of work that ``InductionRhs`` applies every term to before it moves on.
#: A strip streams the state, the result, the scratch, and the swapped
#: state, coupling pairs and speeds its velocity holds at full rank: three
#: arrays of its size (0.9 MiB here) for a constant velocity, five (1.6 MiB)
#: for the rotation, eight (2.5 MiB) at full rank, against the 2 MiB L2
#: cache of one core of the machine it was tuned on.  Each term is written
#: into the scratch and read back; the scratch is one buffer of the largest
#: strip's size, reused by every strip and call, so its lines stay cached.
#: A strip ends only where a block of the x stencil starts, so it can hold
#: up to a block of rows more.  Chosen by sweeps of 20 480 to 81 920 on the
#: rotation, the last with its speeds at their rank (CHANGES.md).
STRIP_NODES = 40_960

#: the most stage times that ``InductionRhs.boundary_data`` samples in one
#: call of the exact boundary data, from the times ``integrate`` hands
#: over; the block's rows stay in the memo until a time outside it is
#: asked for, so memory stays bounded on long runs.  Swept on exp2-study's
#: job (8 runs, 1 BLAS thread, 12 interleaved rounds, median ms) at 1 / 8
#: / 16 / 32 / 64 times: 211.2 / 190.6 / 189.5 / 192.9 / 194.3; on exp3's
#: ``sbp1`` run at 160^2 (10 rounds) at 1 / 8 / 16 / 32: 235.5 / 226.8 /
#: 226.1 / 227.8: 16 was the fastest on both.  In three paired 12-s
#: ``perfbench`` runs of exp2-study, 8 against 16 read ``wall_s`` 1-3 %
#: slower in each and ``peak_rss_mb`` 0.26-0.39 MiB lower, 16 within
#: 0.08 MiB of sampling one time per call.
BOUNDARY_BLOCK = 16


def _strips(npx: int, npy: int, cuts: Sequence[int]) -> list[tuple]:
    """The strips of whole rows that ``InductionRhs`` walks a (2, npx, npy)
    state in, each as the index (fields, rows) of its nodes, cut only at
    the rows ``cuts`` of the x stencil (``BandedStencil.cuts``).

    Each component is cut into the fewest strips of at most ``STRIP_NODES``
    nodes (at least one row), their lengths differing by at most one row,
    and each cut is then moved to the nearest row of ``cuts``.  A component
    that is not cut, because it is small enough or too short, makes the
    state one strip covering both components.
    """
    count = -(-npx // max(1, STRIP_NODES // npy))
    bounds = sorted({min(cuts, key=lambda c: abs(c - npx * k // count))
                     for k in range(count + 1)})
    if len(bounds) == 2:
        return [(slice(0, 2), slice(0, npx))]
    return [(slice(c, c + 1), slice(a, b)) for c in (0, 1) for a, b in zip(bounds, bounds[1:])]


class InductionRhs:
    """The semi-discrete tendency dV/dt = L V + b(t) of one run, assembled once.

    Called as ``rhs(t, v)`` on a field of shape (2, npx, npy), it adds, in
    order: the advection terms, the velocity-gradient coupling, the
    optional dissipation operator along each axis, and the SAT penalties
    (sigma / p_boundary) * (V - g) on the boundary rows of both components,
    corner nodes taking both adjacent sides.  The terms before the SAT are
    applied to one strip of whole rows at a time, all of them to a strip
    before the next, so that a strip's arrays stay in cache (see
    ``STRIP_NODES``); a state of up to about 200² nodes per component is
    one strip, a contiguous view of one or both components.  A strip starts
    and ends on the block boundaries of the x stencil, so every node gets
    the block products of the one-strip apply, bit for bit.
    Everything that does not change between calls is built here: per
    axis the stencils of -D and of the dissipation (``BandedStencil``,
    which scales each by its power of h), the coupling pairs, the SAT
    coefficients of ``sat`` in their strided layout,
    the strips with views of the coefficients they multiply, and one
    scratch buffer the size of the largest strip, not of the state: each
    strip writes the x derivative straight into its rows of the result
    and every other term into its own contiguous view of the scratch
    buffer, which thus stays in cache from strip to strip.  The exact
    boundary data is sampled only at a time the memo does not hold (see
    ``boundary_data``): ``integrate`` hands over the stage times of its
    run (``expect_times``), and a miss at the next of them samples it and
    the ``BOUNDARY_BLOCK`` - 1 after it in one call; RK4's two middle
    stages share a time, and a step's last stage time is the next step's
    first, so each is sampled once.  A call at any other time samples
    that time alone.  Zero boundary data samples nothing.

    The coefficients are applied at the rank their strides give, with no
    pass over their values (``VelocityCoeffs``).  An axis whose speed is
    one value c, as in the translation of experiment 3, is one stencil of
    the terms -c D and A, A the axis's dissipation if it has one: with
    upwind dissipation, the upwind SBP operator of Mattsson (JCP 335,
    2017).  Any other speed is multiplied per strip as its broadcast view
    (a row or a column for the rotation of experiments 1 and 2).  The
    gradients are stacked in two pairs of shape (2, npx, npy), one product
    per strip each: [du2dy, du1dx] multiplies (B1, B2) and is subtracted,
    [du1dy, du2dx] multiplies (B2, B1) and is added.  A pair of two
    broadcast 0s is skipped, as the rotation's first pair and both pairs
    of a constant velocity are.  Every term applied gives the bits it
    gives alone; full arrays are applied term by term.

    Called as ``rhs(t, v, out)``, it writes the tendency into ``out`` and
    returns it: ``out`` is a C-contiguous float64 array of the state's
    shape that shares no memory with ``v``, else ValueError (the operand
    rule of ``BandedStencil.apply``), and its old values are never read.
    ``integrate`` passes the stage registers it reuses over a whole run.
    Without ``out``, every call returns a fresh array.  The scratch
    buffer and the memo belong to the object, so one object must not be
    called from two threads at once.
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
        # per axis: the derivative stencil and the speeds it is multiplied
        # by, or, where the speed is one value c, the stencil of -c times
        # the derivative plus the axis's dissipation, and no speeds (None)
        self._diss = []
        axes = []
        for axis, op, diss, lam in ((-2, op_x, diss_x, coeffs.lam_x),
                                    (-1, op_y, diss_y, coeffs.lam_y)):
            dissipation = [] if diss is None else [(diss, 1.0)]
            if any(lam.strides):
                axes.append((BandedStencil([(op, -1.0)], axis, grid), lam))
                if dissipation:
                    self._diss.append(BandedStencil(dissipation, axis, grid))
            else:
                axes.append((BandedStencil([(op, -lam[0, 0])] + dissipation, axis, grid), None))
        (self._dx, lam_x), (self._dy, lam_y) = axes
        # the coupling pairs, stacked (2, npx, npy), None for two broadcast 0s
        sub, add = (None if not any(a.strides + b.strides) and a[0, 0] == b[0, 0] == 0
                    else np.stack([a, b]) for a, b in ((coeffs.du2dy, coeffs.du1dx),
                                                       (coeffs.du1dy, coeffs.du2dx)))
        self._coef_x, self._coef_y = sat.coef_x, sat.coef_y
        self._edge_steps = (grid.npx - 1, grid.npy - 1)
        self._sample = None if bdata.exact is None else bdata.all_sides
        self.expect_times(())
        state = np.broadcast_to(0.0, self.shape)
        strips = [(node, state[node]) for node in _strips(*shape, self._dx.cuts)]
        self._scratch = np.empty(max(part.size for _, part in strips))

        def at(coef, index):
            return None if coef is None else coef[index]

        # per strip: its node index, its view of the scratch buffer and the
        # views of the coefficients it multiplies, None for those it skips
        self._strips = [
            (node, self._scratch[: part.size].reshape(part.shape), at(lam_x, node[1]),
             at(lam_y, node[1]), at(sub, node), at(add, node))
            for node, part in strips
        ]

    def expect_times(self, times: Iterable[float]) -> None:
        """Hand over the distinct times, in the order of the calls to come,
        at which the RHS will next be called: ``integrate`` hands over
        every stage time of its run, lazily.  A miss of the boundary memo
        at the next of them samples it and the ``BOUNDARY_BLOCK`` - 1
        after it in one call.  The memo is emptied, so that a time it
        holds from an earlier run, such as the start of a run that goes on
        from the last one's end, cannot leave the plan behind."""
        self._memo = {}
        self._plan = iter(times)
        self._next = next(self._plan, None)

    def boundary_data(self, t: float) -> tuple[np.ndarray, np.ndarray] | None:
        """``BoundaryData.all_sides(t)``, sampled only when t is not a time
        of the last sample: at the next expected time, a block of up to
        ``BOUNDARY_BLOCK`` expected times in one call, whose rows hold the
        bits of the call at each time alone; at any other time, t alone.
        Zero data samples nothing."""
        g = self._memo.get(t)
        if g is None and self._sample is not None:
            self._memo = {}  # the old block is freed before the new one is made
            if t == self._next:
                times = [t, *islice(self._plan, BOUNDARY_BLOCK - 1)]
                self._next = next(self._plan, None)
                self._memo = dict(zip(times, zip(*self._sample(np.array(times)))))
            else:
                self._memo = {t: self._sample(t)}
            g = self._memo[t]
        return g

    def __call__(self, t: float, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if v.shape != self.shape:
            raise ValueError(f"state must have shape {self.shape}, got {v.shape}")
        if out is None:
            out = np.empty(self.shape)
        elif not (out.dtype == np.float64 and out.flags.c_contiguous
                  and out.shape == self.shape) or np.may_share_memory(out, v):
            raise ValueError(f"out must be a C-contiguous float64 array of shape "
                             f"{self.shape} that shares no memory with the state; got "
                             f"{out.dtype} of strides {out.strides} and shape {out.shape}")
        v = np.ascontiguousarray(v, dtype=float)
        swapped = v[::-1]
        for node, w, lam_x, lam_y, sub, add in self._strips:
            part = v[node[0]]
            r = self._dx.apply(part, out[node], node[1])
            if lam_x is not None:
                r *= lam_x
            self._dy.apply(part, w, node[1])
            if lam_y is not None:
                w *= lam_y
            r += w
            if sub is not None:
                np.multiply(sub, v[node], out=w)
                r -= w
            if add is not None:
                np.multiply(add, swapped[node], out=w)
                r += w
            for stencil in self._diss:
                stencil.apply(part, w, node[1])
                r += w

        sx, sy = self._edge_steps
        vx, vy = v[:, ::sx, :], v[:, :, ::sy]
        g = self.boundary_data(t)
        if g is not None:
            vx, vy = vx - g[0], vy - g[1]
        out[:, ::sx, :] += self._coef_x * vx
        out[:, :, ::sy] += self._coef_y * vy
        return out


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
