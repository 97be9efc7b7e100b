"""1D summation-by-parts first-derivative operators.

An operator is stored as dimensionless coefficient tables: the diagonal
norm weights ``p`` as multiples of the spacing h, and the skew part ``Q``
split into an interior stencil plus explicit boundary-closure rows.  The
derivative is D = P^{-1} Q / h and satisfies Q + Q^T = diag(-1, 0, ..., 0, 1),
which is what every energy estimate in this package rests on.

Application is matrix-free (``BandedStencil``): a stencil holds a
weighted sum of operators along one axis, each scaled by its own power
of the grid spacing, so no caller handles h.  An apply is the interior
blocks plus one dense block per end, along either of the last two axes
of a field of shape (..., npx, npy): products of one small banded block
with overlapping windows of the field, and of a small dense block with
each end of a line.  An apply can be limited to a strip of rows that
starts and ends on the block boundaries of the x stencil, and then
writes an array shaped like the strip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .grid import Grid2D

#: minimum number of points for which the closure rows do not collide
_MIN_POINTS = {2: 3, 4: 8}

#: interior row of Q (the norm weight is 1 away from the closures, so this
#: is also the interior row of h*D)
_Q_INTERIOR = {
    2: (-1.0 / 2.0, 0.0, 1.0 / 2.0),
    4: (1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0),
}

#: top-left closure block of Q; the bottom-right block follows from
#: Q[n-1-i, n-1-j] = -Q[i, j]
_Q_CLOSURE = {
    2: ((-1.0 / 2.0, 1.0 / 2.0),),
    4: (
        (-1.0 / 2.0, 59.0 / 96.0, -1.0 / 12.0, -1.0 / 32.0, 0.0, 0.0),
        (-59.0 / 96.0, 0.0, 59.0 / 96.0, 0.0, 0.0, 0.0),
        (1.0 / 12.0, -59.0 / 96.0, 0.0, 59.0 / 96.0, -1.0 / 12.0, 0.0),
        (1.0 / 32.0, 0.0, -59.0 / 96.0, 0.0, 2.0 / 3.0, -1.0 / 12.0),
    ),
}

#: norm weights at the closure, as multiples of h (interior weight is 1)
_P_CLOSURE = {
    2: (1.0 / 2.0,),
    4: (17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0),
}

#: polynomial degree reproduced exactly at closure / interior nodes
EXACT_DEGREE = {2: (1, 2), 4: (2, 4)}

#: interior nodes per block product of ``BandedStencil``; at 320^2, 8 was
#: the fastest of 4, 8, 16 and 32 along x and of 4, 8 and 16 along y
_BLOCK = 8


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SbpOperator1D:
    """First-derivative operator D = P^{-1} Q / h on n uniformly spaced nodes.

    ``p`` holds the n norm weights (multiples of h), ``interior`` the
    interior row of Q, which is also that of h*D as the norm weight is 1
    there, and ``q_closure`` the explicit top rows of Q.  The derived
    ``top`` and ``bot`` are the closure rows of h*D; with ``interior``
    they are all that the matrix-free apply reads.  ``h_exponent`` is the
    power of the grid spacing multiplying the dimensionless tables (-1).
    """

    order: int
    n: int
    p: np.ndarray
    interior: np.ndarray
    q_closure: np.ndarray
    top: np.ndarray = field(init=False, repr=False)
    bot: np.ndarray = field(init=False, repr=False)
    h_exponent: int = field(default=-1, init=False, repr=False)

    def __post_init__(self) -> None:
        p = _frozen(self.p)
        q_closure = np.atleast_2d(np.asarray(self.q_closure, dtype=float))
        rows = q_closure.shape[0]
        top = q_closure / p[:rows, None]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "interior", _frozen(self.interior))
        object.__setattr__(self, "q_closure", _frozen(q_closure))
        object.__setattr__(self, "top", _frozen(top))
        object.__setattr__(self, "bot", _frozen(-top[::-1, ::-1]))


def closure_weights(order: int, n: int | None = None) -> np.ndarray:
    """Norm weights of the order-``order`` top closure, as multiples of h:
    the one check of an order (2 or 4) and, if ``n`` is given, of a node
    count, for every operator that shares the SBP norm."""
    if order not in _MIN_POINTS:
        raise ValueError(f"unsupported order {order}, expected one of {sorted(_MIN_POINTS)}")
    if n is not None and n < _MIN_POINTS[order]:
        raise ValueError(
            f"order-{order} operator needs at least {_MIN_POINTS[order]} points, got {n}"
        )
    return np.array(_P_CLOSURE[order])


def build_sbp(order: int, n: int) -> SbpOperator1D:
    """Construct the diagonal-norm SBP derivative operator of given order.

    ``order`` is the interior accuracy (2 or 4); the closure rows are one
    order lower at order 2 and two orders lower at order 4, as usual for
    diagonal-norm operators.  ``closure_weights`` checks order and n.
    """
    closure = closure_weights(order, n)
    p = np.ones(n)
    p[: len(closure)] = closure
    p[n - len(closure) :] = closure[::-1]
    return SbpOperator1D(
        order=order,
        n=n,
        p=p,
        interior=np.array(_Q_INTERIOR[order]),
        q_closure=np.array(_Q_CLOSURE[order]),
    )


class BandedStencil:
    """A weighted sum of banded 1D operators along one axis of arrays
    (fields, npx, npy), scaled by the grid, with every constant of its
    application computed once.  Bound to one axis, its n and h, it takes
    the other extent from the array it is given: a plane, or a line, that
    is a column (fields, n, 1) along x and a row (fields, 1, n) along y.

    An apply is the interior blocks plus one dense block per end.  The
    interior rows are applied in blocks of ``_BLOCK`` consecutive nodes:
    one constant block matrix of ``_BLOCK`` rows by ``_BLOCK`` + 2w
    columns (w the stencil half-width) holds the summed interior row
    shifted by one column per row, and it multiplies windows of
    ``_BLOCK`` + 2w input lines taken every ``_BLOCK`` lines: whole rows
    along x (block times window), whole columns along y (window times the
    block's transpose).  The windows overlap, so they and the output
    blocks are strided views of the operands' buffers, and the whole
    blocks of an apply are one batched matmul.  The blocks start at the
    first interior node of each field.  The edge blocks, stored scaled and
    contiguous, transposed along y, are one matmul each: ``top`` holds the
    top closure rows, ``bot`` the last ``m % _BLOCK`` interior rows (m in a
    line), cut from the block matrix, and the bottom closure rows.  Every
    stencil half-width is at most the closure size (checked here), so
    every window lies inside the line.

    An apply can be limited to a range of rows (lines of npy nodes) of
    the fields it is given, so that a caller can run several operators on
    one cache-sized strip before it moves on; it writes an array shaped
    like the strip, so the caller's buffers need only be that large.
    Along x the range starts and ends at nodes of ``cuts``: the two ends
    of a field and the starts of its interior blocks but the first and
    the last, so a range holds whole blocks, at least one, and takes an
    edge block with each end of the field it holds.  Along y any range
    will do, as each row is a line of its own.  Every node thus gets the
    same products as in the full apply, bit for bit, as long as BLAS
    computes each row of a product alike whatever the number of rows: it
    does for two rows and more, not for a range of one row along y, which
    no strip is.  The views of an apply's products are worked out on its
    first apply to an array of that shape and range, with a check of both
    operands, and kept with their dtypes and strides.
    """

    def __init__(self, terms, axis: int, grid: Grid2D):
        """The stencil of the sum of ``factor * h**op.h_exponent * op`` over
        the (op, factor) pairs ``terms``, along ``axis``, -2 (x) or -1 (y);
        n and h are the node count and spacing of ``grid`` along that axis.

        From each operator it reads the node count ``n``, the dimensionless
        tables ``top`` (closure rows), ``bot`` and ``interior`` (the
        interior row), and ``h_exponent``, the power of h that turns the
        tables into the operator: -1 for D = P^{-1} Q / h.  The scaled
        tables are summed in list order before they meet a field, so the
        sum may differ in the last bits from the terms applied one by one
        and added; a single term is its tables times one scale."""
        names = ("top", "bot", "interior")
        if len({(op.n, *(np.shape(getattr(op, name)) for name in names))
                for op, _ in terms}) != 1:
            raise ValueError("a stencil needs one or more (operator, factor) terms "
                             "whose operators share n and their table shapes")
        n, h = grid.shape[axis], grid.dx if axis == -2 else grid.dy
        if terms[0][0].n != n:
            raise ValueError(f"operator built for {terms[0][0].n} points, grid has "
                             f"{'npx' if axis == -2 else 'npy'}={n}")
        # per table, the scaled terms summed in list order
        top, bot, interior = (sum(rest, first) for first, *rest in zip(*(
            [np.asarray(getattr(op, name)) * (factor * h**op.h_exponent) for name in names]
            for op, factor in terms)))
        width = len(interior) // 2
        block = np.zeros((_BLOCK, _BLOCK + 2 * width))
        for i in range(_BLOCK):
            block[i, i : i + len(interior)] = interior
        closure, reach = top.shape
        if width > closure:
            raise ValueError(f"interior stencil half-width {width} exceeds the "
                             f"{closure} closure rows")
        full, short = divmod(n - 2 * closure, _BLOCK)
        # the bottom edge: the last ``short`` interior rows and the closure
        edge = np.zeros((short + closure, max(short + closure + width, reach)))
        edge[:short, -(short + closure + width):][:, : short + 2 * width] = \
            block[:short, : short + 2 * width]
        edge[short:, -reach:] = bot
        if axis == -1:
            top, edge, block = top.T, edge.T, block.T
        self.axis = axis
        self.n = n
        self.width = width
        self.closure = closure
        self.full = full
        self.block = np.ascontiguousarray(block)
        self.top = np.ascontiguousarray(top)
        self.bot = np.ascontiguousarray(edge)
        #: the nodes that the row range of an x apply may start or end at
        self.cuts = (0, *range(closure + _BLOCK, closure + _BLOCK * full, _BLOCK), n)
        self._plans = {}

    def apply(self, f: np.ndarray, out: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Write the operator applied to ``f[:, rows]`` into ``out`` and
        return ``out``: the interior blocks plus one dense block per end.
        ``f`` is a C-contiguous float64 array (fields, npx, npy), or such a
        view, with n nodes along the stencil's axis; ``out`` is one shaped
        like the strip, (fields, rows, npy), so a caller can keep the
        strip's result in a buffer of its own size.

        ``rows`` is a nonempty slice of step 1 of the second axis of ``f``,
        by default all of it; along x it must start and end at nodes of
        ``cuts``.  Any other operand raises ValueError.  A plan keeps the
        dtypes, strides and out shape of the operands it was checked on,
        so an apply like the last one to its range costs one comparison.
        """
        key = (rows.start, rows.stop, rows.step, f.shape)
        operands = (f.dtype, f.strides, out.dtype, out.strides, out.shape)
        plan = self._plans.get(key)
        if plan is None or plan[0] != operands:
            plan = self._plans[key] = (operands, *self._plan(f, out, rows.indices(f.shape[1])))
        _, interior, edges = plan
        along_x = self.axis == -2
        if interior is not None:
            block, (src_shape, src_at, src_strides), (dst_shape, dst_at, dst_strides) = interior
            src = np.ndarray(src_shape, float, f, src_at, src_strides)
            dst = np.ndarray(dst_shape, float, out, dst_at, dst_strides)
            if along_x:
                np.matmul(block, src, out=dst)
            else:
                np.matmul(src, block, out=dst)
        for block, src, dst in edges:
            if along_x:
                np.matmul(block, f[src], out=out[dst])
            else:
                np.matmul(f[src], block, out=out[dst])
        return out

    def _plan(self, f: np.ndarray, out: np.ndarray, rows: tuple) -> tuple:
        """(interior, edges) of an apply to the (start, stop, step) range
        ``rows`` of ``f`` (fields, npx, npy) into ``out``, after checking
        both operands: the interior blocks plus one dense block per end in
        the range.  ``interior`` is the batched product of the whole blocks
        in the range, as its block and the (shape, byte offset, byte
        strides) of its windows in f and of its target in the strip-shaped
        out, or None; ``edges`` holds the products of the edge blocks, each
        as its block and the indices of its other factor in f and of its
        target in out."""
        shape = f.shape
        (a, b, step), (count, npx, npy) = rows, shape
        n, lo, width, full = self.n, self.closure, self.width, self.full
        along_x = self.axis == -2
        if shape[self.axis] != n:
            raise ValueError(f"stencil of {n} points applied to an array {shape}")
        if step != 1 or a >= b or along_x and (a not in self.cuts or b not in self.cuts):
            raise ValueError(f"cannot apply to rows {a}:{b}:{step}; the range must be "
                             f"nonempty of step 1, and rows along x must start and end "
                             f"at {self.cuts}")
        if not (f.dtype == out.dtype == np.float64 and f.flags.c_contiguous
                and out.flags.c_contiguous and out.shape == (count, b - a, npy)):
            raise ValueError(f"f and out must be C-contiguous float64 arrays and out of "
                             f"the strip's shape {(count, b - a, npy)}; got f {f.dtype} "
                             f"of strides {f.strides}, out {out.dtype} of strides "
                             f"{out.strides} and shape {out.shape}")

        edges = []
        for block, top in ((self.top, True), (self.bot, False)):
            height, reach = block.shape if along_x else block.shape[::-1]
            f0, o0 = (0, 0) if top else (n - reach, n - height)
            if not along_x:
                edges.append((block, (slice(None), slice(a, b), slice(f0, f0 + reach)),
                              (Ellipsis, slice(o0, o0 + height))))
            elif (a == 0) if top else (b == npx):
                edges.append((block, (slice(None), slice(f0, f0 + reach)),
                              (slice(None), slice(o0 - a, o0 - a + height))))

        item = np.dtype(float).itemsize
        line, field, strip = npy * item, npx * npy * item, (b - a) * npy * item
        if along_x:
            # the whole blocks in the range, each over whole rows of the fields
            j0, j1 = max(a - lo, 0) // _BLOCK, min((b - lo) // _BLOCK, full)
            base, out_base, unit = 0, -a * line, line
            strides = (_BLOCK * line, line, item)
            batch = lambda size: (count, j1 - j0, size, npy)
        else:
            # every column block over the range's rows; the rows of whole
            # fields are one run
            j0, j1 = 0, full
            runs, run = (1, count * npx) if (a, b) == (0, npx) else (count, b - a)
            base, out_base, unit = a * line, 0, item
            strides = (_BLOCK * item, line, item)
            batch = lambda size: (runs, full, run, size)
        if j0 == j1:
            return None, edges
        start = lo + _BLOCK * j0
        return (self.block,
                (batch(_BLOCK + 2 * width), base + (start - width) * unit, (field, *strides)),
                (batch(_BLOCK), out_base + start * unit, (strip, *strides))), edges


def _apply(op, f: np.ndarray, grid: Grid2D, axis: int) -> np.ndarray:
    if f.ndim < 2 or f.shape[axis] != grid.shape[axis]:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape} on its axis")
    f = np.ascontiguousarray(f, dtype=float)
    out = np.empty(f.shape)
    fields = (-1,) + f.shape[-2:]
    BandedStencil([(op, 1.0)], axis, grid).apply(f.reshape(fields), out.reshape(fields))
    return out


def apply_dx(op, f: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Apply a 1D operator along x to a field (..., npx, m), m any extent.

    Leading axes are stacked fields (such as the two components of B),
    each transformed alike.
    """
    return _apply(op, f, grid, -2)


def apply_dy(op, f: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Apply a 1D operator along y to a field (..., m, npy), m any extent.

    Leading axes are stacked fields (such as the two components of B),
    each transformed alike.
    """
    return _apply(op, f, grid, -1)


@dataclass(frozen=True)
class SbpReport:
    """Numerical check of the defining operator properties."""

    qqt_residual: float
    exactness_all: Mapping[int, float]
    exactness_interior: Mapping[int, float]
    min_norm_weight: float


def verify_sbp(op: SbpOperator1D) -> SbpReport:
    """Measure the SBP identity and polynomial exactness of ``op`` as it is
    applied: D is the banded apply along x of the identity on n nodes of
    [0, 1] (column j is D e_j), and Q = h P D.

    Returns the max-norm residual of Q + Q^T - diag(-1, 0, ..., 0, 1); the
    max-norm residuals of D x^k - k x^(k-1) on the nodes x, over all nodes
    for each degree k up to the closure-exact degree and over the nodes
    between the closure rows for each degree up to the interior-exact one;
    and the smallest norm weight.
    """
    n = op.n
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, n, n)
    d = apply_dx(op, np.eye(n), grid)
    q = grid.dx * op.p[:, None] * d
    b = np.zeros((n, n))
    b[0, 0] = -1.0
    b[-1, -1] = 1.0
    qqt = float(np.max(np.abs(q + q.T - b)))

    x = grid.x
    deg_all, deg_int = EXACT_DEGREE[op.order]
    rows = op.top.shape[0]
    exact_all = {}
    exact_interior = {}
    for deg in range(deg_int + 1):
        expected = deg * x ** (deg - 1) if deg > 0 else np.zeros(n)
        residual = np.abs(d @ x**deg - expected)
        if deg <= deg_all:
            exact_all[deg] = float(residual.max())
        interior = residual[rows : n - rows]
        exact_interior[deg] = float(interior.max()) if interior.size else 0.0
    return SbpReport(
        qqt_residual=qqt,
        exactness_all=exact_all,
        exactness_interior=exact_interior,
        min_norm_weight=float(op.p.min()),
    )
