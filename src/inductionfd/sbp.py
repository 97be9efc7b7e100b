"""1D summation-by-parts first-derivative operators.

An operator is stored as dimensionless coefficient tables: the diagonal
norm weights ``p`` as multiples of the spacing h, and the skew part ``Q``
split into an interior stencil plus explicit boundary-closure rows.  The
derivative is D = P^{-1} Q / h and satisfies Q + Q^T = diag(-1, 0, ..., 0, 1),
which is what every energy estimate in this package rests on.

Application is matrix-free (``BandedStencil``): interior rows are
evaluated as products of one small banded block with overlapping
windows of the field, and the closure rows by small dense blocks, along
either of the last two axes of a field of shape (..., npx, npy).
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


@dataclass(frozen=True)
class SbpOperator1D:
    """First-derivative operator D = P^{-1} Q / h on n uniformly spaced nodes.

    ``p`` holds the n norm weights (multiples of h), ``q_interior`` the
    interior stencil of Q and ``q_closure`` its explicit top rows.  The
    derived attributes ``top``, ``bot`` and ``interior`` are the rows of
    h*D used by the matrix-free apply; ``h_exponent`` is the power of the
    grid spacing multiplying the dimensionless tables (-1 here).
    """

    order: int
    n: int
    p: np.ndarray
    q_interior: np.ndarray
    q_closure: np.ndarray
    top: np.ndarray = field(init=False, repr=False, compare=False)
    bot: np.ndarray = field(init=False, repr=False, compare=False)
    interior: np.ndarray = field(init=False, repr=False, compare=False)
    h_exponent: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = _frozen(self.p)
        q_closure = np.atleast_2d(np.asarray(self.q_closure, dtype=float))
        rows = q_closure.shape[0]
        top = q_closure / p[:rows, None]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_interior", _frozen(self.q_interior))
        object.__setattr__(self, "q_closure", _frozen(q_closure))
        object.__setattr__(self, "top", _frozen(top))
        object.__setattr__(self, "bot", _frozen(-top[::-1, ::-1]))
        object.__setattr__(self, "interior", _frozen(self.q_interior))

    def dense_q(self) -> np.ndarray:
        """Dense skew part Q, shape (n, n)."""
        n = self.n
        rows, cols = self.q_closure.shape
        q = np.zeros((n, n))
        width = (len(self.q_interior) - 1) // 2
        for i in range(rows, n - rows):
            q[i, i - width : i + width + 1] = self.q_interior
        q[:rows, :cols] = self.q_closure
        q[n - rows :, n - cols :] = -self.q_closure[::-1, ::-1]
        return q

    def dense_d(self, h: float) -> np.ndarray:
        """Dense derivative matrix D = P^{-1} Q / h, shape (n, n)."""
        return self.dense_q() / (h * self.p[:, None])


def build_sbp(order: int, n: int) -> SbpOperator1D:
    """Construct the diagonal-norm SBP derivative operator of given order.

    ``order`` is the interior accuracy (2 or 4); the closure rows are one
    order lower at order 2 and two orders lower at order 4, as usual for
    diagonal-norm operators.
    """
    if order not in _MIN_POINTS:
        raise ValueError(f"unsupported order {order}, expected one of {sorted(_MIN_POINTS)}")
    if n < _MIN_POINTS[order]:
        raise ValueError(
            f"order-{order} operator needs at least {_MIN_POINTS[order]} points, got {n}"
        )
    closure = np.array(_P_CLOSURE[order])
    p = np.ones(n)
    p[: len(closure)] = closure
    p[n - len(closure) :] = closure[::-1]
    return SbpOperator1D(
        order=order,
        n=n,
        p=p,
        q_interior=np.array(_Q_INTERIOR[order]),
        q_closure=np.array(_Q_CLOSURE[order]),
    )


class BandedStencil:
    """A banded 1D operator along one axis of arrays (fields, npx, npy),
    with every constant of its application computed once.

    ``scale`` multiplies the operator's tables: the grid-spacing power,
    and any sign the caller folds in.  The interior rows are applied in
    blocks of ``_BLOCK`` consecutive nodes: one constant block matrix of
    ``_BLOCK`` rows by ``_BLOCK`` + 2w columns (w the stencil half-width,
    ``scale`` folded in) holds the interior row shifted by one column per
    row, and it multiplies windows of ``_BLOCK`` + 2w input lines taken
    every ``_BLOCK`` lines: whole rows along x (block times window), whole
    columns along y (window times the block's transpose).  The windows
    overlap, so they and the output blocks are strided views of the
    operands' buffers, and the full blocks of an apply are one batched
    matmul.  The blocks start at the first interior node of each field;
    the last ``m % _BLOCK`` interior nodes (m of them in a line) form a
    shorter block cut from the same matrix.  The closure rows are small
    dense blocks, stored scaled and contiguous, transposed along y, so
    each is one matmul too.  Every stencil half-width is at most the
    closure size (checked here), so every window lies inside the line.

    An apply can be limited to a range of rows, lines of npy nodes of the
    array viewed as (-1, npy), so that a caller can run several operators
    on one cache-sized strip before it moves on.  Along x a strip that
    ends inside a block computes the rows it holds as a sub-block of the
    same block and window; along y a strip computes every column block
    for its rows.  Every node thus gets the same products of the full
    apply, bit for bit, as long as BLAS computes each row of a product
    alike whatever the number of rows.  It does not for a one-row product,
    which BLAS computes with gemv in another summation order than gemm,
    so such a product is computed as two rows and one is kept.  What a
    row range needs (the views of its products) is worked out on its
    first apply and kept.
    """

    def __init__(self, op, axis: int, scale: float, shape: tuple[int, int]):
        """``axis`` is -2 (x) or -1 (y) of arrays (fields, *shape)."""
        n = shape[axis]
        if op.n != n:
            raise ValueError(f"operator built for {op.n} points, grid has "
                             f"{'npx' if axis == -2 else 'npy'}={n}")
        interior = np.asarray(op.interior) * scale
        width = len(interior) // 2
        block = np.zeros((_BLOCK, _BLOCK + 2 * width))
        for i in range(_BLOCK):
            block[i, i : i + len(interior)] = interior
        closure = op.top.shape[0]
        if width > closure:
            raise ValueError(f"interior stencil half-width {width} exceeds the "
                             f"{closure} closure rows")
        short = (n - 2 * closure) % _BLOCK
        tail = block[:short, : short + 2 * width]
        top, bot = op.top * scale, op.bot * scale
        if axis == -1:
            top, bot, block, tail = top.T, bot.T, block.T, tail.T
        self.axis = axis
        self.shape = shape
        self.width = width
        self.closure = closure
        self.block = np.ascontiguousarray(block)
        self.tail = np.ascontiguousarray(tail)
        self.top = np.ascontiguousarray(top)
        self.bot = np.ascontiguousarray(bot)
        self._plans = {}

    def apply(self, f: np.ndarray, out: np.ndarray, start: int = 0,
              stop: int | None = None) -> np.ndarray:
        """Write the operator applied to ``f`` into rows ``start:stop`` of
        ``out`` and return ``out``; both are C-contiguous float arrays of one
        shape (fields, npx, npy).

        A row is one line of npy nodes of the array viewed as (-1, npy), so
        a row range runs through the fields in order; the default is every
        row.  Rows outside the range are left as they are.
        """
        key = (start, stop, f.size)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(start, stop, f.size)
        interior, closures = plan
        along_x = self.axis == -2
        for block, window, target, pick in interior:
            src = np.ndarray(window[0], float, f, *window[1:])
            dst = np.ndarray(target[0], float, out, *target[1:])
            product = (block, src) if along_x else (src, block)
            if pick is None:
                np.matmul(*product, out=dst)
            else:
                dst[...] = np.matmul(*product)[..., pick, :]
        for block, src, into, pick in closures:
            product = (block, f[src]) if along_x else (f[src], block)
            if pick is None:
                np.matmul(*product, out=out[into])
            else:
                out[into] = np.matmul(*product)[:, pick]
        return out

    def _plan(self, start: int, stop: int | None, size: int) -> tuple:
        """(interior, closures) of an apply to rows ``start:stop`` of arrays
        of ``size`` nodes.  Per interior product: its block, the (shape,
        byte offset, byte strides) of its windows in f and of its target
        in out, and the rows of the product to keep (None: all of them).
        Per closure product: its block, the index of its other
        factor in f, the index of its rows in out and the rows of the
        product to keep.
        """
        npx, npy = self.shape
        if stop is None:
            stop = size // npy
        along_x = self.axis == -2
        interior = (self._interior_x if along_x else self._interior_y)(start, stop, size)
        n = self.shape[self.axis]
        rows, cols = self.top.shape if along_x else self.top.shape[::-1]
        closures = []
        for fields, a, b in _field_pieces(start, stop, npx):
            for block, first, take in ((self.top, 0, slice(0, cols)),
                                       (self.bot, n - rows, slice(n - cols, n))):
                if along_x:
                    i, j = max(a - first, 0), min(b - first, rows)
                    if i < j:
                        computed, pick = _one_row_as_two(i, j, rows)
                        closures.append((block[computed], (fields, take),
                                         (fields, slice(first + i, first + j)), pick))
                else:
                    computed, pick = _one_row_as_two(a, b, npx)
                    closures.append((block, (fields, computed, take),
                                     (fields, slice(a, b), slice(first, first + rows)), pick))
        return interior, closures

    def _interior_x(self, start: int, stop: int, size: int) -> list:
        """Interior products along x: per piece of fields, one batched
        product over the whole blocks in the range and one sub-block
        product per block the range cuts."""
        npx, npy = self.shape
        item = np.dtype(float).itemsize
        line, field = npy * item, npx * npy * item
        width, lo = self.width, self.closure
        full = (npx - 2 * lo) // _BLOCK
        products = []
        for fields, a, b in _field_pieces(start, stop, npx):
            s, e = max(a, lo) - lo, min(b, npx - lo) - lo
            if s >= e:
                continue
            count = fields.stop - fields.start
            base = (fields.start * npx + lo) * line
            j0, j1 = -(-s // _BLOCK), min(e // _BLOCK, full)
            if j0 < j1:
                strides = (field, _BLOCK * line, line, item)
                first = base + _BLOCK * j0 * line
                products.append((
                    self.block,
                    ((count, j1 - j0, self.block.shape[1], npy), first - width * line, strides),
                    ((count, j1 - j0, _BLOCK, npy), first, strides),
                    None))
            for j in sorted({s // _BLOCK, (e - 1) // _BLOCK} - set(range(j0, j1))):
                block = self.block if j < full else self.tail
                i, k = max(s - _BLOCK * j, 0), min(e - _BLOCK * j, len(block))
                computed, pick = _one_row_as_two(i, k, len(block))
                strides = (field, line, item)
                first = base + _BLOCK * j * line
                products.append((
                    block[computed],
                    ((count, block.shape[1], npy), first - width * line, strides),
                    ((count, k - i, npy), first + i * line, strides),
                    pick))
        return products

    def _interior_y(self, start: int, stop: int, size: int) -> list:
        """Interior products along y: one batched product over the whole
        column blocks of the rows and one over the short block."""
        npy = self.shape[1]
        if start >= stop:
            return []
        item = np.dtype(float).itemsize
        line = npy * item
        width, lo = self.width, self.closure
        full = (npy - 2 * lo) // _BLOCK
        computed, pick = _one_row_as_two(start, stop, size // npy)
        count, rows = computed.stop - computed.start, stop - start
        src, dst = computed.start * line, start * line
        products = []
        if full:
            strides = (_BLOCK * item, line, item)
            products.append((
                self.block,
                ((full, count, self.block.shape[0]), src + (lo - width) * item, strides),
                ((full, rows, _BLOCK), dst + lo * item, strides),
                pick))
        short = self.tail.shape[1]
        if short:
            first = lo + _BLOCK * full
            products.append((
                self.tail,
                ((count, self.tail.shape[0]), src + (first - width) * item, (line, item)),
                ((rows, short), dst + first * item, (line, item)),
                pick))
        return products


def _one_row_as_two(i: int, j: int, total: int) -> tuple[slice, slice | None]:
    """Rows to compute for rows i..j of a product with ``total`` rows, and
    the rows to pick from the result (None: all of them).  A single row of
    a taller product is computed together with a neighbour."""
    if j - i == 1 and total > 1:
        w = min(i, total - 2)
        return slice(w, w + 2), slice(i - w, j - w)
    return slice(i, j), None


def _field_pieces(start: int, stop: int, npx: int):
    """Split rows ``start:stop`` of a stack of fields with ``npx`` rows each
    into (fields, a, b): rows a..b of every field in the slice ``fields``.
    A run of whole fields is one piece."""
    while start < stop:
        k, a = divmod(start, npx)
        whole = (stop - start) // npx if a == 0 else 0
        if whole:
            yield slice(k, k + whole), 0, npx
            start += whole * npx
        else:
            b = min(npx, a + stop - start)
            yield slice(k, k + 1), a, b
            start += b - a


def _apply(op, f: np.ndarray, grid: Grid2D, axis: int, h: float,
           out: np.ndarray | None) -> np.ndarray:
    if f.ndim < 2 or f.shape[-2:] != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    f = np.ascontiguousarray(f, dtype=float)
    if out is None:
        out = np.empty(f.shape)
    elif out.shape != f.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {f.shape}")
    fields = (-1,) + grid.shape
    BandedStencil(op, axis, h**op.h_exponent, grid.shape).apply(f.reshape(fields),
                                                                 out.reshape(fields))
    return out


def apply_dx(op, f: np.ndarray, grid: Grid2D, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a 1D operator along the x axis of a field (..., npx, npy).

    Leading axes are stacked fields (such as the two components of B),
    each transformed alike.  The result goes to ``out`` when given.
    """
    return _apply(op, f, grid, -2, grid.dx, out)


def apply_dy(op, f: np.ndarray, grid: Grid2D, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a 1D operator along the y axis of a field (..., npx, npy).

    Leading axes are stacked fields (such as the two components of B),
    each transformed alike.  The result goes to ``out`` when given.
    """
    return _apply(op, f, grid, -1, grid.dy, out)


@dataclass(frozen=True)
class SbpReport:
    """Numerical check of the defining operator properties."""

    qqt_residual: float
    exactness_all: Mapping[int, float]
    exactness_interior: Mapping[int, float]
    min_norm_weight: float


def verify_sbp(op: SbpOperator1D) -> SbpReport:
    """Measure the skew-symmetry identity and polynomial exactness of ``op``.

    Returns the max-norm residual of Q + Q^T - diag(-1, 0, ..., 0, 1), the
    max-norm derivative residuals on monomials of each reproducible degree
    (over all nodes for closure-exact degrees, over interior nodes for the
    higher interior-exact degrees), and the smallest norm weight.
    """
    n = op.n
    q = op.dense_q()
    b = np.zeros((n, n))
    b[0, 0] = -1.0
    b[-1, -1] = 1.0
    qqt = float(np.max(np.abs(q + q.T - b)))

    h = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    d = op.dense_d(h)
    deg_all, deg_int = EXACT_DEGREE[op.order]
    rows = op.q_closure.shape[0]
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

