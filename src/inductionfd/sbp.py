"""1D summation-by-parts first-derivative operators.

An operator is stored as dimensionless coefficient tables: the diagonal
norm weights ``p`` as multiples of the spacing h, and the skew part ``Q``
split into an interior stencil plus explicit boundary-closure rows.  The
derivative is D = P^{-1} Q / h and satisfies Q + Q^T = diag(-1, 0, ..., 0, 1),
which is what every energy estimate in this package rests on.

Application is matrix-free (``BandedStencil``): interior rows are
evaluated by shifted slices and the closure rows by small dense blocks,
along either of the last two axes of a field of shape (..., npx, npy).
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
    """A banded 1D operator along one axis of arrays (..., npx, npy), with
    every constant of its application computed once.

    ``scale`` multiplies the operator's tables: the grid-spacing power,
    and any sign the caller folds in.  The interior row is split into its
    centre weight and pairs: an antisymmetric row (a derivative) pairs
    its nodes as c_k (f[i+k] - f[i-k]), a symmetric one (a dissipation) as
    c_k (f[i+k] + f[i-k]).  The terms are summed from the outermost pair
    inwards, each partial sum scaled by the ratio of consecutive
    coefficients and the total by the innermost one, so the apply needs
    no scratch array.  In C order a shift along either of the last two
    axes is a shift of the flat array by that axis's stride, so the
    interior runs on contiguous flat slices for both axes and any stacked
    leading axes.  The flat range also covers nodes whose stencil wraps
    into the next line; those are exactly the closure nodes, which the
    closure blocks overwrite afterwards (every stencil half-width is at
    most the closure size).  The closure blocks are stored scaled and
    contiguous, transposed along y, so each is one matmul.
    """

    def __init__(self, op, axis: int, scale: float, shape: tuple[int, int]):
        """``axis`` is -2 (x) or -1 (y) of arrays whose last two axes are ``shape``."""
        n = shape[axis]
        if op.n != n:
            raise ValueError(f"operator built for {op.n} points, grid has "
                             f"{'npx' if axis == -2 else 'npy'}={n}")
        interior = np.asarray(op.interior) * scale
        width = len(interior) // 2
        stride = shape[-1] if axis == -2 else 1
        # (coefficient, shift, combine); the centre has shift 0 and no partner
        terms = [(float(interior[width]), 0, None)]
        for k in range(1, width + 1):
            ahead, behind = interior[width + k], interior[width - k]
            if behind == -ahead:
                combine = np.subtract
            elif behind == ahead:
                combine = np.add
            else:
                raise ValueError("interior stencil is neither symmetric nor antisymmetric")
            terms.append((float(ahead), k * stride, combine))
        terms = [term for term in terms if term[0] != 0.0][::-1]
        top, bot = op.top * scale, op.bot * scale
        if axis == -1:
            top, bot = top.T, bot.T
        self.axis = axis
        self.n = n
        self.rows, self.cols = op.top.shape
        self.lo = self.rows * stride
        self.first = terms[0][1:] if terms else None
        self.steps = tuple((outer[0] / inner[0],) + inner[1:]
                           for outer, inner in zip(terms, terms[1:]))
        self.last = terms[-1][0] if terms else 0.0
        self.top = np.ascontiguousarray(top)
        self.bot = np.ascontiguousarray(bot)

    def apply(self, f: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the operator applied to ``f`` into ``out`` and return ``out``;
        both are C-contiguous float arrays of one shape (..., npx, npy)."""
        flat, acc = f.reshape(-1), out.reshape(-1)
        lo, hi = self.lo, f.size - self.lo
        dst = acc[lo:hi]
        if self.first is None:
            dst[...] = 0.0
        else:
            shift, combine = self.first
            if combine is None:
                dst[...] = flat[lo:hi]
            else:
                combine(flat[lo + shift : hi + shift], flat[lo - shift : hi - shift], out=dst)
            for ratio, shift, combine in self.steps:
                dst *= ratio
                dst += flat[lo + shift : hi + shift]
                if combine is not None:
                    combine(dst, flat[lo - shift : hi - shift], out=dst)
            dst *= self.last
        n, rows, cols = self.n, self.rows, self.cols
        if self.axis == -2:
            np.matmul(self.top, f[..., :cols, :], out=out[..., :rows, :])
            np.matmul(self.bot, f[..., n - cols :, :], out=out[..., n - rows :, :])
        else:
            np.matmul(f[..., :cols], self.top, out=out[..., :rows])
            np.matmul(f[..., n - cols :], self.bot, out=out[..., n - rows :])
        return out


def _apply(op, f: np.ndarray, grid: Grid2D, axis: int, h: float,
           out: np.ndarray | None) -> np.ndarray:
    if f.ndim < 2 or f.shape[-2:] != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    f = np.ascontiguousarray(f, dtype=float)
    if out is None:
        out = np.empty(f.shape)
    elif out.shape != f.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {f.shape}")
    return BandedStencil(op, axis, h**op.h_exponent, grid.shape).apply(f, out)


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

