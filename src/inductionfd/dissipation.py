"""Norm-compatible artificial dissipation operators.

The operator is A = -alpha * c_p * s(h) * P^{-1} Delta_p^T Delta_p where
Delta_p is the undivided p-th difference (p = order/2 unless overridden),
c_p = 1/(2p(2p-1)): c_1 = 1/2, c_2 = 1/12, c_3 = 1/30.  With the
``accurate`` scaling s(h) = h the interior
perturbation is O(h^2) (order 2) or O(h^4) (order 4), so the formal order
of the advection discretization is retained; the ``upwind`` scaling
s(h) = 1 strengthens the damping by one power of h and lowers the formal
order by one, reproducing the classical first- and third-order upwind
schemes in the interior.

A annihilates constants, and w^T P A w = -alpha c_p s(h) |Delta_p w|^2 <= 0,
so the operator can only remove energy in the P inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .sbp import _MIN_POINTS, _P_CLOSURE, _frozen

#: stencil scaling c_p = 1/(2p(2p-1)) for the undivided p-th difference
_STENCIL_COEF = {1: 1.0 / 2.0, 2: 1.0 / 12.0, 3: 1.0 / 30.0}
_SCALINGS = ("accurate", "upwind")


@dataclass(frozen=True)
class DissipationOperator1D:
    """Banded dissipation operator sharing the apply protocol of the SBP ops.

    ``top``, ``bot`` and ``interior`` are the dimensionless rows of
    h^{-h_exponent} * A; ``h_exponent`` is 0 for ``accurate`` scaling and
    -1 for ``upwind``.
    """

    order: int
    scaling: str
    alpha: float
    width: int
    n: int
    top: np.ndarray
    bot: np.ndarray
    interior: np.ndarray
    h_exponent: int


def difference_stencil(p: int) -> np.ndarray:
    """Coefficients of the undivided p-th forward difference."""
    return np.array([(-1.0) ** (p - k) * comb(p, k) for k in range(p + 1)])


def difference_matrix(n: int, p: int) -> np.ndarray:
    """Undivided p-th difference matrix of shape (n - p, n)."""
    stencil = difference_stencil(p)
    s = np.zeros((n - p, n))
    for r in range(n - p):
        s[r, r : r + p + 1] = stencil
    return s


def build_dissipation(order: int, scaling: str, alpha: float, n: int,
                      width: int | None = None) -> DissipationOperator1D:
    """Construct the dissipation operator matched to an SBP order.

    ``alpha`` is a wave-speed scale (units of velocity); alpha = 0 yields
    the zero operator.  ``width`` is the difference order p of the stencil
    and defaults to order/2, the classical companion of the advection
    operator.  A wider stencil (width 3 on the order-4 norm) trades stencil
    size for a much smaller consistency footprint at the closure and is
    used as a fine-grid safeguard for two-stage time integration, whose
    stability region excludes the imaginary axis.
    """
    if order not in _MIN_POINTS:
        raise ValueError(f"unsupported order {order}, expected one of {sorted(_MIN_POINTS)}")
    if scaling not in _SCALINGS:
        raise ValueError(f"unknown scaling {scaling!r}, expected one of {_SCALINGS}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    p = order // 2 if width is None else width
    if p not in _STENCIL_COEF:
        raise ValueError(f"unsupported width {p}, expected one of {sorted(_STENCIL_COEF)}")
    closure = np.array(_P_CLOSURE[order])
    rows = max(p, len(closure))
    if n < max(_MIN_POINTS[order], 2 * rows):
        raise ValueError(
            f"order-{order} dissipation of width {p} needs at least "
            f"{max(_MIN_POINTS[order], 2 * rows)} points, got {n}"
        )
    # The corner of S^T S (S the (n - p) x n difference matrix) only sees
    # the first ``rows`` rows of S, so a (rows, cols) difference block
    # gives it exactly; S^T S is persymmetric and so are the weights,
    # hence the bottom block is the top one reversed.
    cols = rows + p
    weights = np.ones(rows)
    weights[: len(closure)] = closure
    s = difference_matrix(cols, p)
    top = -(alpha * _STENCIL_COEF[p] / weights)[:, None] * (s.T @ s)[:rows]
    stencil = difference_stencil(p)
    interior = -alpha * _STENCIL_COEF[p] * np.convolve(stencil, stencil[::-1])
    return DissipationOperator1D(
        order=order,
        scaling=scaling,
        alpha=float(alpha),
        width=p,
        n=n,
        top=_frozen(top),
        bot=_frozen(top[::-1, ::-1]),
        interior=_frozen(interior),
        h_exponent=0 if scaling == "accurate" else -1,
    )


@dataclass(frozen=True)
class FoldedDissipation1D:
    """Sum of dissipation terms along one axis, grid spacing included.

    Shares the apply protocol of the other banded operators.  Each term's
    h**h_exponent factor is already in ``top``, ``bot`` and ``interior``,
    so ``h_exponent`` is 0.  A sum of P-negative-semidefinite terms is
    P-negative-semidefinite, so folding keeps the energy estimate.
    """

    n: int
    top: np.ndarray
    bot: np.ndarray
    interior: np.ndarray
    h_exponent: int = field(default=0, init=False, repr=False, compare=False)


def _corner(top: np.ndarray, interior: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Top-left (rows, cols) block of an operator given by its closure and stencil."""
    block = np.zeros((rows, cols))
    r, c = top.shape
    block[:r, :c] = top
    width = (len(interior) - 1) // 2
    for i in range(r, rows):
        block[i, i - width : i + width + 1] = interior
    return block


def fold_dissipation(ops, h: float) -> FoldedDissipation1D | None:
    """Sum dissipation operators on one axis of spacing ``h`` into one.

    Returns None for an empty sequence.  The closure blocks are padded to
    the largest closure (a term's interior rows fill its share of it) and
    the stencils to the widest one before they are added.
    """
    ops = tuple(ops)
    if not ops:
        return None
    if len({op.n for op in ops}) != 1:
        raise ValueError("dissipation terms to fold must share their point count")
    rows = max(op.top.shape[0] for op in ops)
    width = max((len(op.interior) - 1) // 2 for op in ops)
    cols = rows + width
    top = np.zeros((rows, cols))
    bot = np.zeros((rows, cols))
    interior = np.zeros(2 * width + 1)
    for op in ops:
        scale = h**op.h_exponent
        w = (len(op.interior) - 1) // 2
        top += scale * _corner(op.top, op.interior, rows, cols)
        bot += scale * _corner(op.bot[::-1, ::-1], op.interior[::-1], rows, cols)
        interior[width - w : width + w + 1] += scale * op.interior
    return FoldedDissipation1D(
        n=ops[0].n,
        top=_frozen(top),
        bot=_frozen(bot[::-1, ::-1]),
        interior=_frozen(interior),
    )


def dense_dissipation(op: DissipationOperator1D, h: float) -> np.ndarray:
    """Materialize A as a dense (n, n) matrix, mainly for inspection."""
    n = op.n
    rows, cols = op.top.shape
    a = np.zeros((n, n))
    width = (len(op.interior) - 1) // 2
    for i in range(rows, n - rows):
        a[i, i - width : i + width + 1] = op.interior
    a[:rows, :cols] = op.top
    a[n - rows :, n - cols :] = op.bot
    return a * h**op.h_exponent
