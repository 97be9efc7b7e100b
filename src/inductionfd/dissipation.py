"""Norm-compatible artificial dissipation operators.

The operator is A = -alpha * c_p * s(h) * P^{-1} Delta_p^T Delta_p where
Delta_p is the undivided p-th difference with p = order/2 and
c_p = 1/(2p(2p-1)): c_1 = 1/2, c_2 = 1/12.  With the ``accurate``
scaling s(h) = h the interior perturbation is O(h^2) (order 2) or O(h^4)
(order 4), so the formal order of the advection discretization is
retained; the ``upwind`` scaling
s(h) = 1 strengthens the damping by one power of h and lowers the formal
order by one, reproducing the classical first- and third-order upwind
schemes in the interior.

A annihilates constants, and w^T P A w = -alpha c_p s(h) |Delta_p w|^2 <= 0,
so the operator can only remove energy in the P inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .sbp import _frozen, closure_weights

#: stencil scaling c_p = 1/(2p(2p-1)) for the undivided p-th difference
_STENCIL_COEF = {1: 1.0 / 2.0, 2: 1.0 / 12.0}
#: power of h multiplying the dimensionless tables, by scaling: A's
#: s(h) P^{-1} is h/h for ``accurate`` and 1/h for ``upwind``
SCALINGS = {"accurate": 0, "upwind": -1}


@dataclass(frozen=True, eq=False)
class DissipationOperator1D:
    """Banded dissipation operator A, applied like the SBP operators.

    A ``BandedStencil`` reads from it what it reads from an SBP operator:
    the node count ``n``, the dimensionless rows ``top``, ``bot`` and
    ``interior`` of h^{-h_exponent} * A, and ``h_exponent``, the power
    of h that ``SCALINGS`` gives the operator's scaling.
    """

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


def build_dissipation(order: int, scaling: str, alpha: float,
                      n: int) -> DissipationOperator1D:
    """Construct the dissipation operator matched to an SBP order.

    ``alpha`` is a wave-speed scale (units of velocity); alpha = 0 yields
    the zero operator.  The stencil is the undivided difference of order
    p = order/2, the classical companion of the advection operator.  It
    shares the SBP norm: ``closure_weights`` gives it and checks order, n.
    """
    weights = closure_weights(order, n)
    if scaling not in SCALINGS:
        raise ValueError(f"unknown scaling {scaling!r}, expected one of {tuple(SCALINGS)}")
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
    p = order // 2
    # The corner of S^T S (S the (n - p) x n difference matrix) only sees
    # the first ``rows`` rows of S, so the difference matrix on rows + p
    # points gives it exactly; S^T S is persymmetric and so are the
    # weights, hence the bottom block is the top one reversed.
    rows = len(weights)
    s = difference_matrix(rows + p, p)
    top = -(alpha * _STENCIL_COEF[p] / weights)[:, None] * (s.T @ s)[:rows]
    stencil = difference_stencil(p)
    interior = -alpha * _STENCIL_COEF[p] * np.convolve(stencil, stencil[::-1])
    return DissipationOperator1D(
        n=n,
        top=_frozen(top),
        bot=_frozen(top[::-1, ::-1]),
        interior=_frozen(interior),
        h_exponent=SCALINGS[scaling],
    )
