"""Dense reference assembly of the semi-discrete operator.

Everything in this module is built from explicit matrices combined with
Kronecker products, re-deriving the classical operator coefficients
independently of the banded kernels in ``inductionfd``.  Tests compare
the matrix-free right-hand side against ``M @ V`` verbatim, so any
indexing or scaling slip in the production code shows up here.
"""

from __future__ import annotations

import math

import numpy as np

# Classical diagonal-norm first-derivative pairs (P, Q).  Transcribed
# from the standard second- and fourth-order operator tables.
_P2 = np.array([0.5])
_Q2 = {(0, 0): -0.5, (0, 1): 0.5}

_P4 = np.array([17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0])
_Q4 = {
    (0, 0): -0.5,
    (0, 1): 59.0 / 96.0,
    (0, 2): -1.0 / 12.0,
    (0, 3): -1.0 / 32.0,
    (1, 2): 59.0 / 96.0,
    (2, 3): 59.0 / 96.0,
    (2, 4): -1.0 / 12.0,
    (3, 4): 2.0 / 3.0,
    (3, 5): -1.0 / 12.0,
}

_INTERIOR = {
    2: np.array([-0.5, 0.0, 0.5]),
    4: np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0]),
}

_DISS_COEF = {1: 0.5, 2: 1.0 / 12.0}


def dense_p(order: int, n: int, h: float) -> np.ndarray:
    """Dense diagonal norm matrix P (physical units)."""
    closure = {2: _P2, 4: _P4}[order]
    w = np.ones(n)
    w[: closure.size] = closure
    w[n - closure.size:] = closure[::-1]
    return np.diag(h * w)


def dense_q(order: int, n: int) -> np.ndarray:
    """Dense skew part Q with Q + Q^T = diag(-1, 0, ..., 0, 1)."""
    q = np.zeros((n, n))
    stencil = _INTERIOR[order]
    half = stencil.size // 2
    rows = {2: 1, 4: 4}[order]
    for i in range(rows, n - rows):
        q[i, i - half: i + half + 1] = stencil
    closure = {2: _Q2, 4: _Q4}[order]
    for (i, j), val in closure.items():
        q[i, j] = val
        if i != j:
            q[j, i] = -val
        # mirrored closure block: q[n-1-i, n-1-j] = -q[i, j]
        q[n - 1 - i, n - 1 - j] = -val
        if i != j:
            q[n - 1 - j, n - 1 - i] = val
    q[0, 0] = -0.5
    q[n - 1, n - 1] = 0.5
    return q


def dense_d(order: int, n: int, h: float) -> np.ndarray:
    """Dense derivative D = P^{-1} Q."""
    return np.linalg.solve(dense_p(order, n, h), dense_q(order, n))


def dense_difference(n: int, p: int) -> np.ndarray:
    """Undivided p-th difference matrix of shape (n - p, n)."""
    stencil = np.array([(-1.0) ** (p - k) * math.comb(p, k) for k in range(p + 1)])
    s = np.zeros((n - p, n))
    for i in range(n - p):
        s[i, i: i + p + 1] = stencil
    return s


def dense_dissipation(order: int, scaling: str, alpha: float, n: int,
                      h: float) -> np.ndarray:
    """Dense dissipation A = -alpha c_p s(h) P^{-1} S^T S."""
    p = order // 2
    s_mat = dense_difference(n, p)
    s_h = h if scaling == "accurate" else 1.0
    pinv = np.linalg.inv(dense_p(order, n, h))
    return -alpha * _DISS_COEF[p] * s_h * (pinv @ s_mat.T @ s_mat)


def dense_rhs_matrix(grid, order: int, velocity, theta: float = 1.0,
                     dissipation: str | None = None,
                     alpha: float = 0.0) -> np.ndarray:
    """Assemble the full 2N x 2N semi-discrete operator with g = 0.

    Ordering matches the solver storage: component-major, x-major with y
    innermost, i.e. ``V = [V1.ravel(), V2.ravel()]`` for C-ordered
    (npx, npy) grids.
    """
    npx, npy = grid.npx, grid.npy
    nn = npx * npy
    x, y = np.meshgrid(grid.x, grid.y, indexing="ij")
    u1, u2 = (np.broadcast_to(c, (npx, npy)).astype(float)
              for c in velocity(x, y))

    dx_mat = dense_d(order, npx, grid.dx)
    dy_mat = dense_d(order, npy, grid.dy)
    ix, iy = np.eye(npx), np.eye(npy)
    dx2 = np.kron(dx_mat, iy)
    dy2 = np.kron(ix, dy_mat)

    adv = -np.diag(u1.ravel()) @ dx2 - np.diag(u2.ravel()) @ dy2

    # velocity-gradient grids via the same dense derivative
    du1dx = (dx_mat @ u1).ravel()
    du2dx = (dx_mat @ u2).ravel()
    du1dy = (u1 @ dy_mat.T).ravel()
    du2dy = (u2 @ dy_mat.T).ravel()

    m = np.zeros((2 * nn, 2 * nn))
    m[:nn, :nn] = adv + np.diag(-du2dy)
    m[:nn, nn:] = np.diag(du1dy)
    m[nn:, :nn] = np.diag(du2dx)
    m[nn:, nn:] = adv + np.diag(-du1dx)

    # SAT penalties: sigma/(h * p_end) on boundary nodes, both components
    p_end = {2: _P2[0], 4: _P4[0]}[order]
    sat = np.zeros((npx, npy))
    for side, u_in, hh in (
        ("xmin", u1[0, :], grid.dx),
        ("xmax", -u1[-1, :], grid.dx),
        ("ymin", u2[:, 0], grid.dy),
        ("ymax", -u2[:, -1], grid.dy),
    ):
        sigma = -theta * np.maximum(u_in, 0.0)
        coef = sigma / (hh * p_end)
        if side == "xmin":
            sat[0, :] += coef
        elif side == "xmax":
            sat[-1, :] += coef
        elif side == "ymin":
            sat[:, 0] += coef
        else:
            sat[:, -1] += coef
    m[:nn, :nn] += np.diag(sat.ravel())
    m[nn:, nn:] += np.diag(sat.ravel())

    if dissipation is not None and dissipation != "none":
        ax = dense_dissipation(order, dissipation, alpha, npx, grid.dx)
        ay = dense_dissipation(order, dissipation, alpha, npy, grid.dy)
        spread = np.kron(ax, iy) + np.kron(ix, ay)
        m[:nn, :nn] += spread
        m[nn:, nn:] += spread
    return m
