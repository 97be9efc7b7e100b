"""A package operator as the dense matrix that its banded apply computes."""

import numpy as np

from inductionfd import Grid2D, apply_dx


def applied_matrix(op, h):
    """``op`` (SBP or dissipation) as a dense (n, n) matrix with spacing h:
    the banded apply along x of the identity, whose columns are the unit
    vectors."""
    n = op.n
    grid = Grid2D(0.0, h * (n - 1), 0.0, 1.0, n, n)
    return apply_dx(op, np.eye(n), grid)
