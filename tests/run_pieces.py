"""The pieces of a run's right-hand side, rebuilt with the public builders.

``RunSetup`` keeps only the assembled ``rhs``; tests that look at the
boundary data, the SAT penalties or the dissipation operators of a run
rebuild them here from ``setup.spec``, ``setup.scheme`` and ``setup.grid``,
and check that ``setup.rhs`` applies exactly those pieces.
"""

from typing import NamedTuple

import numpy as np

from inductionfd import (
    BoundaryData,
    DissipationOperator1D,
    SatConfig,
    VelocityCoeffs,
    build_dissipation,
    compute_rhs,
    make_sat_config,
    sample_velocity,
)


class RunPieces(NamedTuple):
    coeffs: VelocityCoeffs
    bdata: BoundaryData
    sat: SatConfig
    diss_x: DissipationOperator1D | None
    diss_y: DissipationOperator1D | None


def run_pieces(setup) -> RunPieces:
    """(coeffs, bdata, sat, diss_x, diss_y) of the run ``setup`` describes."""
    spec, scheme, grid = setup.spec, setup.scheme, setup.grid
    coeffs = sample_velocity(spec.velocity, grid, setup.op_x, setup.op_y)
    bdata = BoundaryData(grid, spec.boundary)
    sat = make_sat_config(coeffs, grid, setup.op_x, setup.op_y, scheme.theta)
    diss = (None, None)
    if scheme.dissipation != "none":
        diss = tuple(build_dissipation(scheme.order, scheme.dissipation,
                                       coeffs.max_speed, n) for n in grid.shape)
    return RunPieces(coeffs, bdata, sat, *diss)


def pieces_rhs(setup, pieces: RunPieces, t: float, v: np.ndarray) -> np.ndarray:
    """``compute_rhs`` on the rebuilt pieces and the run's operators."""
    return compute_rhs(v, t, setup.grid, pieces.coeffs, pieces.bdata, pieces.sat,
                       setup.op_x, setup.op_y, pieces.diss_x, pieces.diss_y)


def assert_rhs_applies(setup, pieces: RunPieces, t: float = 0.3, seed: int = 0) -> None:
    """``setup.rhs`` agrees with ``compute_rhs`` on ``pieces`` within 1e-13."""
    v = np.random.default_rng(seed).standard_normal(setup.v0.data.shape)
    np.testing.assert_allclose(setup.rhs(t, v), pieces_rhs(setup, pieces, t, v),
                               rtol=0, atol=1e-13)
