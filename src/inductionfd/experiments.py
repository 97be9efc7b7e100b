"""Benchmark problems and study harnesses.

Three problems exercise the scheme:

1. A divergence-free Gaussian hump rotated by u = (-y, x) inside
   [-1, 1]^2 with homogeneous Dirichlet data; the hump never reaches the
   boundary during a rotation.
2. The same hump and velocity on [0, 1]^2 with exact-solution Dirichlet
   data, so the hump repeatedly leaves and re-enters the domain.
3. A piecewise-constant field translated by u = (1, 2) across [0, 1]^2
   with exact inflow data, probing behaviour at a discontinuity.

Scheme names follow the convention: ``sbp2`` and ``sbp4`` are the plain
second- and fourth-order schemes; ``sbp1`` and ``sbp3`` add the
upwind-scaled dissipation to them, lowering the formal order by one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .diagnostics import (
    ErrorRecord,
    discrete_divergence,
    l2_norm,
    p_energy,
    rel_percent_error,
)
from .dissipation import DissipationOperator1D, build_dissipation
from .grid import Grid2D
from .induction import (
    BoundaryData,
    InductionRhs,
    MagneticField,
    SatConfig,
    VelocityCoeffs,
    make_sat_config,
    sample_velocity,
)
from .sbp import SbpOperator1D, build_sbp
from .timestep import InstabilityError, IntegratorConfig, integrate

DISSIPATION_MODES = ("none", "accurate", "upwind")

#: a run whose final P-energy exceeds this multiple of the larger of its
#: initial and exact final P-energies has blown up.  The semi-discrete
#: scheme produces no energy beyond what the inflow data brings; 144
#: regular runs (experiments 1, 1 with exact data, 2 and 3; sbp1-sbp4 as
#: registered; 10, 20 and 40 squared grids; t = 0.5, 1 and 2) peaked at
#: a ratio of 1.025, while blown-up runs reach 1e6 and far beyond.
ENERGY_LIMIT = 10.0


@dataclass(frozen=True)
class SchemeConfig:
    """Operator order plus dissipation, penalty and integrator choices.

    A dissipation mode other than ``none`` adds one term along each axis
    whose strength is the largest sampled speed |u1| + |u2|.
    """

    name: str
    order: int
    dissipation: str = "none"
    theta: float = 1.0
    cfl: float = 0.45
    integrator: str = "rk2"

    def __post_init__(self) -> None:
        if self.dissipation not in DISSIPATION_MODES:
            raise ValueError(
                f"unknown dissipation mode {self.dissipation!r}, "
                f"expected one of {DISSIPATION_MODES}"
            )


#: ``sbp4`` has no dissipation, so its spectrum lies on or next to the
#: imaginary axis.  The two-stage method amplifies such modes
#: (|1 + z + z^2/2| > 1 there); classical RK4 is stable on the imaginary
#: axis up to |z| = 2*sqrt(2), so ``sbp4`` runs RK4 at twice the CFL number.
SCHEMES = {
    "sbp1": SchemeConfig("sbp1", order=2, dissipation="upwind"),
    "sbp2": SchemeConfig("sbp2", order=2, dissipation="none"),
    "sbp3": SchemeConfig("sbp3", order=4, dissipation="upwind"),
    "sbp4": SchemeConfig("sbp4", order=4, integrator="rk4", cfl=0.9),
}


def scheme_config(name: str, **overrides) -> SchemeConfig:
    """Look up a named scheme, optionally overriding its fields."""
    try:
        base = SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}, expected one of {sorted(SCHEMES)}"
        ) from None
    return replace(base, **overrides) if overrides else base


def study_config(name: str) -> SchemeConfig:
    """Scheme configuration used by the convergence/long-time studies.

    The plain order-4 scheme gains accurate-scaled dissipation, which
    keeps its formal order and lowers its fine-grid error where the hump
    crosses the boundary (experiment 2 at 80^2, t = pi/2: 0.0325 percent
    without, 0.02095 percent with); every other scheme runs exactly as
    registered.
    """
    scheme = scheme_config(name)
    if name == "sbp4":
        return replace(scheme, dissipation="accurate")
    return scheme


def study_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Experiment variant used by the convergence studies.

    The rotating hump on the large domain keeps zero far-field data as its
    default (the long-time runs rely on it), but its initial data is about
    1e-2 at the nearest boundary, so zero inflow data injects a fixed
    ~0.5 percent error plateau.  The convergence tables are measured with
    the exact boundary trace instead, which removes the plateau without
    touching the scheme.
    """
    if spec.id == 1 and spec.boundary_mode == "zero":
        return replace(spec, boundary_mode="exact")
    return spec


@dataclass(frozen=True)
class ExperimentSpec:
    """A benchmark problem: domain, velocity, data and defaults."""

    id: int
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    velocity: Callable
    initial: Callable
    exact: Callable
    boundary_mode: str
    t_final: float
    grids: tuple[int, ...]
    divergence_free: bool

    def make_grid(self, npx: int, npy: int) -> Grid2D:
        return Grid2D(self.xmin, self.xmax, self.ymin, self.ymax, npx, npy)


def _hump(x, y):
    """Divergence-free Gaussian hump centred at (1/2, 0)."""
    r2 = (x - 0.5) ** 2 + y**2
    amp = 4.0 * np.exp(-20.0 * r2)
    return -amp * y, amp * (x - 0.5)


def _rotated_hump(x, y, t):
    """The hump advected by the rotation u = (-y, x): R(t) b0(R(-t) x)."""
    c, s = np.cos(t), np.sin(t)
    x0 = c * x + s * y
    y0 = -s * x + c * y
    b1, b2 = _hump(x0, y0)
    return c * b1 - s * b2, s * b1 + c * b2


def _rotation_velocity(x, y):
    return -y, x


def _step_data(x, y):
    b = np.where(np.asarray(x) > np.asarray(y), 2.0, 0.0)
    return b, b.copy()


def _translated_step(x, y, t):
    return _step_data(np.asarray(x) - t, np.asarray(y) - 2.0 * t)


def experiment1() -> ExperimentSpec:
    """Rotating hump on [-1, 1]^2 with zero far-field Dirichlet data."""
    return ExperimentSpec(
        id=1,
        xmin=-1.0, xmax=1.0, ymin=-1.0, ymax=1.0,
        velocity=_rotation_velocity,
        initial=_hump,
        exact=_rotated_hump,
        boundary_mode="zero",
        t_final=2.0 * np.pi,
        grids=(40, 80, 160, 320, 640),
        divergence_free=True,
    )


def experiment2() -> ExperimentSpec:
    """Rotating hump on [0, 1]^2 with exact-solution Dirichlet data."""
    return ExperimentSpec(
        id=2,
        xmin=0.0, xmax=1.0, ymin=0.0, ymax=1.0,
        velocity=_rotation_velocity,
        initial=_hump,
        exact=_rotated_hump,
        boundary_mode="exact",
        t_final=2.0 * np.pi,
        grids=(10, 20, 40, 80, 160),
        divergence_free=True,
    )


def experiment3() -> ExperimentSpec:
    """Discontinuous data translated by u = (1, 2) on [0, 1]^2."""
    return ExperimentSpec(
        id=3,
        xmin=0.0, xmax=1.0, ymin=0.0, ymax=1.0,
        velocity=lambda x, y: (np.ones_like(np.asarray(x, dtype=float)),
                               np.full_like(np.asarray(x, dtype=float), 2.0)),
        initial=_step_data,
        exact=_translated_step,
        boundary_mode="exact",
        t_final=0.5,
        grids=(100,),
        divergence_free=False,
    )


_EXPERIMENTS = {1: experiment1, 2: experiment2, 3: experiment3}


def get_experiment(ident: int) -> ExperimentSpec:
    try:
        return _EXPERIMENTS[ident]()
    except KeyError:
        raise ValueError(
            f"unknown experiment {ident!r}, expected one of {sorted(_EXPERIMENTS)}"
        ) from None


@dataclass(frozen=True)
class RunSetup:
    """Everything needed to advance one (experiment, scheme, grid) run.

    ``diss_x``/``diss_y`` are the scheme's dissipation operators, None
    without dissipation.  ``rhs`` is the run's assembled tendency, called
    as ``rhs(t, v)``; every run advances through it.
    """

    spec: ExperimentSpec
    scheme: SchemeConfig
    grid: Grid2D
    op_x: SbpOperator1D
    op_y: SbpOperator1D
    coeffs: VelocityCoeffs
    bdata: BoundaryData
    sat: SatConfig
    diss_x: DissipationOperator1D | None
    diss_y: DissipationOperator1D | None
    v0: MagneticField
    rhs: InductionRhs


def assemble(
    spec: ExperimentSpec,
    scheme: SchemeConfig,
    npx: int,
    npy: int,
) -> RunSetup:
    """Build grid, operators, coefficients, data and the assembled RHS
    for one run.

    Raises ValueError for a grid too small for the scheme's operators.
    """
    grid = spec.make_grid(npx, npy)
    op_x = build_sbp(scheme.order, npx)
    op_y = op_x if npy == npx else build_sbp(scheme.order, npy)
    coeffs = sample_velocity(spec.velocity, grid, op_x, op_y)
    if spec.boundary_mode == "zero":
        bdata = BoundaryData.zero(grid)
    else:
        bdata = BoundaryData.from_exact(grid, spec.exact)
    sat = make_sat_config(coeffs, grid, op_x, op_y, scheme.theta)
    diss_x = diss_y = None
    if scheme.dissipation != "none":
        alpha = coeffs.max_speed
        diss_x = build_dissipation(scheme.order, scheme.dissipation, alpha, npx)
        diss_y = diss_x if npy == npx else build_dissipation(
            scheme.order, scheme.dissipation, alpha, npy)
    v0 = MagneticField.sample(grid, spec.initial)
    rhs = InductionRhs(grid, coeffs, bdata, sat, op_x, op_y, diss_x, diss_y)
    return RunSetup(
        spec=spec, scheme=scheme, grid=grid, op_x=op_x, op_y=op_y, coeffs=coeffs,
        bdata=bdata, sat=sat, diss_x=diss_x, diss_y=diss_y, v0=v0, rhs=rhs,
    )


def run_single(
    setup: RunSetup,
    t_final: float | None = None,
    hook: Callable | None = None,
    hook_every: int = 1,
    t0: float = 0.0,
) -> tuple[MagneticField, ErrorRecord]:
    """Integrate ``setup.v0`` from ``t0`` to ``t_final`` (default: the spec's).

    Returns the final field and its record: relative error, divergence l2
    and P-energy at ``t_final``.  A run has blown up even if every state
    stayed finite when its final error or P-energy is not finite, or when
    its final P-energy exceeds ``ENERGY_LIMIT`` times the larger of the
    P-energies of ``setup.v0`` and of the exact field at ``t_final``; it
    then raises InstabilityError as a non-finite state does.
    """
    config = IntegratorConfig(
        t_final=setup.spec.t_final if t_final is None else t_final,
        method=setup.scheme.integrator,
        cfl=setup.scheme.cfl,
    )
    grid, op_x, op_y = setup.grid, setup.op_x, setup.op_y
    v, _ = integrate(
        setup.v0.data, config, setup.rhs, t0=t0,
        grid=grid, coeffs=setup.coeffs, hook=hook, hook_every=hook_every,
    )
    exact = MagneticField.sample(grid, lambda x, y: setup.spec.exact(x, y, config.t_final))
    reference = max(p_energy(setup.v0.data, grid, op_x, op_y),
                    p_energy(exact.data, grid, op_x, op_y))
    del exact  # free it before rel_percent_error samples the exact field again
    with np.errstate(over="ignore"):
        err = rel_percent_error(v, setup.spec.exact, config.t_final, grid)
        energy = p_energy(v, grid, op_x, op_y)
    if not (np.isfinite(err) and energy <= ENERGY_LIMIT * reference):
        raise InstabilityError(
            f"run ended with error {err:.6g}% and P-energy {energy:.6g}, "
            f"{energy / reference:.3g} times the larger of the initial and exact "
            f"P-energies (limit {ENERGY_LIMIT:g}), at t={config.t_final:.6g} "
            f"(max |B| {np.abs(v).max():.6g})",
            time=config.t_final,
            last_state=v,
        )
    record = ErrorRecord(
        grid_label=f"{grid.npx}x{grid.npy}",
        error_percent=err,
        div_l2=l2_norm(discrete_divergence(v, grid, setup.op_x, setup.op_y), grid),
        energy=energy,
        time=config.t_final,
    )
    return MagneticField(grid, v), record


def run_convergence_study(
    spec: ExperimentSpec,
    schemes: Sequence[SchemeConfig],
    grids: Sequence[int] | None = None,
    t_final: float | None = None,
) -> dict[str, list[ErrorRecord]]:
    """Run each scheme over a family of n x n grids and measure final errors.

    An unstable run is recorded as a failed row (nan values) and the study
    continues with the remaining grids.
    """
    grids = spec.grids if grids is None else tuple(grids)
    t_end = spec.t_final if t_final is None else t_final
    results: dict[str, list[ErrorRecord]] = {}
    for scheme in schemes:
        records = []
        for n in grids:
            setup = assemble(spec, scheme, n, n)
            try:
                _, record = run_single(setup, t_final=t_end)
            except InstabilityError as exc:
                records.append(
                    ErrorRecord(
                        grid_label=f"{n}x{n}",
                        error_percent=float("nan"),
                        div_l2=float("nan"),
                        energy=float("nan"),
                        time=exc.time if exc.time is not None else float("nan"),
                        failed=True,
                    )
                )
                continue
            records.append(record)
        results[scheme.name] = records
    return results


def run_long_time(
    spec: ExperimentSpec,
    scheme: SchemeConfig,
    npx: int,
    npy: int,
    rotations: int,
) -> list[ErrorRecord]:
    """Integrate full rotations (period 2*pi) and measure after each one.

    Returns one record per completed rotation, starting with the exact
    initial state at t = 0.  Each rotation is one ``run_single`` from the
    previous rotation's field, so a blow-up raises InstabilityError with
    the time counted from t = 0.
    """
    if rotations < 0:
        raise ValueError(f"rotations must be nonnegative, got {rotations}")
    setup = assemble(spec, scheme, npx, npy)
    period = 2.0 * np.pi
    field, record = run_single(setup, t_final=0.0)
    records = [record]
    for k in range(1, rotations + 1):
        field, record = run_single(
            replace(setup, v0=field), t0=(k - 1) * period, t_final=k * period
        )
        records.append(record)
    return records
