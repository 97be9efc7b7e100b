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
    p_weights,
    percent_error,
)
from .dissipation import SCALINGS, build_dissipation
from .grid import Grid2D
from .induction import (
    BoundaryData,
    InductionRhs,
    MagneticField,
    VelocityCoeffs,
    make_sat_config,
    sample_velocity,
)
from .sbp import SbpOperator1D, build_sbp, closure_weights
from .timestep import (InstabilityError, IntegratorConfig, check_integrator, compute_dt,
                       integrate)

DISSIPATION_MODES = ("none", *SCALINGS)

#: a run whose P-energy after any step exceeds this multiple of the larger
#: of its initial and exact final P-energies has blown up.  The scheme adds
#: no energy beyond the inflow data's, but one RK4 step may (Sun & Shu,
#: 2017): 144 regular runs (experiments 1, 1 with exact data, 2 and 3;
#: sbp1-sbp4 as registered; 10, 20 and 40 squared grids; t = 0.5, 1, 2)
#: peaked at a per-step ratio of 1.98, while blown-up runs grow unbounded.
#: The 36 sbp3 runs of that sweep, run again under SSPRK(3,2) at Courant
#: 1.4, peak at 1.93 (experiment 2, 40^2, t = 2), as under RK2 at 0.7.
ENERGY_LIMIT = 10.0


@dataclass(frozen=True)
class SchemeConfig:
    """Operator order plus dissipation, penalty and integrator choices.

    A dissipation mode other than ``none`` adds one term along each axis
    whose strength is the largest sampled speed |u1| + |u2|.  ``cfl``
    sets the step through :attr:`courant`: RK4 without upwind dissipation
    and SSPRK(3,2) with it step at an advective Courant number of twice
    ``cfl``, every other combination at ``cfl`` itself (see
    ``COURANT_PER_CFL``).  A scheme is checked when built, before any
    run.  It owns two rules: a finite theta >= 1/2 keeps the SAT boundary
    terms of the energy estimate non-positive, and cfl lies in (0, 1].
    It asks the owners of the others: ``sbp.closure_weights`` (the order),
    ``timestep.check_integrator`` and ``dissipation.SCALINGS``.
    """

    name: str
    order: int
    dissipation: str = "none"
    theta: float = 1.0
    cfl: float = 0.45
    integrator: str = "rk2"

    def __post_init__(self) -> None:
        closure_weights(self.order)
        if self.dissipation not in DISSIPATION_MODES:
            raise ValueError(
                f"unknown dissipation mode {self.dissipation!r}, "
                f"expected one of {DISSIPATION_MODES}"
            )
        if not 0.5 <= self.theta < np.inf:
            raise ValueError(f"penalty factor theta must be finite and >= 0.5, "
                             f"got {self.theta}")
        if not (0 < self.cfl <= 1):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        check_integrator(self.integrator)

    @property
    def courant(self) -> float:
        """Advective Courant number of the step: ``cfl`` times the factor
        of ``COURANT_PER_CFL`` (1 where the table has no entry)."""
        return COURANT_PER_CFL.get((self.integrator, self.dissipation), 1.0) * self.cfl


#: Advective Courant number per unit of ``cfl``, keyed by (integrator,
#: dissipation); a combination not listed takes ``cfl`` itself.  The
#: largest stable Courant number c, with max|R(c dt_1 lambda)| <= 1 + 1e-9
#: over the eigenvalues lambda of the dense operator (dt_1 the Courant-1
#: step, experiments 1-3 on 20^2 and 40^2), measured 2.06-3.0 for RK4
#: without upwind dissipation, on both orders, so every cfl in (0, 1]
#: keeps those runs stable at factor 2.  With upwind dissipation the
#: spectrum fills a disk in the left half-plane: RK4 is stable only to 0.68
#: (order 2) and 1.04 (order 4), and RK2 to 0.49 (sbp1) and 0.75-0.945
#: (sbp3), so they keep factor 1, while SSPRK(3,2), whose stability region
#: holds a disk twice as wide as RK2's, is stable to 1.115-1.125 (sbp1) and
#: 1.695-2.145 (sbp3): factor 2 on both orders.  The spectrum alone is not
#: sufficient for a non-normal operator (Reddy & Trefethen, Numer. Math. 62,
#: 1992; Sun & Shu, Ann. Math. Sci. Appl. 2, 2017); long runs to t = 20
#: check it, and fine grids bind first: sbp3 on experiment 3 at 160^2 stays
#: bounded up to Courant 0.75 under RK2 and 1.5 under SSPRK(3,2), and
#: blows up at 0.8 and 1.6.
COURANT_PER_CFL = {("rk4", "none"): 2.0, ("rk4", "accurate"): 2.0,
                   ("ssp32", "upwind"): 2.0}

#: ``sbp2`` and ``sbp4`` have no dissipation, so their spectra lie on or
#: next to the imaginary axis.  RK2 amplifies such modes (``sbp2`` at cfl
#: 0.45 by up to 1.0035 per step); classical RK4 is stable on the imaginary
#: axis up to |z| = 2*sqrt(2), so both run RK4 at cfl 0.9, a Courant number
#: of 1.8.  ``sbp3`` runs SSPRK(3,2) at cfl 0.7, a Courant number of 1.4,
#: 90 percent of its fine-grid limit of about 1.55: twice RK2's step for
#: 1.5 times its stages.  ``sbp1`` runs RK2 at 0.45.
SCHEMES = {
    "sbp1": SchemeConfig("sbp1", order=2, dissipation="upwind"),
    "sbp2": SchemeConfig("sbp2", order=2, integrator="rk4", cfl=0.9),
    "sbp3": SchemeConfig("sbp3", order=4, dissipation="upwind", integrator="ssp32",
                         cfl=0.7),
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
    without, 0.02096 percent with); every other scheme runs exactly as
    registered.
    """
    scheme = scheme_config(name)
    if name == "sbp4":
        return replace(scheme, dissipation="accurate")
    return scheme


def study_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Experiment variant used by the convergence studies: zero data is
    replaced by the exact boundary trace; a spec with data is returned.

    The rotating hump on the large domain keeps zero far-field data as its
    default (the long-time runs rely on it), but its initial data is about
    1e-2 at the nearest boundary, so zero inflow data injects a fixed
    ~0.5 percent error plateau.  The convergence tables are measured with
    the exact boundary trace instead, which removes the plateau without
    touching the scheme.
    """
    return spec if spec.boundary is not None else replace(spec, boundary=spec.exact)


@dataclass(frozen=True)
class ExperimentSpec:
    """A benchmark problem: domain, velocity, data and defaults.

    ``velocity`` (X, Y) -> (u1, u2), ``initial`` (X, Y) -> (B1, B2) and
    ``exact`` (X, Y, t) -> (B1, B2) are elementwise: they are called on the
    open mesh X = x[:, None], Y = y[None, :], ``exact`` also on 1-D side
    coordinates with t one time or a column (T, 1) of times broadcast
    against them (``BoundaryData``), and each component may be any value
    that broadcasts.
    ``boundary`` is the Dirichlet data: a callable like ``exact``, or None
    for zero data (``BoundaryData`` rejects anything else).
    """

    id: int
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    velocity: Callable
    initial: Callable
    exact: Callable
    boundary: Callable | None
    t_final: float
    grids: tuple[int, ...]

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
        boundary=None,
        t_final=2.0 * np.pi,
        grids=(40, 80, 160, 320, 640),
    )


def experiment2() -> ExperimentSpec:
    """Rotating hump on [0, 1]^2 with exact-solution Dirichlet data."""
    return ExperimentSpec(
        id=2,
        xmin=0.0, xmax=1.0, ymin=0.0, ymax=1.0,
        velocity=_rotation_velocity,
        initial=_hump,
        exact=_rotated_hump,
        boundary=_rotated_hump,
        t_final=2.0 * np.pi,
        grids=(10, 20, 40, 80, 160),
    )


def experiment3() -> ExperimentSpec:
    """Discontinuous data translated by u = (1, 2) on [0, 1]^2."""
    return ExperimentSpec(
        id=3,
        xmin=0.0, xmax=1.0, ymin=0.0, ymax=1.0,
        velocity=lambda x, y: (1.0, 2.0),
        initial=_step_data,
        exact=_translated_step,
        boundary=_translated_step,
        t_final=0.5,
        grids=(100,),
    )


#: the benchmark problems by id, as the CLI offers them
EXPERIMENTS = {1: experiment1, 2: experiment2, 3: experiment3}


def get_experiment(ident: int) -> ExperimentSpec:
    try:
        return EXPERIMENTS[ident]()
    except KeyError:
        raise ValueError(
            f"unknown experiment {ident!r}, expected one of {sorted(EXPERIMENTS)}"
        ) from None


@dataclass(frozen=True)
class RunSetup:
    """Everything needed to advance one (experiment, scheme, grid) run.

    ``rhs`` is the run's assembled tendency, called as ``rhs(t, v)``; every
    run advances through it, and it owns the boundary data, the SAT
    penalties and the dissipation operators.  ``coeffs`` gives the CFL
    step, and ``op_x``/``op_y`` the P-energy and the divergence.
    """

    spec: ExperimentSpec
    scheme: SchemeConfig
    grid: Grid2D
    op_x: SbpOperator1D
    op_y: SbpOperator1D
    coeffs: VelocityCoeffs
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
    bdata = BoundaryData(grid, spec.boundary)
    sat = make_sat_config(coeffs, grid, op_x, op_y, scheme.theta)
    diss_x = diss_y = None
    if scheme.dissipation != "none":
        alpha = coeffs.max_speed
        diss_x = build_dissipation(scheme.order, scheme.dissipation, alpha, npx)
        diss_y = diss_x if npy == npx else build_dissipation(
            scheme.order, scheme.dissipation, alpha, npy)
    return RunSetup(
        spec=spec, scheme=scheme, grid=grid, op_x=op_x, op_y=op_y, coeffs=coeffs,
        v0=MagneticField.sample(grid, spec.initial),
        rhs=InductionRhs(grid, coeffs, bdata, sat, op_x, op_y, diss_x, diss_y),
    )


def run_single(
    setup: RunSetup,
    t_final: float | None = None,
    hook: Callable | None = None,
    hook_every: int = 1,
    t0: float = 0.0,
) -> tuple[MagneticField, ErrorRecord]:
    """Integrate ``setup.v0`` from ``t0`` to ``t_final`` (default: the spec's)
    with the scheme's integrator at the step ``compute_dt`` gives for the
    scheme's Courant number (``SchemeConfig.courant``).

    Returns the final field and its record: relative error, divergence l2
    and P-energy at ``t_final``, the record's ``time`` (no other function
    resolves None).  The exact field at ``t_final`` is sampled once;
    ``integrate`` raises InstabilityError at the first step whose
    P-energy exceeds ``ENERGY_LIMIT`` times the larger of its P-energy and
    that of ``setup.v0``.
    """
    grid, op_x, op_y = setup.grid, setup.op_x, setup.op_y
    config = IntegratorConfig(
        t_final=setup.spec.t_final if t_final is None else t_final,
        fixed_dt=compute_dt(grid, setup.coeffs, setup.scheme.courant),
        method=setup.scheme.integrator,
    )
    exact = MagneticField.sample(grid, lambda x, y: setup.spec.exact(x, y, config.t_final))
    limit = ENERGY_LIMIT * max(p_energy(setup.v0.data, grid, op_x, op_y),
                               p_energy(exact.data, grid, op_x, op_y))
    v, _ = integrate(setup.v0.data, config, setup.rhs, t0=t0, hook=hook,
                     hook_every=hook_every,
                     energy_bound=(p_weights(grid, op_x, op_y), limit))
    record = ErrorRecord(
        grid_label=f"{grid.npx}x{grid.npy}",
        error_percent=percent_error(v, exact.data),
        div_l2=l2_norm(discrete_divergence(v, grid, op_x, op_y), grid),
        energy=p_energy(v, grid, op_x, op_y),
        time=config.t_final,
    )
    return MagneticField(grid, v), record


def run_convergence_study(
    spec: ExperimentSpec,
    schemes: Sequence[SchemeConfig],
    grids: Sequence[int] | None = None,
    t_final: float | None = None,
) -> dict[str, list[ErrorRecord]]:
    """Run each scheme over a family of n x n grids and measure final errors
    at ``t_final``, which goes to ``run_single`` as given.

    An unstable run is recorded as a failed row (nan values, the time of
    the rejected step) and the study continues with the remaining grids.
    """
    grids = spec.grids if grids is None else tuple(grids)
    results: dict[str, list[ErrorRecord]] = {}
    for scheme in schemes:
        records = []
        for n in grids:
            setup = assemble(spec, scheme, n, n)
            try:
                _, record = run_single(setup, t_final=t_final)
            except InstabilityError as exc:
                nan = float("nan")
                record = ErrorRecord(f"{n}x{n}", nan, nan, nan, exc.time, failed=True)
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
