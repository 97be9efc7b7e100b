"""Command-line front end for single runs and convergence studies."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import ErrorRecord, convergence_rate, discrete_divergence
from .experiments import (
    DISSIPATION_MODES,
    SCHEMES,
    SchemeConfig,
    assemble,
    get_experiment,
    run_convergence_study,
    run_single,
    scheme_config,
    study_config,
    study_spec,
)
from .induction import MagneticField
from .timestep import METHODS, InstabilityError

_EXAMPLES = """examples:
  inductionfd --experiment 1 --scheme sbp4 --nx 160 --ny 160
  inductionfd --experiment 2 --scheme sbp2 --study --out results
"""


@dataclass(frozen=True)
class RunConfig:
    """Validated CLI parameters for one invocation."""

    experiment: int
    scheme: str
    nx: int
    ny: int
    cfl: float
    t_final: float | None
    integrator: str
    dissipation: str | None
    theta: float
    out: Path
    dump_every: int
    study: bool


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="inductionfd",
        description="SBP-SAT finite difference solver for the 2D magnetic "
        "induction equations",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--experiment", type=int, choices=(1, 2, 3), required=True,
                        help="benchmark problem to run")
    parser.add_argument("--scheme", choices=sorted(SCHEMES), default="sbp2",
                        help="spatial scheme (default: %(default)s)")
    parser.add_argument("--nx", type=int, default=100,
                        help="grid points along x (default: %(default)s)")
    parser.add_argument("--ny", type=int, default=100,
                        help="grid points along y (default: %(default)s)")
    parser.add_argument("--cfl", type=float, default=None,
                        help="CFL number (default: the scheme's, 0.9 for sbp4 "
                        "and 0.45 for the others)")
    parser.add_argument("--tfinal", type=float, default=None,
                        help="final time (default: the experiment's)")
    parser.add_argument("--integrator", choices=METHODS, default=None,
                        help="time integrator (default: the scheme's, rk4 for "
                        "sbp4 and rk2 for the others)")
    parser.add_argument("--dissipation", choices=DISSIPATION_MODES, default=None,
                        help="override the scheme's dissipation mode")
    parser.add_argument("--theta", type=float, default=1.0,
                        help="SAT penalty factor, must be >= 0.5 (default: %(default)s)")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: %(default)s)")
    parser.add_argument("--dump-every", type=int, default=0, metavar="N",
                        help="write a field dump every N steps (0: only final)")
    parser.add_argument("--study", action="store_true",
                        help="run a convergence study over the built-in grid list")
    return parser


def parse_args(argv) -> RunConfig:
    """Parse and cross-validate CLI flags into a RunConfig.

    ``--cfl`` and ``--integrator`` default to the scheme's own values.
    Raises SystemExit (caught by main and turned into exit code 1) on
    unknown flags or inconsistent combinations.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    scheme = SCHEMES[ns.scheme]
    if ns.dissipation is not None and scheme.dissipation == "upwind" \
            and ns.dissipation != "upwind":
        parser.error(
            f"scheme {ns.scheme} is defined by upwind dissipation; "
            f"--dissipation {ns.dissipation} contradicts it (use sbp2/sbp4 instead)"
        )
    cfl = scheme.cfl if ns.cfl is None else ns.cfl
    if not (0 < cfl <= 1):
        parser.error(f"--cfl must lie in (0, 1], got {cfl}")
    if ns.theta < 0.5:
        parser.error(f"--theta must be >= 0.5, got {ns.theta}")
    if ns.tfinal is not None and ns.tfinal < 0:
        parser.error(f"--tfinal must be nonnegative, got {ns.tfinal}")
    if ns.dump_every < 0:
        parser.error(f"--dump-every must be nonnegative, got {ns.dump_every}")
    return RunConfig(
        experiment=ns.experiment,
        scheme=ns.scheme,
        nx=ns.nx,
        ny=ns.ny,
        cfl=cfl,
        t_final=ns.tfinal,
        integrator=scheme.integrator if ns.integrator is None else ns.integrator,
        dissipation=ns.dissipation,
        theta=ns.theta,
        out=ns.out,
        dump_every=ns.dump_every,
        study=ns.study,
    )


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def write_error_table(records: list[ErrorRecord], path) -> None:
    """Write a convergence table as CSV with observed rates.

    Columns: grid, error_percent, error_rate, div_l2, div_rate, energy,
    time; six significant digits; the rate cells of the first row (and of
    any row following a failed run) are empty.
    """
    if not records:
        raise ValueError("cannot write an empty error table")
    error_rates = [""]
    div_rates = [""]
    if len(records) > 1:
        erates = convergence_rate([r.error_percent for r in records])
        drates = convergence_rate([r.div_l2 for r in records])
        error_rates += [("" if np.isnan(r) else _fmt(r)) for r in erates]
        div_rates += [("" if np.isnan(r) else _fmt(r)) for r in drates]
    with open(path, "w") as fh:
        fh.write("grid,error_percent,error_rate,div_l2,div_rate,energy,time\n")
        for k, rec in enumerate(records):
            fh.write(
                f"{rec.grid_label},{_fmt(rec.error_percent)},{error_rates[k]},"
                f"{_fmt(rec.div_l2)},{div_rates[k]},{_fmt(rec.energy)},{_fmt(rec.time)}\n"
            )


def write_field_dump(field: MagneticField, div: np.ndarray, path, meta: dict) -> None:
    """Write node coordinates, components, |B| and divergence as CSV.

    The CSV holds a header plus one row per node (x-major, y-inner).  The
    run metadata goes to a sidecar file ``<path>.meta`` as a single
    ``#``-prefixed line, keeping the CSV itself plain.  Values use six
    significant digits; each x row is formatted by one batched ``%``
    operation (``%.6g`` formats a float exactly as ``format(v, ".6g")``).
    """
    grid = field.grid
    npy = grid.npy
    xs = [_fmt(v) for v in grid.x]
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    Path(f"{path}.meta").write_text(meta_line + "\n")
    row_format = "%s,%s,%.6g,%.6g,%.6g,%.6g\n" * npy
    # per x row: columns x, y, B1, B2, |B|, div of every node, flattened y-inner
    cells = np.empty((npy, 6), dtype=object)
    cells[:, 1] = [_fmt(v) for v in grid.y]
    values = np.stack([field.data[0], field.data[1], field.magnitude(), div], axis=-1)
    with open(path, "w") as fh:
        fh.write("x,y,B1,B2,Bmag,divP\n")
        for i in range(grid.npx):
            cells[:, 0] = xs[i]
            cells[:, 2:] = values[i]
            fh.write(row_format % tuple(cells.ravel()))


def _make_out_dir(out: Path) -> bool:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out}: {exc}", file=sys.stderr)
        return False
    return True


def _scheme(config: RunConfig) -> SchemeConfig:
    """The scheme with the CLI's theta, cfl, integrator and dissipation; a
    study starts from its study variant (experiments.study_config)."""
    base = study_config(config.scheme) if config.study else scheme_config(config.scheme)
    return replace(
        base,
        theta=config.theta,
        cfl=config.cfl,
        integrator=config.integrator,
        **({"dissipation": config.dissipation} if config.dissipation else {}),
    )


def _run_study(config: RunConfig) -> int:
    # the large-domain hump is studied with its exact boundary trace
    spec = study_spec(get_experiment(config.experiment))
    scheme = _scheme(config)
    out = config.out
    if not _make_out_dir(out):
        return 1
    results = run_convergence_study(spec, [scheme], t_final=config.t_final)
    records = results[scheme.name]
    table = out / f"table_exp{config.experiment}_{scheme.name}.csv"
    write_error_table(records, table)
    print(f"wrote {table}")
    for rec in records:
        status = "FAILED" if rec.failed else f"error {rec.error_percent:.6g}%"
        print(f"  {rec.grid_label}: {status}")
    return 2 if any(rec.failed for rec in records) else 0


def _run_once(config: RunConfig) -> int:
    spec = get_experiment(config.experiment)
    scheme = _scheme(config)
    try:
        setup = assemble(spec, scheme, config.nx, config.ny)
    except ValueError as exc:
        print(f"inductionfd: error: {exc}", file=sys.stderr)
        return 1
    out = config.out
    if not _make_out_dir(out):
        return 1
    t_final = spec.t_final if config.t_final is None else config.t_final
    meta = {
        "experiment": config.experiment,
        "scheme": scheme.name,
        "grid": f"{config.nx}x{config.ny}",
        "t": _fmt(t_final),
    }

    def dump_hook(step: int, t: float, v: np.ndarray) -> None:
        field = MagneticField(setup.grid, v.copy())
        div = discrete_divergence(v, setup.grid, setup.op_x, setup.op_y)
        write_field_dump(field, div, out / f"fields_step{step:06d}.csv",
                         {**meta, "t": _fmt(t)})

    hook = dump_hook if config.dump_every > 0 else None
    try:
        field, record = run_single(
            setup, t_final=t_final, hook=hook,
            hook_every=config.dump_every if config.dump_every > 0 else 1,
        )
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 2

    div = discrete_divergence(field.data, setup.grid, setup.op_x, setup.op_y)
    write_field_dump(field, div, out / "fields_final.csv", meta)
    write_error_table([record], out / "error_table.csv")
    print(
        f"experiment {config.experiment} {scheme.name} {config.nx}x{config.ny} "
        f"t={t_final:.6g}: error {record.error_percent:.6g}%, div l2 {record.div_l2:.6g}"
    )
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            if isinstance(exc.code, str):
                print(exc.code, file=sys.stderr)
            return 1
        return 0
    if config.study:
        return _run_study(config)
    return _run_once(config)


if __name__ == "__main__":
    raise SystemExit(main())
