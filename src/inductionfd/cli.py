"""Command-line front end for single runs and convergence studies."""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import ErrorRecord, convergence_rate, discrete_divergence
from .experiments import (
    COURANT_PER_CFL,
    DISSIPATION_MODES,
    EXPERIMENTS,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inductionfd",
        description="SBP-SAT finite difference solver for the 2D magnetic "
        "induction equations",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )

    def defaults(attr: str) -> str:
        return "default: the scheme's, " + ", ".join(
            f"{name} {getattr(scheme, attr)}" for name, scheme in SCHEMES.items())
    factors = ", ".join(f"{factor:g} for {integrator} with dissipation {mode}"
                        for (integrator, mode), factor in COURANT_PER_CFL.items())
    parser.add_argument("--experiment", type=int, choices=sorted(EXPERIMENTS), required=True,
                        help="benchmark problem to run")
    parser.add_argument("--scheme", choices=sorted(SCHEMES), default="sbp2",
                        help="spatial scheme (default: %(default)s)")
    parser.add_argument("--nx", type=int, default=100,
                        help="grid points along x (default: %(default)s)")
    parser.add_argument("--ny", type=int, default=100,
                        help="grid points along y (default: %(default)s)")
    parser.add_argument("--cfl", type=float, default=None,
                        help="CFL number in (0, 1]; the step's advective Courant number is "
                        f"cfl times {factors}, 1 otherwise ({defaults('cfl')})")
    parser.add_argument("--tfinal", dest="t_final", metavar="TFINAL", type=float,
                        default=None, help="final time (default: the experiment's)")
    parser.add_argument("--integrator", choices=METHODS, default=None,
                        help=f"time integrator ({defaults('integrator')}); ssp32 "
                        "is the three-stage SSP RK2.  The scheme's cfl is tuned "
                        "for its own integrator, so another one needs --cfl as well")
    parser.add_argument("--dissipation", choices=DISSIPATION_MODES, default=None,
                        help="override the scheme's dissipation mode")
    parser.add_argument("--theta", type=float, default=None,
                        help="SAT penalty factor, must be >= 0.5 "
                        f"({defaults('theta')})")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: %(default)s)")
    parser.add_argument("--dump-every", type=int, default=0, metavar="N",
                        help="write a field dump every N steps (0: only final)")
    parser.add_argument("--study", action="store_true",
                        help="run a convergence study over the built-in grid list")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and cross-validate CLI flags.

    Returns argparse's namespace with ``scheme`` resolved to a
    ``SchemeConfig``: the named scheme (its study variant,
    ``experiments.study_config``, under ``--study``) with the scheme flags
    given replacing its fields; ``SchemeConfig`` checks them.  An
    ``--integrator`` other than the scheme's own needs ``--cfl`` too,
    because the scheme's cfl is tuned for its own integrator.  On unknown
    flags, invalid values or inconsistent combinations argparse prints the
    usage and the error and raises SystemExit.  The final time is the
    library's to check.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    base = study_config(ns.scheme) if ns.study else scheme_config(ns.scheme)
    if ns.dissipation is not None and base.dissipation == "upwind" \
            and ns.dissipation != "upwind":
        parser.error(
            f"scheme {ns.scheme} is defined by upwind dissipation; "
            f"--dissipation {ns.dissipation} contradicts it (use sbp2/sbp4 instead)"
        )
    if ns.integrator not in (None, base.integrator) and ns.cfl is None:
        parser.error(
            f"--integrator {ns.integrator} needs --cfl: scheme {base.name} is "
            f"registered with {base.integrator} at cfl {base.cfl}, and that cfl "
            f"is tuned for {base.integrator}"
        )
    flags = {"cfl": ns.cfl, "integrator": ns.integrator,
             "dissipation": ns.dissipation, "theta": ns.theta}
    try:
        ns.scheme = replace(base, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as exc:
        parser.error(str(exc))
    if ns.dump_every < 0:
        parser.error(f"--dump-every must be nonnegative, got {ns.dump_every}")
    return ns


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
    significant digits, byte for byte as ``format(v, ".6g")`` prints them.

    The rows are formatted in bulk by ``dumpformat.write_csv``, which
    makes no Python object per value; the first dump imports that
    module, so a process that writes no dump neither loads nor compiles
    it.

    Both files are written and closed when the function returns, in the
    calling process: a caller may read them, or their sizes, at once, and
    may hand in a run's accepted state without a copy, since nothing of
    the write outlives the call.
    """
    from .dumpformat import write_csv

    grid = field.grid
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    Path(f"{path}.meta").write_text(meta_line + "\n")
    with open(path, "wb") as fh:
        write_csv(fh, "x,y,B1,B2,Bmag,divP", grid.x, grid.y,
                  (field.data[0], field.data[1], field.magnitude(), div))


def _run_study(args: argparse.Namespace) -> int:
    # an experiment with zero data is studied with its exact boundary trace
    spec = study_spec(get_experiment(args.experiment))
    scheme = args.scheme
    out = args.out
    records = run_convergence_study(spec, [scheme], t_final=args.t_final)[scheme.name]
    out.mkdir(parents=True, exist_ok=True)
    table = out / f"table_exp{args.experiment}_{scheme.name}.csv"
    write_error_table(records, table)
    print(f"wrote {table}")
    for rec in records:
        status = "FAILED" if rec.failed else f"error {rec.error_percent:.6g}%"
        print(f"  {rec.grid_label}: {status}")
    return 2 if any(rec.failed for rec in records) else 0


def _run_once(args: argparse.Namespace) -> int:
    scheme = args.scheme
    setup = assemble(get_experiment(args.experiment), scheme, args.nx, args.ny)
    out = args.out
    meta = {
        "experiment": args.experiment,
        "scheme": scheme.name,
        "grid": f"{args.nx}x{args.ny}",
    }

    def dump(name: str, t: float, v: np.ndarray) -> None:
        # a hook's v is valid only during its call; the dump is written before it returns
        div = discrete_divergence(v, setup.grid, setup.op_x, setup.op_y)
        out.mkdir(parents=True, exist_ok=True)
        write_field_dump(MagneticField(setup.grid, v), div, out / name, {**meta, "t": _fmt(t)})

    last = None  # (name, time) of the hook's latest dump

    def hook(step: int, t: float, v: np.ndarray) -> None:
        nonlocal last
        last = (f"fields_step{step:06d}.csv", t)
        dump(*last, v)

    field, record = run_single(
        setup, t_final=args.t_final, hook=hook if args.dump_every > 0 else None,
        hook_every=max(args.dump_every, 1),
    )
    if last is not None and last[1] == record.time:
        # the hook dumped the final state: its files are the final ones
        for suffix in ("", ".meta"):
            shutil.copyfile(out / f"{last[0]}{suffix}", out / f"fields_final.csv{suffix}")
    else:
        dump("fields_final.csv", record.time, field.data)
    write_error_table([record], out / "error_table.csv")
    print(
        f"experiment {args.experiment} {scheme.name} {args.nx}x{args.ny} "
        f"t={record.time:.6g}: error {record.error_percent:.6g}%, div l2 {record.div_l2:.6g}"
    )
    return 0


def main(argv=None) -> int:
    """Run one invocation and return its exit code.

    0: success.  1: a usage error (argparse has printed it), a run the
    library rejects with a ValueError, or an output file that cannot be
    written.  2: the run, or any study grid, went unstable.  The output
    directory is made by the first write, so a rejected run leaves none.
    """
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _run_study(args) if args.study else _run_once(args)
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the runs read no files: this is a failed output write
        print(f"inductionfd: error: cannot write {exc.filename or args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"inductionfd: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
