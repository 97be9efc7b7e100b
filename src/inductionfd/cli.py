"""Command-line front end for single runs and convergence studies."""

from __future__ import annotations

import argparse
import functools
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


#: Values whose decimal exponent lies outside [-_EXP, _EXP] (subnormals
#: among them) take the fallback, so 10**(5 - e) below stays a normal float.
_EXP = 290
#: Nodes per block of whole x rows (at least one row) that
#: ``write_field_dump`` formats and compacts at a time; a block's records
#: and keep masks take 256 bytes a node, so they stay in cache.  Swept on
#: exp3-dump's 13 dumps at 160² (1 BLAS thread, two rounds of 7, median ms
#: per dump) at 1024 / 2048 / 4096 / 8192 / 16384 / 32768 nodes: 12.6 / 10.4
#: / 10.2 / 10.7 / 10.6 / 20.4 and 13.9 / 13.1 / 13.2 / 15.7 / 16.0 / 26.8,
#: against 24.4 and 26.5 for the per-row template writer it replaced.
_DUMP_NODES = 2048
#: One node record: "\n" + x and "," + y, each zero-padded to 16 bytes,
#: then B1, B2, |B| and div, each a 24-byte superstring (``_format_values``).
_RECORD = np.dtype([("x", np.uint64, 2), ("y", np.uint64, 2), ("values", np.uint64, (4, 3))])


def _word(text: bytes) -> np.uint64:
    return np.uint64(int.from_bytes(text.ljust(8, b"\0"), "little"))


def _pieces(texts: list[str], words: int) -> tuple[np.ndarray, np.ndarray]:
    """Each text zero-padded to ``words`` uint64 words, and its keep mask:
    words whose bytes are 1 under the text's bytes and 0 under the padding."""
    raw = np.zeros((len(texts), 8 * words), np.uint8)
    for k, text in enumerate(texts):
        raw[k, :len(text)] = np.frombuffer(text.encode(), np.uint8)
    return raw.view(np.uint64), (raw != 0).view(np.uint64)


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The tables ``_format_values`` gathers from, each as described there,
    built on the first dump: a process that writes none, such as a study,
    neither builds nor holds them."""
    group = np.arange(1000, dtype=np.uint64)
    # ASCII digits of a 3-digit group and the byte shifts within a word
    d0, d1, d2 = group // 100 + 48, group // 10 % 10 + 48, group % 10 + 48
    at = [np.uint64(8 * k) for k in range(8)]
    hi_words = np.stack([_word(b",-0.000") | d0 << at[7],
                         _word(b".\0.\0.\0.") | d1 << at[1] | d2 << at[3]], axis=-1)
    lo_words = np.stack([d0 << at[5] | d1 << at[7], d2 << at[1]], axis=-1)
    # digits of a group up to its last nonzero one (0 for 000)
    kept = 3 - (group % 10 == 0) - (group % 100 == 0) - (group == 0)
    exps = np.arange(-_EXP, _EXP + 2)
    sign, mag = np.where(exps < 0, ord("-"), ord("+")).astype(np.uint64), abs(exps)
    exp_words = (_word(b".\0e") | sign << at[3] | d0[mag] << at[4] | d1[mag] << at[5]
                 | d2[mag] << at[6])
    # notation: fixed for an exponent in [-4, 5], else scientific with a
    # two- or three-digit exponent
    notation = np.where((exps >= -4) & (exps <= 5), exps + 4, np.where(mag < 100, 10, 11))
    pow10 = np.array([float(f"1e{5 - e}") for e in exps.tolist()])
    return (hi_words, lo_words, kept, np.where(group > 0, 3 + kept, 0), exp_words,
            6 * notation - 1, pow10, _keep_table())


def _keep_table() -> np.ndarray:
    """Keep masks of the superstring: row 72 sign + 6 notation + digits - 1
    for a sign (0 or 1), a notation (0-9 fixed with exponent notation - 4,
    10 and 11 scientific with a two- or three-digit exponent) and a count
    of significant digits (1-6); rows 144 and 145 print 0 and -0."""
    digit = [7 + 2 * i for i in range(6)]
    rows = []
    for sign in ([0], [0, 1]):
        for notation in range(12):
            for sig in range(1, 7):
                e = notation - 4
                if e < 0:  # 0.000ddd
                    keep = [2, 3, *[4, 5, 6][:-e - 1], *digit[:sig]]
                elif e <= 5:  # ddd.ddd
                    keep = digit[:e + 1] + ([8 + 2 * e] if sig > e + 1 else []) + digit[e + 1:sig]
                else:  # d.ddde+XX
                    keep = [7, *([8] if sig > 1 else []), *digit[1:sig], 18, 19,
                            *([21, 22] if notation == 10 else [20, 21, 22])]
                rows.append(sign + keep)
    rows += [[0, 2], [0, 1, 2]]
    table = np.zeros((len(rows), 24), np.uint8)
    for r, keep in enumerate(rows):
        table[r, keep] = 1
    return table.view(np.uint64)


def _format_values(v: np.ndarray, words: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Write into ``words`` and ``keep``, of shape ``v.shape + (3,)``, each
    value's superstring and the mask of its bytes that ``","`` +
    ``format(value, ".6g")`` prints; return the mask of the values that took
    the fallback, ``format`` itself.

    The superstring is 24 bytes, three little-endian uint64 words:
    ``,-0.000`` d0 ``.`` d1 ``.`` d2 ``.`` d3 ``.`` d4 ``.`` d5 ``e`` ± E E E
    and a zero byte.  A value a = |v| with e = floor(log10 a) has the six
    digits m = rint(a 10**(5 - e)) (m = 10**6 is 10**5 at e + 1); the words
    of its digits come from tables of the 1000 three-digit groups and of
    the exponents, and its keep mask from the row of ``_keep_table`` for
    its sign, notation and count of significant digits.
    """
    (hi_table, lo_table, hi_sig, lo_sig, exp_table, row_base, pow10,
     keep_table) = _format_tables()
    a = np.abs(v)
    finite = a < np.inf
    # 0, inf and nan are scaled as 1 so that no step warns
    safe = np.where(finite & (a > 0), a, 1.0)
    e = np.floor(np.log10(safe)).astype(np.intp)
    at = np.clip(e, -_EXP, _EXP)
    s = safe * pow10.take(at + _EXP)
    m = np.rint(s)
    # s is within 2.3e-10 of a 10**(5 - e), so it rounds as the exact value
    # does unless it lies within 1e-8 of a tie; an e that log10 got wrong
    # by one gives s < 10**5 or m > 10**6, or the same m = 10**5 or 10**6
    fallback = ~finite | (at != e) | (np.abs(s - m) > 0.5 - 1e-8) | (s < 1e5) | (m > 1e6)
    at += _EXP
    top = m == 1e6
    m[top] = 1e5
    at += top
    m[fallback] = 1e5
    hi = np.floor(m * 1e-3)
    lo = (m - 1000 * hi).astype(np.intp)
    hi = hi.astype(np.intp)
    hi_words, lo_words = hi_table.take(hi, axis=0), lo_table.take(lo, axis=0)
    words[..., 0] = hi_words[..., 0]
    np.bitwise_or(hi_words[..., 1], lo_words[..., 0], out=words[..., 1])
    np.bitwise_or(lo_words[..., 1], exp_table.take(at), out=words[..., 2])
    sign = np.signbit(v)
    row = np.maximum(hi_sig.take(hi), lo_sig.take(lo))
    row += row_base.take(at)
    row += 72 * sign
    zero = a == 0
    row[zero] = 144 + sign[zero]
    keep[...] = keep_table.take(row, axis=0)
    if fallback.any():
        texts = ["," + _fmt(x) for x in v[fallback].tolist()]
        words[fallback], keep[fallback] = _pieces(texts, 3)
    return fallback


def write_field_dump(field: MagneticField, div: np.ndarray, path, meta: dict) -> None:
    """Write node coordinates, components, |B| and divergence as CSV.

    The CSV holds a header plus one row per node (x-major, y-inner).  The
    run metadata goes to a sidecar file ``<path>.meta`` as a single
    ``#``-prefixed line, keeping the CSV itself plain.  Values use six
    significant digits, byte for byte as ``format(v, ".6g")`` prints them.

    The rows are formatted in bulk, a block of whole x rows at a time
    (``_DUMP_NODES``), and no Python object is made per value.  Each node's
    record holds its x and y text, formatted once per dump, and each value
    as a fixed superstring of every byte ``%.6g`` could print for it
    (``_format_values``) with a mask of the bytes it does print; one
    ``np.compress`` keeps those bytes of the block.  The digits come from
    a 10**k table of correctly rounded powers: the scaled value is within
    2.3e-10 of exact, so it rounds as the exact value does unless it lies
    within 1e-8 of a rounding tie.  Such values, and those that are not
    finite, are subnormal or have an exponent outside +-290 (``_EXP``),
    take ``format(v, ".6g")`` itself, so the bytes are identical by
    construction, not within a tolerance.

    Both files are written and closed when the function returns, in the
    calling process: a caller may read them, or their sizes, at once, and
    may hand in a run's accepted state without a copy, since nothing of
    the write outlives the call.
    """
    grid = field.grid
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items())
    Path(f"{path}.meta").write_text(meta_line + "\n")
    # each record starts with its newline, so the header goes without one
    xs, x_keep = _pieces([f"\n{_fmt(x)}" for x in grid.x], 2)
    ys, y_keep = _pieces([f",{_fmt(y)}" for y in grid.y], 2)
    columns = (field.data[0], field.data[1], field.magnitude(), div)
    rows = max(1, _DUMP_NODES // grid.npy)
    records = np.empty((rows, grid.npy), _RECORD)
    keep = np.empty_like(records)
    records["y"], keep["y"] = ys, y_keep
    with open(path, "wb") as fh:
        fh.write(b"x,y,B1,B2,Bmag,divP")
        for start in range(0, grid.npx, rows):
            stop = min(start + rows, grid.npx)
            block, block_keep = records[:stop - start], keep[:stop - start]
            block["x"], block_keep["x"] = xs[start:stop, None], x_keep[start:stop, None]
            _format_values(np.stack([c[start:stop] for c in columns], axis=-1),
                           block["values"], block_keep["values"])
            fh.write(np.compress(block_keep.view(np.bool_).ravel(),
                                 block.view(np.uint8).ravel()))
        fh.write(b"\n")


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
