"""The three benchmark workloads: what each runs, and how its output is checked.

Every workload is one of the paper's fixed test problems.  Their accuracy
anchors only hold for exactly these inputs, so the benchmark's seed never
perturbs them (see README.md).  A *job* is one call a user would make:
a convergence study, one single run, or one CLI invocation.  Each
workload has a ``name``, the number of solver ``runs`` in one job,
``job(scratch, capture)``, which is timed, and ``check(out)``, which is
not and returns (values, problems).
"""

from __future__ import annotations

import hashlib
import inspect
import io
import math
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import inductionfd as ifd
from inductionfd import cli, diagnostics, experiments
from tracing import patch

#: a finest-grid error this much above the seed's anchor is a wrong result
ANCHOR_SLACK = 0.10


def _anchor_problem(label: str, error: float, anchor: float) -> list[str]:
    if not math.isfinite(error):
        return [f"{label}: non-finite error {error!r}"]
    if error > anchor * (1.0 + ANCHOR_SLACK):
        return [f"{label}: error {error:.6g}% above the seed anchor {anchor:.6g}% "
                f"by more than {ANCHOR_SLACK:.0%}"]
    return []


class Exp2Study:
    """Convergence study of the boundary-crossing hump, sbp2 and sbp4."""

    name = "exp2-study"
    grids = (10, 20, 40, 80)
    schemes = ("sbp2", "sbp4")
    #: a quarter rotation keeps a study near 3 s, so a 35 s run holds about ten
    t_final = math.pi / 2
    #: finest-grid errors (percent) of the seed at t_final
    anchors = {"sbp2": 0.918944, "sbp4": 0.0252334}
    runs = len(grids) * len(schemes)

    def job(self, scratch: Path, capture: bool = False):
        return experiments.run_convergence_study(
            ifd.study_spec(ifd.experiment2()),
            [ifd.study_config(s) for s in self.schemes],
            grids=self.grids, t_final=self.t_final,
        )

    def check(self, results) -> tuple[dict, list[str]]:
        values, problems = {}, []
        for scheme in self.schemes:
            rows = results.get(scheme, [])
            if len(rows) != len(self.grids):
                problems.append(f"{scheme}: {len(rows)} rows, expected {len(self.grids)}")
                continue
            failed = [r.grid_label for r in rows if r.failed]
            if failed:
                problems.append(f"{scheme}: failed rows {failed}")
            coarse, fine = rows[-2].error_percent, rows[-1].error_percent
            rate = math.log2(coarse / fine) if coarse > 0 and fine > 0 else math.nan
            values[f"error_pct.{scheme}"] = fine
            values[f"rate.{scheme}"] = rate
            problems += _anchor_problem(scheme, fine, self.anchors[scheme])
        # criterion 5 of the acceptance suite
        rate2, rate4 = values.get("rate.sbp2", math.nan), values.get("rate.sbp4", math.nan)
        if not 1.7 <= rate2 <= 2.3:
            problems.append(f"rate.sbp2 = {rate2:.4g} outside [1.7, 2.3]")
        if not rate4 >= 2.7:
            problems.append(f"rate.sbp4 = {rate4:.4g} below 2.7")
        if not problems:
            values["error_pct"] = max(values["error_pct.sbp2"], values["error_pct.sbp4"])
        return values, problems


class Exp1Fine:
    """One large-grid run of the rotating hump with the upwind order-4 scheme."""

    name = "exp1-fine"
    n = 320
    #: a quarter of the reference run to t = pi/4 keeps a job near 3 s
    t_final = math.pi / 16
    anchor = 0.420896
    runs = 1

    def job(self, scratch: Path, capture: bool = False):
        spec = ifd.experiment1()
        setup = experiments.assemble(spec, ifd.scheme_config("sbp3"), self.n, self.n)
        field, _ = experiments.run_single(setup, t_final=self.t_final)
        error = diagnostics.rel_percent_error(field.data, spec.exact, self.t_final, setup.grid)
        return field, error

    def check(self, out) -> tuple[dict, list[str]]:
        field, error = out
        data = field.data
        problems = []
        if not np.isfinite(data).all():
            problems.append("final field is not finite")
        # recompute the relative |B| error independently of the diagnostics layer
        xx, yy = np.meshgrid(field.grid.x, field.grid.y, indexing="ij")
        e1, e2 = ifd.experiment1().exact(xx, yy, self.t_final)
        exact = np.sqrt(e1 * e1 + e2 * e2)
        diff = np.sqrt(data[0] ** 2 + data[1] ** 2) - exact
        mine = 100.0 * math.sqrt(float(np.sum(diff * diff)) / float(np.sum(exact * exact)))
        if not math.isclose(mine, error, rel_tol=1e-9):
            problems.append(f"reported error {error!r} disagrees with recomputed {mine!r}")
        problems += _anchor_problem("sbp3 320x320", error, self.anchor)
        return {"error_pct": error}, problems


def reference_dump(x, y, data, div, meta: dict) -> tuple[bytes, bytes]:
    """The field-dump CSV and its sidecar as the seed's per-node writer makes them."""
    def fmt(v):
        return f"{v:.6g}"

    mag = np.hypot(data[0], data[1])
    lines = ["x,y,B1,B2,Bmag,divP\n"]
    for i in range(len(x)):
        for j in range(len(y)):
            lines.append(f"{fmt(x[i])},{fmt(y[j])},{fmt(data[0, i, j])},"
                         f"{fmt(data[1, i, j])},{fmt(mag[i, j])},{fmt(div[i, j])}\n")
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"
    return "".join(lines).encode(), meta_line.encode()


class Exp3Dump:
    """The discontinuous step through the CLI, with periodic CSV field dumps."""

    name = "exp3-dump"
    argv = ("--experiment", "3", "--scheme", "sbp1", "--nx", "160", "--ny", "160",
            "--dump-every", "50")
    dumps = 13
    anchor = 11.0167
    runs = 1
    #: criterion 7: the step's data range is [0, 2]
    low, high = -1e-8, 2.0 + 1e-8

    def __init__(self) -> None:
        self.digest = None
        self.captured = []

    def job(self, scratch: Path, capture: bool = False):
        out = scratch / "exp3-out"
        shutil.rmtree(out, ignore_errors=True)
        restore = self._capture() if capture else None
        stdout = io.StringIO()
        try:
            with redirect_stdout(stdout):
                code = cli.main([*self.argv, "--out", str(out)])
        finally:
            if restore is not None:
                restore()
        return code, out, stdout.getvalue()

    def _capture(self):
        """Keep the inputs of every dump so their bytes can be re-derived."""
        self.captured = []

        def wrap(_name, fn):
            signature = inspect.signature(fn)

            def capturing(*args, **kwargs):
                a = signature.bind(*args, **kwargs).arguments
                field = a["field"]
                self.captured.append((field.grid.x, field.grid.y, field.data.copy(),
                                      np.array(a["div"]), Path(a["path"]), dict(a["meta"])))
                return fn(*args, **kwargs)
            return capturing

        return patch([("inductionfd.cli", "write_field_dump")], wrap)

    def check(self, out) -> tuple[dict, list[str]]:
        code, folder, stdout = out
        problems = []
        try:  # a missing or malformed output file raises, and the job counts as failed
            if code != 0:
                return {}, [f"CLI exited with {code}: {stdout.strip()}"]
            files = sorted(folder.glob("fields_*.csv"))
            if len(files) != self.dumps:
                problems.append(f"{len(files)} field dumps, expected {self.dumps}")
            digest = hashlib.sha256()
            low, high = math.inf, -math.inf
            for path in files + [folder / "error_table.csv"]:
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
                if path.name.startswith("fields_"):
                    digest.update(Path(f"{path}.meta").read_bytes())
                    b = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 3), ndmin=2)
                    low, high = min(low, float(b.min())), max(high, float(b.max()))
            if not (self.low <= low and high <= self.high):
                problems.append(f"data range [{low!r}, {high!r}] leaves "
                                f"[{self.low}, {self.high}]")
            digest = digest.hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"dump digest {digest[:16]} differs from the run's "
                                f"first job {self.digest[:16]}")
            problems += self._check_captured()
            with open(folder / "error_table.csv") as fh:
                rows = fh.read().splitlines()
            error = float(rows[1].split(",")[1])
            problems += _anchor_problem("sbp1 160x160", error, self.anchor)
            overshoot = max(high - 2.0, -low)
            return {"error_pct": error, "overshoot": overshoot, "dump_digest": digest}, problems
        finally:
            shutil.rmtree(folder, ignore_errors=True)

    def _check_captured(self) -> list[str]:
        """Compare the first, a middle and the last dump with the reference writer."""
        problems = []
        picks = sorted({0, len(self.captured) // 2, len(self.captured) - 1}) \
            if self.captured else []
        for k in picks:
            x, y, data, div, path, meta = self.captured[k]
            csv, sidecar = reference_dump(x, y, data, div, meta)
            if path.read_bytes() != csv or Path(f"{path}.meta").read_bytes() != sidecar:
                problems.append(f"{path.name} differs from the reference CSV writer")
        self.captured = []
        return problems


WORKLOADS = {w.name: w for w in (Exp2Study, Exp1Fine, Exp3Dump)}
