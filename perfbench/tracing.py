"""Spans around the package's public functions, recorded from outside it.

Nothing in ``src/`` knows about tracing.  :func:`patch` swaps every
reference to a public function inside the loaded ``inductionfd`` modules
(module globals and module-level dicts such as the stepper table) for a
wrapper, and returns a function that puts the originals back.  The
:class:`Tracer` wrapper records one span per call: name, start, end and
the span that was open when the call began.  Spans stay in flat arrays
in memory until the run ends.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "inductionfd"

#: (layer, module, function) for every boundary the traced run wraps.
#: The SBP and dissipation layers share ``apply_dx``/``apply_dy``; a call
#: is filed under ``dissipation`` when its operator comes from that module.
TARGETS = (
    ("sbp", "inductionfd.sbp", "apply_dx"),
    ("sbp", "inductionfd.sbp", "apply_dy"),
    ("induction", "inductionfd.induction", "compute_rhs"),
    ("induction", "inductionfd.induction", "boundary_trace"),
    ("timestep", "inductionfd.timestep", "integrate"),
    ("timestep", "inductionfd.timestep", "compute_dt"),
    ("timestep", "inductionfd.timestep", "rk2_step"),
    ("timestep", "inductionfd.timestep", "rk4_step"),
    ("diagnostics", "inductionfd.diagnostics", "p_energy"),
    ("diagnostics", "inductionfd.diagnostics", "discrete_divergence"),
    ("diagnostics", "inductionfd.diagnostics", "l2_norm"),
    ("diagnostics", "inductionfd.diagnostics", "rel_percent_error"),
    ("diagnostics", "inductionfd.diagnostics", "convergence_rate"),
    ("experiments", "inductionfd.experiments", "assemble"),
    ("experiments", "inductionfd.experiments", "run_single"),
    ("experiments", "inductionfd.experiments", "run_convergence_study"),
    ("cli", "inductionfd.cli", "main"),
    ("cli", "inductionfd.cli", "write_field_dump"),
    ("cli", "inductionfd.cli", "write_error_table"),
)

STEPPERS = ("rk2_step", "rk4_step")


def patch(targets, wrap):
    """Replace every in-package reference to each ``(module, name)`` target.

    ``wrap(name, fn)`` returns the replacement.  Targets whose module or
    function does not exist are skipped, so the benchmark keeps running
    when a later version of the package drops one.  Returns a function
    that restores the originals.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    undo = []
    for module_name, name in targets:
        fn = getattr(sys.modules.get(module_name), name, None)
        if not callable(fn):
            continue
        new = wrap(name, fn)
        for module in modules:
            namespace = vars(module)
            tables = [namespace] + [v for k, v in namespace.items()
                                    if type(v) is dict and not k.startswith("__")]
            for table in tables:
                for key, value in list(table.items()):
                    if value is fn:
                        table[key] = new
                        undo.append((table, key, fn))

    def restore() -> None:
        for table, key, fn in reversed(undo):
            table[key] = fn

    return restore


class SetupRecorder:
    """Records the ``assemble`` calls of a job and times them again.

    Replaying the same calls many times gives the set-up time a median of
    many samples, without wrapping anything in the timed jobs.
    """

    def __init__(self) -> None:
        self.calls = []
        self._assemble = None

    def install(self):
        def wrap(_name, fn):
            self._assemble = fn

            def recording(*args, **kwargs):
                self.calls.append((args, kwargs))
                return fn(*args, **kwargs)
            return recording

        return patch([("inductionfd.experiments", "assemble")], wrap)

    def replay(self, repeats: int) -> list[float]:
        """Time of all recorded calls together, once per repeat."""
        times = []
        for _ in range(repeats if self.calls else 0):
            total = 0.0
            for args, kwargs in self.calls:
                t0 = time.perf_counter()
                self._assemble(*args, **kwargs)
                total += time.perf_counter() - t0
            times.append(total)
        return times


def rhs_cost(n_nodes: int, stencils) -> tuple[float, float]:
    """Computed (bytes, flops) of one RHS on ``n_nodes`` nodes per component.

    ``stencils`` lists the interior nonzeros of every 1D operator applied
    to each component: the two derivatives plus each dissipation term
    along each axis.  The counts come from array sizes and stencil widths,
    not from hardware counters.  An apply does one multiply-add per
    nonzero and node, reads its input and writes its output once, and its
    result is added into the tendency (one flop and a read plus a write
    per node).  Advection and coupling cost 8 flops per node and read
    four coefficient arrays; the state is read and the result written
    once.  The O(n) boundary penalties are left out.
    """
    nnz = sum(stencils)
    flops = 2 * nnz + len(stencils) + 8
    words = 4 * len(stencils) + 4 + 2
    return float(2 * n_nodes * 8 * words), float(2 * n_nodes * flops)


def _ops(diss) -> tuple:
    if diss is None:
        return ()
    return tuple(diss) if isinstance(diss, (tuple, list)) else (diss,)


def _nnz(op) -> int:
    return int(np.count_nonzero(op.interior))


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.marks = defaultdict(lambda: (array("q"), array("d")))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def mark(self, key: str, value: float) -> None:
        """Attach a number to the innermost open span."""
        indices, values = self.marks[key]
        indices.append(self._stack[-1])
        values.append(value)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self.open(self._id(name))
        try:
            yield index
        finally:
            self.close(index)

    def install(self):
        """Wrap every target; returns the function that unwraps them."""
        layer_of = {name: layer for layer, _, name in TARGETS}
        return patch([(m, n) for _, m, n in TARGETS],
                     lambda name, fn: self._wrap(layer_of[name], name, fn))

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        name_id = self._id(f"{layer}.{name}")
        if name in ("apply_dx", "apply_dy"):
            diss_id = self._id(f"dissipation.{name}")

            def apply_wrapper(*args, **kwargs):
                op = args[0] if args else kwargs.get("op")
                is_diss = type(op).__module__ == "inductionfd.dissipation"
                index = tracer.open(diss_id if is_diss else name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)
            return apply_wrapper

        before = after = None
        if name == "compute_rhs":
            signature = inspect.signature(fn)

            def before(args, kwargs):
                bound = signature.bind_partial(*args, **kwargs).arguments
                diss = _ops(bound.get("diss_x")) + _ops(bound.get("diss_y"))
                stencils = [_nnz(bound["op_x"]), _nnz(bound["op_y"])]
                stencils += [_nnz(op) for op in diss]
                nbytes, flops = rhs_cost(bound["v"][0].size, stencils)
                tracer.mark("rhs_bytes", nbytes)
                tracer.mark("rhs_flops", flops)
                tracer.mark("diss_terms", len(_ops(bound.get("diss_x"))))
        elif name in STEPPERS:
            def before(args, kwargs):
                tracer.mark("dt", float(args[2] if len(args) > 2 else kwargs["dt"]))
        elif name == "write_field_dump":
            def after(args, kwargs):
                path = args[2] if len(args) > 2 else kwargs["path"]
                tracer.mark("dump_bytes", os.path.getsize(path)
                            + os.path.getsize(f"{path}.meta"))

        def wrapper(*args, **kwargs):
            index = tracer.open(name_id)
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs)
                return result
            finally:
                tracer.close(index)
        return wrapper

    def arrays(self) -> dict:
        """Span table as numpy arrays, with each span's self time.

        A span's self time is its duration minus the time covered by its
        children; calls are sequential, so children never overlap.
        """
        n = len(self.start)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=n)
        return {"name_id": np.array(self.name_id, dtype=np.int64), "parent": parent,
                "start": start, "end": end, "duration": duration,
                "self": duration - covered}

    def layer_metrics(self, jobs) -> list[dict[str, float]]:
        """Per-layer numbers for each job, given as a (first, last) span range."""
        table = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}

        def pick(*wanted):
            return [ids[w] for w in wanted if w in ids]

        def layer(prefix):
            return [i for name, i in ids.items() if name.startswith(prefix + ".")]

        def marked(key, first, last):
            indices, values = self.marks[key]
            idx = np.array(indices, dtype=np.int64)
            keep = (idx >= first) & (idx < last)
            return np.array(values, dtype=float)[keep]

        out = []
        for first, last in jobs:
            name_id = table["name_id"][first:last]
            dur = table["duration"][first:last]
            own = table["self"][first:last]

            def mean_us(wanted):
                m = np.isin(name_id, wanted)
                return float(dur[m].mean() * 1e6) if m.any() else 0.0

            def count(wanted):
                return float(np.isin(name_id, wanted).sum())

            def self_s(wanted):
                return float(own[np.isin(name_id, wanted)].sum())

            steps = pick(*(f"timestep.{s}" for s in STEPPERS))
            rhs = pick("induction.compute_rhs")
            trace = pick("induction.boundary_trace")
            dumps = pick("cli.write_field_dump")
            dts = marked("dt", first, last)
            rhs_bytes = marked("rhs_bytes", first, last)
            rhs_flops = marked("rhs_flops", first, last)
            terms = marked("diss_terms", first, last)
            out.append({
                "sbp.apply_x_us": mean_us(pick("sbp.apply_dx")),
                "sbp.apply_y_us": mean_us(pick("sbp.apply_dy")),
                "sbp.calls": count(layer("sbp")),
                "sbp.self_s": self_s(layer("sbp")),
                "dissipation.apply_x_us": mean_us(pick("dissipation.apply_dx")),
                "dissipation.apply_y_us": mean_us(pick("dissipation.apply_dy")),
                "dissipation.calls": count(layer("dissipation")),
                "dissipation.terms": float(terms.max()) if terms.size else 0.0,
                "dissipation.self_s": self_s(layer("dissipation")),
                "induction.rhs_us": mean_us(rhs),
                "induction.rhs_calls": count(rhs),
                "induction.self_s": self_s(layer("induction")),
                "induction.rhs_bytes_computed":
                    float(rhs_bytes.mean()) if rhs_bytes.size else 0.0,
                "induction.rhs_flops_computed":
                    float(rhs_flops.mean()) if rhs_flops.size else 0.0,
                "induction.boundary_trace_us": mean_us(trace),
                "induction.boundary_trace_calls": count(trace),
                "induction.boundary_trace_self_s": self_s(trace),
                "timestep.steps": count(steps),
                "timestep.dt": float(np.median(dts)) if dts.size else 0.0,
                "timestep.step_us": mean_us(steps),
                "timestep.self_s": self_s(layer("timestep")),
                "diagnostics.calls": count(layer("diagnostics")),
                "diagnostics.self_s": self_s(layer("diagnostics")),
                "experiments.self_s": self_s(layer("experiments")),
                "cli.dumps": count(dumps),
                "cli.dump_s": float(dur[np.isin(name_id, dumps)].sum()),
                "cli.dump_bytes": float(marked("dump_bytes", first, last).sum()),
                "cli.self_s": self_s(layer("cli")),
            })
        return out

    def save(self, path) -> None:
        """Write every span as (name, start, end, parent) to a compressed .npz."""
        table = self.arrays()
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=table["name_id"], start=table["start"],
                            end=table["end"], parent=table["parent"])
