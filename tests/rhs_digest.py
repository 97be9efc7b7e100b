"""Print SHA-256 digests of the assembled RHS and of the 1D applies: one
per grid, then one of every case, the last line.

A change meant to keep every bit of the spatial operator should leave
these digests as they were; run the script in a checkout of each commit
and compare the outputs (a change that moves bits only on some grids
shows which):

    PYTHONPATH=src python tests/rhs_digest.py

The cases are experiments 1-3 with ``sbp1``-``sbp4`` and the ``sbp4``
study variant, on grids of 12², 41×37, 160² and 320² (the last one cut
into strips), each RHS called twice at two times on one random state,
plus ``apply_dx`` and ``apply_dy`` of the derivative and both
dissipation scalings on those grids.  BLAS is held to one thread, since
its blocking of a product, and so its rounding, may depend on the
thread count.  The script is not a test module; pytest does not
collect it.
"""

import hashlib
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from inductionfd import apply_dx, apply_dy, build_dissipation, build_sbp  # noqa: E402
from inductionfd.experiments import (  # noqa: E402
    assemble,
    get_experiment,
    scheme_config,
    study_config,
)

GRIDS = [(12, 12), (41, 37), (160, 160), (320, 320)]
SCHEMES = [scheme_config(name) for name in ("sbp1", "sbp2", "sbp3", "sbp4")]
SCHEMES.append(study_config("sbp4"))


def grid_bytes(npx: int, npy: int):
    """The bytes of every case on one grid, in digest order."""
    v = np.random.default_rng(npx * npy).standard_normal((2, npx, npy))
    for experiment in (1, 2, 3):
        for scheme in SCHEMES:
            setup = assemble(get_experiment(experiment), scheme, npx, npy)
            for t in (0.3, 0.7):
                yield setup.rhs(t, v).tobytes()
    grid = get_experiment(1).make_grid(npx, npy)
    for order in (2, 4):
        for build in (lambda n: build_sbp(order, n),
                      lambda n: build_dissipation(order, "accurate", 1.5, n),
                      lambda n: build_dissipation(order, "upwind", 1.5, n)):
            yield apply_dx(build(npx), v, grid).tobytes()
            yield apply_dy(build(npy), v, grid).tobytes()


def digests() -> tuple[dict, str]:
    """({grid label: digest of that grid's cases}, digest of all cases)."""
    total, per_grid = hashlib.sha256(), {}
    for npx, npy in GRIDS:
        sha = hashlib.sha256()
        for data in grid_bytes(npx, npy):
            sha.update(data)
            total.update(data)
        per_grid[f"{npx}x{npy}"] = sha.hexdigest()
    return per_grid, total.hexdigest()


if __name__ == "__main__":
    per_grid, total = digests()
    for label, digest in per_grid.items():
        print(f"{label} {digest}")
    print(total)
