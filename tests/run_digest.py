"""Print one SHA-256 digest of the final states and error records of the
benchmark's solver runs.

A change meant to keep every bit of the time integration should leave
this digest as it was; run the script in a checkout of each commit and
compare the two lines:

    PYTHONPATH=src python tests/run_digest.py

The runs are those that perfbench's workloads make: the exp2-study
convergence study (``sbp2`` and ``sbp4`` study variants on 10²-80² to
t = pi/2, eight runs), exp1-fine's ``sbp3`` run on 320² to t = pi/16, and
exp3-dump's ``sbp1`` run on 160² to the experiment's t = 0.5.  Each run
adds its final state's bytes and the ``repr`` of its ``ErrorRecord``,
whose floats print exactly.  BLAS is held to one thread, since its
blocking of a product, and so its rounding, may depend on the thread
count.  The script is not a test module; pytest does not collect it.
"""

import hashlib
import math
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from inductionfd import (  # noqa: E402
    assemble,
    experiment1,
    experiment2,
    experiment3,
    run_single,
    scheme_config,
    study_config,
    study_spec,
)

#: (spec, scheme, n, t_final) of every run, in the order the workloads make them
RUNS = [(study_spec(experiment2()), study_config(name), n, math.pi / 2)
        for name in ("sbp2", "sbp4") for n in (10, 20, 40, 80)]
RUNS += [(experiment1(), scheme_config("sbp3"), 320, math.pi / 16),
         (experiment3(), scheme_config("sbp1"), 160, None)]


def digest() -> str:
    sha = hashlib.sha256()
    for spec, scheme, n, t_final in RUNS:
        field, record = run_single(assemble(spec, scheme, n, n), t_final=t_final)
        sha.update(field.data.tobytes())
        sha.update(repr(record).encode())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
