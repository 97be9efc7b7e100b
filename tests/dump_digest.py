"""Print one SHA-256 digest of the field dumps of the exp3-dump CLI run.

A change meant to keep every output byte of the CLI should leave this
digest as it was; run the script in a checkout of each commit and
compare the two lines:

    PYTHONPATH=src python tests/dump_digest.py

The run is experiment 3 with ``sbp1`` on a 160² grid, dumping every 50
steps (13 dumps), into a temporary directory that is removed afterwards.
The digest covers, in name order, each ``fields_*.csv`` with its
``.meta`` sidecar, then ``error_table.csv``, each file's name before its
bytes: the digest that perfbench's exp3-dump workload reports as
``dump_digest``.  BLAS is held to one thread, since its blocking of a
product, and so its rounding, may depend on the thread count.  The
script is not a test module; pytest does not collect it.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from inductionfd import cli  # noqa: E402

ARGV = ("--experiment", "3", "--scheme", "sbp1", "--nx", "160", "--ny", "160",
        "--dump-every", "50")


def digest() -> str:
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*ARGV, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"the CLI run exited with {code}")
        for path in sorted(out.glob("fields_*.csv")) + [out / "error_table.csv"]:
            sha.update(path.name.encode())
            sha.update(path.read_bytes())
            if path.name.startswith("fields_"):
                sha.update(Path(f"{path}.meta").read_bytes())
    return sha.hexdigest()


if __name__ == "__main__":
    print(digest())
