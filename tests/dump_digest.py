"""Print one SHA-256 digest of the field dumps of the exp3-dump CLI run,
after checking every dump against the node-by-node reference writer.

A change meant to keep every output byte of the CLI should leave this
digest as it was; run the script in a checkout of each commit and
compare the two lines:

    PYTHONPATH=src python tests/dump_digest.py

The run is experiment 3 with ``sbp1`` on a 160² grid, dumping every 50
steps (13 dumps), into a temporary directory that is removed afterwards.
Each ``write_field_dump`` call's field is kept, and every ``fields_*.csv``
with its ``.meta`` sidecar must equal ``tests/reference_dump.py``'s bytes
for it; ``fields_final.csv``, copied from the last periodic dump, is
checked against that dump's state.  On any difference the script names
the files and exits 1.  The digest covers, in name order, each
``fields_*.csv`` with its ``.meta`` sidecar, then ``error_table.csv``,
each file's name before its bytes: the digest that perfbench's exp3-dump
workload reports as ``dump_digest``.  BLAS is held to one thread, since
its blocking of a product, and so its rounding, may depend on the thread
count.  The script is not a test module; pytest does not collect it.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from inductionfd import cli  # noqa: E402

from reference_dump import reference_dump  # noqa: E402

ARGV = ("--experiment", "3", "--scheme", "sbp1", "--nx", "160", "--ny", "160",
        "--dump-every", "50")


def digest() -> tuple[str, list[str]]:
    """The run's digest and the names of the dumps that differ from the
    reference writer's bytes."""
    written = {}
    write = cli.write_field_dump

    def keeping(field, div, path, meta):
        written[Path(path).name] = (field.grid, field.data.copy(), field.magnitude(),
                                    div.copy(), dict(meta))
        write(field, div, path, meta)

    sha = hashlib.sha256()
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cli.write_field_dump = keeping
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*ARGV, "--out", str(out)])
        finally:
            cli.write_field_dump = write
        if code != 0:
            raise SystemExit(f"the CLI run exited with {code}")
        last = max(name for name in written if name.startswith("fields_step"))
        for path in sorted(out.glob("fields_*.csv")):
            grid, data, mag, div, meta = written.get(path.name, written[last])
            csv, sidecar = reference_dump(grid.x, grid.y, data, mag, div, meta)
            if (path.read_bytes() != csv.encode()
                    or Path(f"{path}.meta").read_bytes() != sidecar.encode()):
                differ.append(path.name)
        for path in sorted(out.glob("fields_*.csv")) + [out / "error_table.csv"]:
            sha.update(path.name.encode())
            sha.update(path.read_bytes())
            if path.name.startswith("fields_"):
                sha.update(Path(f"{path}.meta").read_bytes())
    return sha.hexdigest(), differ


if __name__ == "__main__":
    hexdigest, differ = digest()
    print(hexdigest)
    if differ:
        print(f"{len(differ)} dumps differ from the reference writer: {', '.join(differ)}",
              file=sys.stderr)
        sys.exit(1)
