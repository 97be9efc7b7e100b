"""The field-dump CSV and sidecar as a node-by-node writer formats them:
the reference that ``cli.write_field_dump`` is compared with."""


def reference_dump(x, y, data, mag, div, meta: dict) -> tuple[str, str]:
    """The CSV text and the sidecar line of a dump of ``data`` (2, npx,
    npy), ``mag`` and ``div`` (npx, npy) on nodes ``x`` by ``y``, each value
    formatted on its own as ``f"{v:.6g}"``."""
    lines = ["x,y,B1,B2,Bmag,divP\n"]
    for i in range(len(x)):
        for j in range(len(y)):
            lines.append(
                f"{x[i]:.6g},{y[j]:.6g},{data[0, i, j]:.6g},{data[1, i, j]:.6g},"
                f"{mag[i, j]:.6g},{div[i, j]:.6g}\n"
            )
    meta_line = "# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"
    return "".join(lines), meta_line
