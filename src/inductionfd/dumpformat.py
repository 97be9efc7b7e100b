"""The bulk formatter of the CLI's field dumps: the CSV lines of a
grid's nodes, every value as the bytes ``format(value, ".6g")`` prints,
with no Python object made per value.

``write_csv`` takes a block of whole x rows at a time (``_DUMP_NODES``).
Each node's record holds its x and y text, formatted once per dump, and
each value as a fixed superstring of every byte ``%.6g`` could print for
it (``_format_values``) with a mask of the bytes it does print; one
``np.compress`` keeps those bytes of the block.  The digits come from a
10**k table of correctly rounded powers: the scaled value is within
2.3e-10 of exact, so it rounds as the exact value does unless it lies
within 1e-8 of a rounding tie.  Such values, and those that are not
finite, are subnormal or have an exponent outside +-290 (``_EXP``), take
``format(v, ".6g")`` itself, so the bytes are identical by construction,
not within a tolerance.

``cli.write_field_dump`` imports this module on its first call, so a
process that writes no dump, such as a study, neither loads nor compiles
it.
"""

from __future__ import annotations

import functools

import numpy as np


#: Values whose decimal exponent lies outside [-_EXP, _EXP] (subnormals
#: among them) take the fallback, so 10**(5 - e) below stays a normal float.
_EXP = 290
#: Nodes per block of whole x rows (at least one row) that
#: ``write_csv`` formats and compacts at a time; a block's records
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
        texts = [f",{x:.6g}" for x in v[fallback].tolist()]
        words[fallback], keep[fallback] = _pieces(texts, 3)
    return fallback


def write_csv(fh, header: str, x: np.ndarray, y: np.ndarray, columns) -> None:
    """Write to the binary file ``fh`` the CSV ``header`` line and then one
    line per node of the grid with nodes ``x`` and ``y``, x-major: x, y
    and the value of each (npx, npy) array of ``columns`` at the node."""
    # each record starts with its newline, so the header is written
    # without one and the last line's newline is written at the end
    fh.write(header.encode())
    xs, x_keep = _pieces([f"\n{v:.6g}" for v in x], 2)
    ys, y_keep = _pieces([f",{v:.6g}" for v in y], 2)
    rows = max(1, _DUMP_NODES // len(y))
    records = np.empty((rows, len(y)), _RECORD)
    keep = np.empty_like(records)
    records["y"], keep["y"] = ys, y_keep
    for start in range(0, len(x), rows):
        stop = min(start + rows, len(x))
        block, block_keep = records[:stop - start], keep[:stop - start]
        block["x"], block_keep["x"] = xs[start:stop, None], x_keep[start:stop, None]
        _format_values(np.stack([c[start:stop] for c in columns], axis=-1),
                       block["values"], block_keep["values"])
        fh.write(np.compress(block_keep.view(np.bool_).ravel(),
                             block.view(np.uint8).ravel()))
    fh.write(b"\n")
