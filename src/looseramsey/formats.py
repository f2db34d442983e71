"""Coloring file formats.

Canonical output format LRC1: header line ``LRC1 <N>`` followed by a
hex-encoded red bitmap of ceil(C(N,3)/4) digits in colex order, bit i
corresponding to rank i, most significant bit first within each hex digit.

Also accepted on input, LRE1: header line ``LRE1 <N>`` followed by one
``a b c`` line per red triple; blue is implied for every other triple.
"""

from __future__ import annotations

import os
import stat
from binascii import unhexlify
from functools import reduce
from itertools import compress, repeat
from math import comb
from operator import add
from typing import TextIO

from .core import Coloring, TripleEdge, _comb_tables, colex_unrank


class FormatError(ValueError):
    """Malformed coloring file."""


# LRC1 digit j holds ranks 4j..4j+3, rank 4j in its top bit, so byte i of the
# unhexlified digits is the little-endian bitmap's byte i, bit-reversed.  The
# bit reversals of 2^(k+1) bytes are those of 2^k, then those with bit 7-k set.
_BIT_REVERSE = bytes(reduce(lambda t, k: t + [b | 128 >> k for b in t], range(8), [0]))
_DROP_HEX = str.maketrans("", "", "0123456789abcdefABCDEF")


def encode_lrc1(coloring: Coloring) -> str:
    n_digits = (coloring.n_triples + 3) // 4
    data = coloring.red_bits.to_bytes((n_digits + 1) // 2, "little").translate(_BIT_REVERSE)
    return f"LRC1 {coloring.n_vertices}\n{data.hex()[:n_digits]}\n"


# format(bits, "0{width}b") reversed and encoded is one byte per rank, up to
# the width; this maps its ASCII digits to 0/1 flags, which compress reads.
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def encode_lre1(coloring: Coloring) -> str:
    """One ``x y z`` line per red triple, in rank order.  The triples
    {x < y < z} of one z fill the ranks [C(z,3), C(z+1,3)) in the order of
    their pair labels ``"x y "`` (y ascending, then x), so one list of those
    labels, grown by z - 1 entries per z, serves every z: each z with a red
    triple is one join of its red pair labels over the tail ``"z\\n"``, and
    of all its labels when all its triples are red, as in a split coloring.
    The flags and labels stop at the highest red vertex, so a sparse coloring
    of a huge N costs only its red span."""
    bits = coloring.red_bits
    top = colex_unrank(bits.bit_length() - 1, coloring.n_vertices).c if bits else 0
    # the flags end with the block of z = top, so a block without a 0 is all red
    flags = format(bits, f"0{comb(top + 1, 3)}b")[::-1].encode().translate(_FLAGS)
    labels = [f"{x} " for x in range(top)]
    pairs = []
    out = [f"LRE1 {coloring.n_vertices}\n"]
    base = 0
    for z in range(2, top + 1):
        pairs += map(add, labels[:z - 1], repeat(labels[z - 1]))
        end = base + len(pairs)
        block = flags[base:end]
        if 1 in block:
            tail = f"{z}\n"
            out.append(tail.join(compress(pairs, block) if 0 in block else pairs) + tail)
        base = end
    return "".join(out)


def decode(text: str) -> Coloring:
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise FormatError("empty coloring file")
    header = lines[0].split()
    if len(header) != 2 or header[0] not in ("LRC1", "LRE1"):
        raise FormatError(f"unrecognized header {lines[0]!r}")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise FormatError(f"bad vertex count {header[1]!r}") from exc
    if n < 3:
        raise FormatError(f"vertex count {n} below 3")
    n_triples = comb(n, 3)

    if header[0] == "LRC1":
        hex_str = "".join(lines[1:])
        expected = (n_triples + 3) // 4
        if len(hex_str) != expected:
            raise FormatError(
                f"expected {expected} hex digits for N={n}, got {len(hex_str)}"
            )
        try:
            data = unhexlify(hex_str + "0" * (expected & 1))
        except ValueError as exc:  # binascii.Error, or a non-ASCII digit
            raise FormatError(f"bad hex digit {hex_str.translate(_DROP_HEX)[0]!r}") from exc
        bits = int.from_bytes(data.translate(_BIT_REVERSE), "little")
        if bits >> n_triples:
            raise FormatError("padding bits must be zero")
        return Coloring(n, bits)

    # Nothing is sized by n: the bitmap by the largest rank, the label dict and
    # C(y,2), C(z,3) tables by 3 a line; a label they miss ("07") takes int, comb.
    size = min(n, 3 * len(lines) - 3)
    labels = {str(v): v for v in range(size)}
    c2, c3 = _comb_tables.__wrapped__(size)  # uncached: sized by this file
    ranks = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"expected three vertex labels, got {ln!r}")
        try:
            x, y, z = labels[parts[0]], labels[parts[1]], labels[parts[2]]
        except KeyError:
            try:
                x, y, z = map(int, parts)
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
        if x > y:
            x, y = y, x
        if x < 0 or x == y or y == z or z >= n:
            try:
                TripleEdge.of(*map(int, parts))
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
            raise FormatError(f"edge {ln!r} outside [0, {n})")
        ranks.append(c3[z] + c2[y] + x if z < size else comb(z, 3) + comb(y, 2) + x)
    # rank r is bit r & 7 of byte r >> 3, set in one pass over a byte buffer
    buf = bytearray((max(ranks, default=-1) + 8) // 8)
    for r in ranks:
        buf[r >> 3] |= 1 << (r & 7)
    return Coloring(n, int.from_bytes(buf, "little"))


def write_coloring(coloring: Coloring, fh: TextIO, explicit: bool = False) -> None:
    fh.write(encode_lre1(coloring) if explicit else encode_lrc1(coloring))


def write_file(path: str, coloring: Coloring, explicit: bool = False) -> None:
    """Write the bytes that write_coloring prints to the file at path.

    A regular file is overwritten in place, not truncated on open, which
    took about ten times as long as the write itself on an ext4 file system
    mounted with discard (x86-64, Linux).  The certificate goes in
    with its first byte replaced by ``#``, the file is cut to its length,
    and the first byte goes in last.  So a write that stops at any step
    leaves the old file as it was, or a file whose first line starts with
    ``#``, which decode rejects as an unrecognized header, whatever the file
    held before; a short write raises OSError.  Anything else, such as a
    pipe or /dev/null, which refuse pwrite and ftruncate, gets one
    sequential write.  A new file gets mode 0o666 & ~umask; a symlink is
    written through."""
    data = memoryview((encode_lre1(coloring) if explicit else encode_lrc1(coloring)).encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            while data:
                data = data[os.write(fd, data):]
            return
        if os.pwritev(fd, (b"#", data[1:]), 0) < len(data):
            raise OSError(f"short write to {path!r}")
        os.ftruncate(fd, len(data))
        if os.pwrite(fd, data[:1], 0) < 1:
            raise OSError(f"short write to {path!r}")
    finally:
        os.close(fd)


def read_coloring(fh: TextIO) -> Coloring:
    return decode(fh.read())
