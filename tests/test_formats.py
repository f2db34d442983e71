"""Coloring file formats: round trips and malformed input."""

import io
import os
import random
import stat
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from looseramsey.constructions import (
    PMCN,
    PNCM,
    PairKind,
    SplitSpec,
    build_split_coloring,
    lower_bound_params,
)
from looseramsey.core import (
    PATH,
    RED,
    Coloring,
    TripleEdge,
    Witness,
    _comb_tables,
    colex_rank,
    validate_loose_path,
    verify_witness,
)
from looseramsey.formats import (
    FormatError,
    decode,
    encode_lrc1,
    encode_lre1,
    read_coloring,
    write_coloring,
    write_file,
)


def test_lrc1_header_and_length():
    text = encode_lrc1(Coloring(6, 0).swap())
    lines = text.splitlines()
    assert lines[0] == "LRC1 6"
    assert len(lines[1]) == (20 + 3) // 4


def test_lre1_lists_red_triples():
    c = Coloring(5, 1 << colex_rank(TripleEdge(0, 1, 2)) | 1 << colex_rank(TripleEdge(1, 3, 4)))
    text = encode_lre1(c)
    assert text.splitlines() == ["LRE1 5", "0 1 2", "1 3 4"]


@pytest.mark.parametrize(
    "c",
    [
        Coloring(5, 0).swap(),
        Coloring(5, 0),
        Coloring(6, 0b10110),
        Coloring(9, 0x1234567890),
    ],
)
def test_round_trips(c):
    assert decode(encode_lrc1(c)) == c
    assert decode(encode_lre1(c)) == c


@given(st.integers(3, 9), st.randoms(use_true_random=False))
def test_round_trip_random(n, rnd):
    c = Coloring(n, rnd.getrandbits(comb(n, 3)))
    assert decode(encode_lrc1(c)) == c
    assert decode(encode_lre1(c)) == c


@pytest.mark.parametrize("n", [1200, 100_000])
def test_sparse_lre1_is_sized_by_its_edges(n):
    """A sparse LRE1 file costs memory for its edges, not for C(N,3) bits:
    at N = 100000 that would be about 21 TB."""
    _comb_tables.cache_clear()  # count the rank tables, even if cached earlier
    tracemalloc.start()
    try:
        c = decode(f"LRE1 {n}\n0 1 2\n")
        ok = verify_witness(c, Witness(RED, PATH, validate_loose_path([0, 1, 2])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == Coloring(n, 1) and ok
    assert peak < 1 << 20


def test_huge_sparse_coloring_encodes_its_red_span():
    """Encoding reads the bitmap up to its highest red rank and labels up to
    its highest red vertex, never C(N,3) bits: at N = 100000 that would be
    about 1.7e14 flags."""
    c = Coloring(100_000, 0b1011)
    tracemalloc.start()
    try:
        text = encode_lre1(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.splitlines() == ["LRE1 100000", "0 1 2", "0 1 3", "1 2 3"]
    assert decode(text) == c
    assert peak < 1 << 20


def test_stream_round_trip():
    c = Coloring(7, 0x5a5a5)
    buf = io.StringIO()
    write_coloring(c, buf, explicit=True)
    buf.seek(0)
    assert read_coloring(buf) == c


class TestWriteFile:
    """write_file writes what write_coloring prints; over a regular file it
    writes in place, and a write that stops anywhere leaves either the old
    file or one that decode rejects."""

    SPLIT = build_split_coloring(lower_bound_params(PairKind(PNCM, 6, 6)))  # N = 14
    COLORINGS = [Coloring(7, 0), Coloring(7, 0x5a5a5), SPLIT, Coloring(100, 1)]
    # old contents: shorter and longer certificates, one of them after blank
    # lines (a header beyond the new header line), and no certificate at all
    OLD = [b"", encode_lrc1(Coloring(5, 3)).encode(), encode_lre1(SPLIT.swap()).encode(),
           b"\n" * 40 + encode_lre1(Coloring(9, 7)).encode(), b"\xff" * 300]

    @staticmethod
    def _text(c, explicit):
        buf = io.StringIO()
        write_coloring(c, buf, explicit=explicit)
        return buf.getvalue()

    @pytest.mark.parametrize("explicit", [False, True], ids=["LRC1", "LRE1"])
    def test_overwrite_is_the_stream_bytes(self, tmp_path, explicit):
        path = tmp_path / "c"
        for old in self.OLD:
            for c in self.COLORINGS:
                path.write_bytes(old)
                write_file(str(path), c, explicit)
                assert path.read_bytes() == self._text(c, explicit).encode()

    @pytest.mark.parametrize("explicit", [False, True], ids=["LRC1", "LRE1"])
    def test_every_stop_leaves_the_old_file_or_a_rejected_one(self, tmp_path, monkeypatch, explicit):
        """The writer's steps are one pwritev, one ftruncate and one pwrite;
        each stop point is a short first write of every length, or a failed
        later step."""
        real_pwrite = os.pwrite
        path = tmp_path / "c"

        def stopped(old, c, patch):
            path.write_bytes(old)
            with monkeypatch.context() as m:
                for name, fake in patch.items():
                    m.setattr(os, name, fake)
                with pytest.raises(OSError):
                    write_file(str(path), c, explicit)
            return path.read_bytes()

        def fail(*args):
            raise OSError(28, "No space left on device")

        for old in self.OLD:
            for c in self.COLORINGS:
                size = len(self._text(c, explicit))
                leftovers = [
                    stopped(old, c, {"pwritev": lambda fd, bufs, off, k=k: real_pwrite(
                        fd, b"".join(bufs)[:k], off)})
                    for k in (0, 1, 2, 6, 7, 8, size // 2, size - 1) if k < size
                ]
                leftovers.append(stopped(old, c, {"ftruncate": fail}))
                leftovers.append(stopped(old, c, {"pwrite": fail}))
                leftovers.append(stopped(old, c, {"pwrite": lambda fd, data, off: 0}))
                assert leftovers[0] == old  # nothing written
                for left in leftovers[1:]:
                    with pytest.raises(FormatError):
                        decode(left.decode("latin-1"))

    def test_modes_and_symlinks(self, tmp_path):
        c = Coloring(7, 0x5a5a5)
        text = encode_lrc1(c).encode()
        mask = os.umask(0o027)
        try:
            write_file(str(tmp_path / "new"), c)
        finally:
            os.umask(mask)
        assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o640
        old = tmp_path / "old"
        old.write_bytes(b"x" * 100)
        old.chmod(0o600)
        write_file(str(old), c)
        assert stat.S_IMODE(old.stat().st_mode) == 0o600 and old.read_bytes() == text
        link = tmp_path / "link"
        link.symlink_to(old)
        write_file(str(link), c, explicit=True)
        assert link.is_symlink() and old.read_bytes() == encode_lre1(c).encode()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_pipe_gets_one_sequential_write(self):
        c = Coloring(7, 0x5a5a5)
        r, w = os.pipe()
        with open(r, "rb") as fh:
            try:
                write_file(f"/dev/fd/{w}", c, explicit=True)  # a pipe refuses pwrite
            finally:
                os.close(w)
            assert fh.read() == encode_lre1(c).encode()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "LRC9 6\n00000",
        "LRC1\n00000",
        "LRC1 x\n00000",
        "LRC1 2\n0",
        "LRC1 6\n0000",  # too few digits
        "LRC1 6\n000000",  # too many digits
        "LRC1 6\n0000g",
        "LRC1 5\n003",  # padding bits set (C(5,3)=10, bits 10-11 are padding)
        "LRC1 6\n00é00",  # a non-ASCII digit
        "LRC1 30\n" + "0" * 1014 + "g",  # odd digit count, bad last digit
        "LRC1 31\n" + "0" * 561 + "é" + "0" * 562,  # even digit count
        "LRE1 5\n0 1",
        "LRE1 5\n0 1 1",
        "LRE1 5\n0 1 5",
        # labels that int() reads but the label dict misses
        "LRE1 5\n0 1 05",
        "LRE1 5\n+0 0 1",
        "LRE1 5\n0 1 ٥",
        "LRE1 12\n0 1 1_2_",
        "LRE1 100000\n0 1 100000",
    ],
)
def test_malformed(text):
    with pytest.raises(FormatError):
        decode(text)


# The quadratic codecs that the linear ones replaced, kept verbatim (bar the
# names and `cls`) as references: the new code must emit the same bytes,
# decode to the same Coloring and raise the same FormatError messages.


def _reference_encode_lrc1(coloring: Coloring) -> str:
    n_digits = (coloring.n_triples + 3) // 4
    digits = []
    bits = coloring.red_bits
    for j in range(n_digits):
        value = 0
        for k in range(4):
            rank = 4 * j + k
            if rank < coloring.n_triples and (bits >> rank) & 1:
                value |= 1 << (3 - k)
        digits.append(format(value, "x"))
    return f"LRC1 {coloring.n_vertices}\n{''.join(digits)}\n"


def _reference_decode(text: str) -> Coloring:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
        bits = 0
        for j, ch in enumerate(hex_str):
            try:
                value = int(ch, 16)
            except ValueError as exc:
                raise FormatError(f"bad hex digit {ch!r}") from exc
            for k in range(4):
                if value & (1 << (3 - k)):
                    rank = 4 * j + k
                    if rank >= n_triples:
                        raise FormatError("padding bits must be zero")
                    bits |= 1 << rank
        return Coloring(n, bits)

    bits = 0
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FormatError(f"expected three vertex labels, got {ln!r}")
        try:
            e = TripleEdge.of(*(int(p) for p in parts))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        if e.c >= n:
            raise FormatError(f"edge {ln!r} outside [0, {n})")
        bits |= 1 << colex_rank(e)
    return Coloring(n, bits)


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _spellings(label: str) -> list:
    """label and other strings that int() reads as the same vertex."""
    return [label, f"0{label}", f"+{label}", label.translate(_ARABIC_INDIC), "_".join(label)]


# The LRE1 encoder that the block join replaced, with the red-edge scan it
# called inlined: one line per red triple found in the bitmap's binary string.


def _reference_encode_lre1(coloring: Coloring) -> str:
    lines = [f"LRE1 {coloring.n_vertices}"]
    flags = format(coloring.red_bits, f"0{coloring.n_triples}b")[::-1]
    base = 0
    for z in range(2, coloring.n_vertices):
        for y in range(1, z):
            end = base + y
            x = flags.find("1", base, end)
            while x >= 0:
                lines.append(f"{x - base} {y} {z}")
                x = flags.find("1", x + 1, end)
            base = end
    return "\n".join(lines) + "\n"


def _error(fn, *args):
    """The type and message fn raises, or None when it returns."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


class TestCodecParity:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 20), rnd=st.randoms(use_true_random=False))
    def test_same_bytes_and_colorings(self, n, rnd):
        c = Coloring(n, rnd.getrandbits(comb(n, 3)))
        lrc1 = encode_lrc1(c)
        assert lrc1 == _reference_encode_lrc1(c)
        lre1 = encode_lre1(c)
        assert lre1 == _reference_encode_lre1(c)
        # LRE1 input in any line order, each line's vertices in any order
        lines = [ln.split() for ln in lre1.splitlines()[1:]]
        rnd.shuffle(lines)
        shuffled = f"LRE1 {n}\n" + "".join(" ".join(rnd.sample(ln, 3)) + "\n" for ln in lines)
        # each label spelled as int() reads it: "07", "+7", "٧", "1_0"
        respelled = f"LRE1 {n}\n" + "".join(
            " ".join(rnd.choice(_spellings(v)) for v in ln) + "\n" for ln in lines)
        # the LRC1 digits cut over several lines, blank and padded ones among them
        digits = lrc1.splitlines()[1]
        cuts = sorted(rnd.choices(range(len(digits) + 1), k=3))
        split = f"LRC1 {n}\n" + "".join(
            f"  {digits[i:j]} \n\n" for i, j in zip([0, *cuts], [*cuts, len(digits)]))
        for text in (lrc1, lrc1.upper(), lre1, shuffled, respelled, split):
            assert decode(text) == _reference_decode(text) == c

    @pytest.mark.parametrize("n", [3, 4, 30, 74, 100])
    @pytest.mark.parametrize("kind", ["all-blue", "all-red", "rank 0", "top rank", "random"])
    def test_same_bytes_on_fixed_colorings(self, n, kind):
        top = comb(n, 3) - 1
        c = Coloring(n, {
            "all-blue": 0,
            "all-red": (1 << top + 1) - 1,
            "rank 0": 1,
            "top rank": 1 << top,
            "random": random.Random(n).getrandbits(top + 1),
        }[kind])
        lrc1, lre1 = encode_lrc1(c), encode_lre1(c)
        assert lrc1 == _reference_encode_lrc1(c)
        assert lre1 == _reference_encode_lre1(c)
        for text in (lrc1, lre1):
            assert decode(text) == _reference_decode(text) == c

    @pytest.mark.parametrize("text", [
        "LRE1 12\n07 +3 1_0\n",
        "LRE1 12\n٣ 1_1 +07\n0 1 2\n",
        # one line: the tables stop at 3 labels, and 299 lies past them
        "LRE1 100000\n0 1 299\n",
        "LRE1 100000\n299 +0 0_1\n5 3 4\n",
    ])
    def test_same_colorings_on_other_label_spellings(self, text):
        assert decode(text) == _reference_decode(text)

    def test_same_bytes_on_the_split_coloring(self):
        c = build_split_coloring(lower_bound_params(PairKind(PNCM, 30, 30)))
        assert c.n_vertices == 74
        assert encode_lre1(c) == _reference_encode_lre1(c)

    # The triples {x < y < z} of one z fill the ranks [C(z,3), C(z+1,3)).

    @pytest.mark.parametrize("n", range(3, 21))
    def test_same_bytes_at_the_ends_of_each_z_block(self, n):
        """The only red triple is the first, or the last, rank of a z block."""
        for z in range(2, n):
            for rank in (comb(z, 3), comb(z + 1, 3) - 1):
                c = Coloring(n, 1 << rank)
                assert encode_lre1(c) == _reference_encode_lre1(c), (z, rank)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_same_bytes_below_the_top_vertex(self, n):
        """The highest red vertex h is below N - 1: blocks z > h are blank."""
        for h in range(2, n - 1):
            rnd = random.Random(n * 100 + h)
            top = 1 << rnd.randrange(comb(h, 3), comb(h + 1, 3))
            c = Coloring(n, rnd.getrandbits(comb(h + 1, 3)) | top)
            assert encode_lre1(c) == _reference_encode_lre1(c), h

    @pytest.mark.parametrize("kind", ["pp", "cc", "pncm", "pmcn"])
    def test_same_bytes_on_split1_colorings(self, kind):
        """The split+1 coloring (one extra vertex in A or in B) of every pair
        of the kind with n <= 8, plain and colour-swapped."""
        for n in range(3, 9):
            for m in range(3, n if kind == PMCN else n + 1):
                spec = lower_bound_params(PairKind(kind, n, m))
                for a, b in ((spec.a + 1, spec.b), (spec.a, spec.b + 1)):
                    split = build_split_coloring(SplitSpec(a, b))
                    for c in (split, split.swap()):
                        assert encode_lre1(c) == _reference_encode_lre1(c), (n, m, a, b)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 20), rnd=st.randoms(use_true_random=False))
    @example(n=30, rnd=random.Random(30))  # 1015 digits
    @example(n=31, rnd=random.Random(31))  # 1124 digits
    def test_same_errors(self, n, rnd):
        """A bad ASCII or non-ASCII hex digit at the start, in the middle or
        at the end, a wrong digit count, set padding bits, and bad LRE1 lines
        raise the reference's FormatError with its message."""
        n_triples = comb(n, 3)
        digits = encode_lrc1(Coloring(n, rnd.getrandbits(n_triples))).splitlines()[1]
        mid = len(digits) // 2
        texts = [
            f"LRC1 {n}\n{digits}0",
            f"LRC1 {n}\n{digits[:-1]}",
            f"LRE1 {n}\n0 1",
            f"LRE1 {n}\n0 1 1",
            f"LRE1 {n}\n0 1 {n}",
            f"LRE1 {n}\n0 1 two",
            f"LRE1 {n}\n0 1 0{n}",
            f"LRE1 {n}\n+1 1 2",
            f"LRE1 {n}\n0 -1 2",
        ]
        for bad in (rnd.choice("gxz-+_ ."), rnd.choice("é×ßΣ")):
            texts += [
                f"LRC1 {n}\n{bad}{digits[1:]}",
                f"LRC1 {n}\n{digits[:mid]}{bad}{digits[mid + 1:]}",
                f"LRC1 {n}\n{digits[:-1]}{bad}",
            ]
        if n_triples % 4:
            # the last digit's low bits are padding; set the lowest one
            last = int(digits[-1], 16) | 1
            texts.append(f"LRC1 {n}\n{digits[:-1]}{last:x}")
        for text in texts:
            expected = _error(_reference_decode, text)
            assert expected is not None and expected[0] is FormatError, text
            assert _error(decode, text) == expected, text

    def test_upper_case_hex_accepted(self):
        c = Coloring(9, 0xFEDCBA9876543210ABCDE)
        assert decode(encode_lrc1(c).upper()) == c

    def test_non_ascii_digits_rejected(self):
        """int(ch, 16) per digit also took other Unicode decimal digits
        (here ARABIC-INDIC DIGIT ZERO); LRC1 digits are ASCII hex only."""
        text = "LRC1 5\n٠٠٠"
        assert _reference_decode(text) == Coloring(5, 0)
        with pytest.raises(FormatError, match="bad hex digit"):
            decode(text)
