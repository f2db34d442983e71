"""Brute-force ground truth: complete searches and tiny-N enumeration."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from looseramsey.constructions import SplitSpec, build_split_coloring
from looseramsey.core import (
    BLUE,
    CYCLE,
    PATH,
    RED,
    Coloring,
    verify_witness,
)
from looseramsey.formats import decode, encode_lre1
from looseramsey.oracle import (
    _find_mono,
    _link_table,
    _LinkTables,
    _structure_masks,
    _twins,
    exhaustive_avoidance_search,
    find_mono_cycle,
    find_mono_path,
)


def _random_coloring(n, rnd):
    return Coloring(n, rnd.getrandbits(comb(n, 3)))


def _relabeled(c, perm):
    """The coloring with vertex v renamed perm[v]."""
    edges = (map(int, ln.split()) for ln in encode_lre1(c).splitlines()[1:])
    lines = "".join(f"{perm[x]} {perm[y]} {perm[z]}\n" for x, y, z in edges)
    return decode(f"LRE1 {c.n_vertices}\n{lines}")


def _flipped(c, k, rnd):
    """The coloring with k random triples changed in colour (a triple drawn
    twice flips back)."""
    bits = c.red_bits
    for _ in range(k):
        bits ^= 1 << rnd.randrange(c.n_triples)
    return Coloring(c.n_vertices, bits)


def longest_mono_path(coloring, color):
    """Largest l admitting a monochromatic loose path, with a witness
    (length 0 and None if there is none).

    A prefix of a loose path is a loose path, so the first failing length
    settles the maximum.
    """
    best = None
    length = 0
    while 2 * (length + 1) + 1 <= coloring.n_vertices:
        found = find_mono_path(coloring, color, length + 1)
        if found is None:
            break
        best = found
        length += 1
    return length, best


class TestFindMonoPath:
    def test_all_red_k7(self):
        w = find_mono_path(Coloring(7, 0).swap(), RED, 3)
        assert list(w.structure.vertices) == [0, 1, 2, 3, 4, 5, 6]
        assert verify_witness(Coloring(7, 0).swap(), w)

    def test_split_has_no_red_p3(self):
        c = build_split_coloring(SplitSpec(7, 1))
        assert find_mono_path(c, RED, 3) is None

    def test_parameter_errors(self):
        c = Coloring(8, 0).swap()
        with pytest.raises(ValueError):
            find_mono_path(c, RED, 0)
        with pytest.raises(ValueError):
            find_mono_path(c, RED, 4)  # needs 9 vertices
        with pytest.raises(ValueError, match="unknown color 'Red'"):
            find_mono_path(c, "Red", 2)

    def test_deterministic(self):
        rnd = random.Random(5)
        for _ in range(20):
            c = _random_coloring(8, rnd)
            a = find_mono_path(c, RED, 2)
            b = find_mono_path(c, RED, 2)
            assert (a is None) == (b is None)
            if a is not None:
                assert a == b

    @given(st.integers(0, 2 ** comb(7, 3) - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_length(self, bits):
        c = Coloring(7, bits)
        if find_mono_path(c, BLUE, 3) is not None:
            assert find_mono_path(c, BLUE, 2) is not None


class TestFindMonoCycle:
    def test_all_blue_k6(self):
        w = find_mono_cycle(Coloring(6, 0), BLUE, 3)
        assert list(w.structure.vertices) == [0, 1, 2, 3, 4, 5]

    def test_split_has_no_blue_c4_on_8(self):
        c = build_split_coloring(SplitSpec(7, 1))
        assert find_mono_cycle(c, BLUE, 4) is None

    def test_split_has_no_red_c3_on_6(self):
        c = build_split_coloring(SplitSpec(5, 1))
        assert find_mono_cycle(c, RED, 3) is None

    def test_parameter_errors(self):
        c = Coloring(6, 0).swap()
        with pytest.raises(ValueError):
            find_mono_cycle(c, RED, 2)
        with pytest.raises(ValueError):
            find_mono_cycle(c, RED, 4)
        with pytest.raises(ValueError, match="unknown color 'green'"):
            find_mono_cycle(c, "green", 3)


class TestLongestMonoPath:
    def test_all_red_k9(self):
        length, w = longest_mono_path(Coloring(9, 0).swap(), RED)
        assert length == 4 and w.length == 4

    def test_no_edges(self):
        assert longest_mono_path(Coloring(9, 0).swap(), BLUE) == (0, None)

    def test_split(self):
        c = build_split_coloring(SplitSpec(7, 1))
        assert longest_mono_path(c, RED)[0] == 2


class TestAgainstEnumeratedCopies:
    """The DFS answers agree with a scan over every copy of the structure
    (the enumerator's edge masks) on sparse random colorings, present
    and absent alike."""

    @pytest.mark.parametrize(
        "n,shape,length,density",
        [(7, PATH, 3, 0.12), (8, PATH, 3, 0.08), (6, CYCLE, 3, 0.25),
         (8, CYCLE, 3, 0.08), (8, CYCLE, 4, 0.12)],
    )
    def test_presence_matches_copy_scan(self, n, shape, length, density):
        masks = _structure_masks(n, shape, length)
        finder = find_mono_path if shape == PATH else find_mono_cycle
        rnd = random.Random(n * 10 + length)
        present = 0
        for _ in range(120):
            bits = 0
            for rank in range(comb(n, 3)):
                if rnd.random() < density:
                    bits |= 1 << rank
            expected = any(bits & m == m for m in masks)
            assert (finder(Coloring(n, bits), RED, length) is not None) == expected
            present += expected
        assert 20 < present < 100


class TestRelabelingSymmetry:
    def test_permuted_coloring_has_permuted_answers(self):
        rnd = random.Random(11)
        for _ in range(10):
            c = _random_coloring(8, rnd)
            perm = list(range(8))
            rnd.shuffle(perm)
            pc = _relabeled(c, perm)
            for color in (RED, BLUE):
                for length in (2, 3):
                    assert (find_mono_path(c, color, length) is None) == (
                        find_mono_path(pc, color, length) is None
                    )


def _swap_preserves(verts, member, u, v):
    """Whether exchanging u and v maps every triple over verts to a triple
    with the same membership."""
    swap = {u: v, v: u}
    return all(
        member(*t) == member(*(swap.get(x, x) for x in t))
        for t in itertools.combinations(verts, 3)
    )


def check_twins(T, member):
    """_twins(T, len(T)) against a brute-force check of every transposition
    of the table's vertices, member(x, y, z) telling whether {x, y, z} is an
    edge; returns the lower-twin masks."""
    verts = range(len(T))
    cls, lower = _twins(T, len(T))
    for v in verts:
        below = [u for u in verts if u < v and _swap_preserves(verts, member, u, v)]
        assert lower[v] == sum(1 << u for u in below), (len(T), v)
        assert cls[v] == (below[0] if below else v), (len(T), v)
    return lower


class TestTwinClasses:
    """_twins against a brute-force check of every transposition."""

    def _check_coloring(self, c):
        return check_twins(_link_table(c.n_vertices, c.red_bits), c.test(RED))

    def test_split_colorings(self):
        for a in range(3, 10):
            for b in range(0, 5):
                lower = self._check_coloring(build_split_coloring(SplitSpec(a, b)))
                # the classes are exactly A = [0, a) and B = [a, a + b)
                assert lower == [(1 << v) - 1 if v < a else (1 << v) - (1 << a)
                                 for v in range(a + b)]

    def test_relabeled_split_colorings(self):
        """Classes whose members interleave with other labels: the lower-twin
        mask holds every member below v, not only the class's lowest."""
        rnd = random.Random(41)
        several = interleaved = 0
        for _ in range(40):
            a, b = rnd.randint(3, 8), rnd.randint(1, 4)
            perm = list(range(a + b))
            rnd.shuffle(perm)
            lower = self._check_coloring(_relabeled(build_split_coloring(SplitSpec(a, b)), perm))
            for v, mask in enumerate(lower):
                lowest = (mask & -mask).bit_length() - 1
                several += mask & (mask - 1) != 0
                interleaved += mask != 0 and mask != (1 << v) - (1 << lowest)
        assert several > 100 and interleaved > 100

    def test_flipped_split_colorings(self):
        rnd = random.Random(43)
        for k in (1, 2, 4):
            for _ in range(15):
                a, b = rnd.randint(3, 8), rnd.randint(0, 4)
                self._check_coloring(_flipped(build_split_coloring(SplitSpec(a, b)), k, rnd))

    def test_random_colorings(self):
        rnd = random.Random(47)
        for _ in range(40):
            n = rnd.randint(3, 10)
            density = rnd.choice((0.0, 0.02, 0.1, 0.5, 0.9, 1.0))
            self._check_coloring(
                Coloring(n, sum(1 << r for r in range(comb(n, 3)) if rnd.random() < density))
            )


class TestEnumeration:
    def test_budget_refusal(self):
        with pytest.raises(ValueError):
            exhaustive_avoidance_search(7, (CYCLE, 3), (CYCLE, 3))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            exhaustive_avoidance_search(5, (PATH, 2), (PATH, 2), mode="weird")

    def test_k5_p2_p2(self):
        # whether a coloring of K3_5 can dodge both a red and a blue 2-path
        # is settled by the enumeration itself; the count must include the
        # all-one-color colorings iff a single color class can avoid P2,
        # which it cannot on 5 vertices, so any avoider must be mixed
        found = exhaustive_avoidance_search(5, (PATH, 2), (PATH, 2))
        count = exhaustive_avoidance_search(5, (PATH, 2), (PATH, 2), mode="count")
        assert (found is None) == (count == 0)
        if found is not None:
            assert find_mono_path(found, RED, 2) is None
            assert find_mono_path(found, BLUE, 2) is None


def _reference_search(verts, test, shape, length):
    """The DFS before link tables, kept verbatim: candidates one triple at a
    time through an edge predicate."""
    cycle = shape == CYCLE
    failed = set()

    def extend(used, end, seq, remaining):
        if remaining == 0:
            if not cycle:
                return True
            for z in verts:
                if not used >> z & 1 and test(end, z, seq[0]):
                    seq.append(z)
                    return True
            return False
        if (used, end) in failed:
            return False
        for mid in verts:
            if used >> mid & 1:
                continue
            for new_end in verts:
                if new_end == mid or used >> new_end & 1:
                    continue
                if test(end, mid, new_end):
                    seq.append(mid)
                    seq.append(new_end)
                    if extend(used | 1 << mid | 1 << new_end, new_end, seq, remaining - 1):
                        return True
                    seq.pop()
                    seq.pop()
        failed.add((used, end))
        return False

    for i, v1 in enumerate(verts):
        if cycle:
            failed.clear()
        for v2 in verts if cycle else verts[i + 1 :]:
            if v2 == v1:
                continue
            for v3 in verts:
                if v3 == v1 or v3 == v2 or not test(v1, v2, v3):
                    continue
                seq = [v1, v2, v3]
                if extend(1 << v1 | 1 << v2 | 1 << v3, v3, seq, length - 1 - cycle):
                    return seq
    return None


def _reference_family_search(edges, shape, length):
    masks = set()
    verts = set()
    for a, b, c in edges:
        masks.add(1 << a | 1 << b | 1 << c)
        verts.update((a, b, c))

    def member(x, y, z):
        return (1 << x | 1 << y | 1 << z) in masks

    return _reference_search(sorted(verts), member, shape, length)


class TestAgainstReferenceSearch:
    """The link-row kernel returns the very sequence the predicate-driven
    DFS returned, not only the same presence."""

    def test_mono_searches(self):
        rnd = random.Random(29)
        splits = [build_split_coloring(SplitSpec(a, b))
                  for a in range(3, 8) for b in range(0, 4) if a + b <= 10]
        colorings = list(splits)
        for split in splits:
            perm = list(range(split.n_vertices))
            rnd.shuffle(perm)
            colorings.append(_relabeled(split, perm))
            colorings.append(_flipped(split, rnd.choice((1, 2, 4)), rnd))
        for _ in range(60):
            n = rnd.randint(3, 10)
            density = rnd.choice((0.05, 0.15, 0.35, 0.5))
            colorings.append(Coloring(n, sum(
                1 << r for r in range(comb(n, 3)) if rnd.random() < density)))
        found = absent = 0
        for c in colorings:
            n = c.n_vertices
            for color in (RED, BLUE):
                searches = [(find_mono_path, PATH, L) for L in range(1, (n - 1) // 2 + 1)]
                searches += [(find_mono_cycle, CYCLE, L) for L in range(3, n // 2 + 1)]
                for finder, shape, length in searches:
                    w = finder(c, color, length)
                    ref = _reference_search(range(n), c.test(color), shape, length)
                    got = None if w is None else list(w.structure.vertices)
                    assert got == ref, (c, color, shape, length)
                    found += ref is not None
                    absent += ref is None
        assert found > 300 and absent > 50


def _cut(T, n):
    """T cut to its first n vertices, every row masked to them: the copy the
    complete searches of a solve made before the kernel took a vertex bound."""
    mask = (1 << n) - 1
    return [[t & mask for t in row[:n]] for row in T[:n]]


class TestBoundedSearch:
    """The kernel bounded to the first n vertices of a larger table finds
    what it finds on the table cut to them, and so do the twin classes."""

    TARGETS = [(PATH, 1), (PATH, 2), (PATH, 3), (PATH, 5), (CYCLE, 3), (CYCLE, 4), (CYCLE, 6)]

    def _colorings(self, N, rnd):
        yield Coloring(N, rnd.getrandbits(comb(N, 3)))
        yield Coloring(N, sum(1 << r for r in range(comb(N, 3)) if rnd.random() < 0.2))
        a = rnd.randint(3, N - 1)
        for k in (0, 1, 4):
            yield _flipped(build_split_coloring(SplitSpec(a, N - a)), k, rnd)

    def test_bound_equals_the_cut_table(self):
        rnd = random.Random(53)
        found = absent = 0
        for N in range(6, 21):
            for c in self._colorings(N, rnd):
                links = _LinkTables(c)
                for color in (RED, BLUE):
                    T = links.table(color)
                    for n in range(3, N + 1):
                        cut = _cut(T, n)
                        assert _twins(T, n) == _twins(cut, n), (c, color, n)
                        for shape, length in self.TARGETS:
                            if (2 * length if shape == CYCLE else 2 * length + 1) > n:
                                continue
                            w = _find_mono(n, color, shape, length, T)
                            assert w == _find_mono(n, color, shape, length, cut), (
                                c, color, n, shape, length)
                            found += w is not None
                            absent += w is None
        assert found > 4000 and absent > 1000
