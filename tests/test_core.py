"""Colored hypergraph primitives: colex indexing, structures, verification."""

import pickle
import random
import re
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from looseramsey.core import (
    BLUE,
    CYCLE,
    PATH,
    RED,
    Coloring,
    LooseCycle,
    LoosePath,
    StructureError,
    TripleEdge,
    Witness,
    colex_rank,
    colex_unrank,
    edge_color,
    opposite,
    validate_loose_cycle,
    validate_loose_path,
    verify_witness,
)
from looseramsey.formats import decode


def _from_edges(n, edges):
    return decode(f"LRE1 {n}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges))


def _triples(n):
    return [colex_unrank(r, n) for r in range(comb(n, 3))]


class TestTripleEdge:
    def test_of_sorts(self):
        assert TripleEdge.of(5, 1, 3) == TripleEdge(1, 3, 5)

    def test_of_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TripleEdge.of(1, 1, 2)

    def test_of_rejects_negative(self):
        with pytest.raises(ValueError):
            TripleEdge.of(-1, 0, 1)


class TestColex:
    def test_known_ranks(self):
        assert colex_rank(TripleEdge(0, 1, 2)) == 0
        assert colex_rank(TripleEdge(0, 1, 3)) == 1
        assert colex_rank(TripleEdge(1, 2, 3)) == 3
        assert colex_unrank(3, 5) == TripleEdge(1, 2, 3)
        assert colex_unrank(9, 5) == TripleEdge(2, 3, 4)

    def test_all_triples_is_rank_order(self):
        for n in (3, 5, 8):
            triples = [(a, b, c) for c in range(n) for b in range(c) for a in range(b)]
            assert [tuple(e) for e in _triples(n)] == triples

    def test_unrank_out_of_range(self):
        with pytest.raises(ValueError):
            colex_unrank(comb(7, 3), 7)
        with pytest.raises(ValueError):
            colex_unrank(-1, 7)

    @given(st.integers(0, comb(20, 3) - 1))
    def test_round_trip(self, rank):
        assert colex_rank(colex_unrank(rank, 20)) == rank

    @given(st.sets(st.integers(0, 19), min_size=3, max_size=3))
    def test_round_trip_from_edge(self, labels):
        e = TripleEdge.of(*labels)
        assert colex_unrank(colex_rank(e), 20) == e


class TestColoring:
    def test_bitmap_bounds(self):
        with pytest.raises(ValueError):
            Coloring(5, 1 << comb(5, 3))
        with pytest.raises(ValueError):
            Coloring(2, 0)

    def test_swap_involution(self):
        c = Coloring(6, 0b1011)
        assert c.swap().swap() == c
        assert c.swap().red_bits == c.red_bits ^ ((1 << c.n_triples) - 1)

    def test_restrict_keeps_prefix_colors(self):
        c = _from_edges(8, [(0, 1, 2), (0, 1, 7), (2, 3, 4)])
        sub = c.restrict(5)
        assert edge_color(sub, TripleEdge(0, 1, 2)) == RED
        assert edge_color(sub, TripleEdge(2, 3, 4)) == RED
        assert sub.red_bits == _from_edges(5, [(0, 1, 2), (2, 3, 4)]).red_bits

    def test_restrict_range(self):
        c = Coloring(6, 0).swap()
        with pytest.raises(ValueError):
            c.restrict(2)
        with pytest.raises(ValueError):
            c.restrict(7)

    def test_pickle_drops_the_cached_tester(self):
        c = Coloring(7, 0x2f031)
        assert c.test(RED)(0, 1, 2) and c._red is c._red
        back = pickle.loads(pickle.dumps(c))
        assert back == c and "_red" not in vars(back)
        assert [back.test(RED)(*e) for e in _triples(7)] == [c.test(RED)(*e) for e in _triples(7)]

    def test_edge_color(self):
        c = _from_edges(5, [(0, 1, 2)])
        assert edge_color(c, TripleEdge(0, 1, 2)) == RED
        assert edge_color(c, TripleEdge(0, 1, 3)) == BLUE
        with pytest.raises(ValueError):
            edge_color(c, TripleEdge(0, 1, 5))

    def test_edge_color_takes_any_vertex_order(self):
        # rank 5 is {0, 2, 4}; the unsorted (5, 1, 2) is the blue {1, 2, 5}
        c = Coloring(6, 1 << 5)
        assert edge_color(c, TripleEdge(0, 2, 4)) == edge_color(c, TripleEdge(4, 0, 2)) == RED
        assert edge_color(c, TripleEdge(5, 1, 2)) == BLUE
        for e in _triples(6):
            for order in ((e.c, e.a, e.b), (e.b, e.c, e.a), (e.c, e.b, e.a)):
                assert edge_color(c, TripleEdge(*order)) == edge_color(c, e)

    @pytest.mark.parametrize("e", [(9, 1, 2), (1, 9, 2), (0, 1, 6), (-1, 1, 2)])
    def test_edge_color_range_checks_every_vertex(self, e):
        e = TripleEdge(*e)
        with pytest.raises(ValueError) as exc:
            edge_color(Coloring(6, 1 << 5), e)
        assert str(exc.value) == f"edge {e} outside [0, 6)"

    def test_edge_color_rejects_repeated_vertices(self):
        # (1, 1, 2) would read rank 1, the triple {0, 1, 3}
        with pytest.raises(ValueError, match=r"edge vertices must be distinct: \(1, 1, 2\)"):
            edge_color(Coloring(6, 1 << 1), TripleEdge(1, 1, 2))

    def test_opposite(self):
        assert opposite(RED) == BLUE
        assert opposite(BLUE) == RED

    def test_unknown_color_has_no_tester(self):
        # any name but red and blue used to read as blue
        with pytest.raises(ValueError, match="unknown color 'Red'"):
            Coloring(5, 0).swap().test("Red")


# The shift-based lookups that the byte view replaced, kept verbatim.


def _reference_is_red(self, e: TripleEdge) -> bool:
    return (self.red_bits >> colex_rank(e)) & 1 == 1


class _ReferenceColorTest:
    """Membership test for one color class of a coloring.

    Each call shifts the whole colex bitmap, so a lookup costs
    O(C(N,3)/64) machine words, not O(1).  That is cheap for the greedy
    path's few lookups; the move search, the chaining and the oracle read
    link tables instead.
    """

    __slots__ = ("bits", "c2", "c3")

    def __init__(self, coloring: Coloring, color: str) -> None:
        self.bits = (coloring if color == RED else coloring.swap()).red_bits
        n = coloring.n_vertices
        self.c2 = [comb(i, 2) for i in range(n + 1)]
        self.c3 = [comb(i, 3) for i in range(n + 1)]

    def __call__(self, x: int, y: int, z: int) -> bool:
        if x > y:
            x, y = y, x
        if y > z:
            y, z = z, y
        if x > y:
            x, y = y, x
        return (self.bits >> (self.c3[z] + self.c2[y] + x)) & 1 == 1


def _assert_lookups_match(c, rnd, sample=400):
    """Coloring.test and edge_color against the references, both colours,
    on (a sample of) every triple with its vertices in random order."""
    triples = _triples(c.n_vertices)
    if len(triples) > sample:
        triples = rnd.sample(triples, sample)
    for color in (RED, BLUE):
        new, ref = c.test(color), _ReferenceColorTest(c, color)
        for e in triples:
            x, y, z = rnd.sample(e, 3)
            assert new(x, y, z) is ref(x, y, z), (c, color, e)
    for e in triples:
        assert edge_color(c, e) == (RED if _reference_is_red(c, e) else BLUE), (c, e)
        assert edge_color(c, TripleEdge(*rnd.sample(e, 3))) == edge_color(c, e)


class TestLookupParity:
    # the seed drives a local Random: the lookups draw more bytes than a
    # hypothesis-driven Random may consume
    @given(st.integers(3, 40), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_dense_sparse_swapped_and_restricted(self, n, seed):
        rnd = random.Random(seed)
        t = comb(n, 3)
        bits = rnd.getrandbits(t)
        if rnd.random() < 0.5:
            bits &= rnd.getrandbits(t) & rnd.getrandbits(t)
        c = Coloring(n, bits)
        # sparse: every rank from a random cut upward is blue, so the view
        # ends before the last triple and its top bytes are gone
        sparse = Coloring(n, bits & ((1 << rnd.randint(0, t)) - 1))
        for variant in (c, sparse, c.swap(), sparse.swap(), c.restrict(rnd.randint(3, n))):
            _assert_lookups_match(variant, rnd)

    @pytest.mark.parametrize("n", [3, 4, 9, 40])
    def test_all_blue_view_is_empty(self, n):
        c = Coloring(n, 0)
        assert c._view == b""
        red, blue = c.test(RED), c.test(BLUE)
        for e in _triples(n):
            assert red(*e) is False and blue(*e) is True and edge_color(c, e) == BLUE

    @pytest.mark.parametrize("rank", [0, 7, 8, 15, 16, comb(12, 3) - 1])
    def test_single_red_triple_at_a_byte_edge(self, rank):
        c = Coloring(12, 1 << rank)
        assert len(c._view) == rank // 8 + 1
        _assert_lookups_match(c, random.Random(rank), sample=comb(12, 3))

    @pytest.mark.parametrize("seed", range(40))
    def test_prefix_is_the_truncated_bitmap(self, seed):
        """restrict(k) is the coloring of the parent's bitmap truncated to
        C(k, 3) ranks, and its tester answers as a fresh coloring of that
        bitmap on every triple below k; a triple reaching past k reads blue,
        even where the parent has it red."""
        rnd = random.Random(seed)
        n = rnd.randint(4, 24)
        bits = rnd.getrandbits(comb(n, 3))
        if seed % 2:
            bits &= rnd.getrandbits(comb(n, 3))
        c = Coloring(n, bits)
        k = rnd.randint(3, n - 1)
        sub = c.restrict(k)
        fresh = Coloring(k, bits & ((1 << comb(k, 3)) - 1))
        assert type(sub) is Coloring and sub == fresh and sub.red_bits == fresh.red_bits
        red, want = sub.test(RED), fresh.test(RED)
        for x, y, z in _triples(k):
            assert red(x, y, z) is want(x, y, z) is red(z, x, y), (seed, x, y, z)
        assert not any(red(x, y, n - 1) for x, y, z in _triples(k))

    @given(st.integers(3, 40), st.randoms(use_true_random=False))
    def test_full_restriction_is_the_coloring(self, n, rnd):
        c = Coloring(n, rnd.getrandbits(comb(n, 3)))
        assert c.restrict(n) is c
        assert c.restrict(n) == Coloring(n, c.red_bits)


def _assert_same_coloring(got, eager, rnd):
    """got, a composition of restrict() and swap(), answers as eager, the
    coloring built from its bitmap: n_triples, both testers on every
    triple (in random vertex order), verify_witness on random paths and
    cycles claimed in either colour, red_bits, ==, hash and pickling."""
    n = eager.n_vertices
    assert type(got) is Coloring
    assert got.n_vertices == n and got.n_triples == eager.n_triples
    for color in (RED, BLUE):
        mine, want = got.test(color), eager.test(color)
        for e in _triples(n):
            x, y, z = rnd.sample(e, 3)
            assert mine(x, y, z) is want(x, y, z), (color, e)
    for _ in range(6):
        shape = CYCLE if n >= 6 and rnd.random() < 0.5 else PATH
        size = 2 * rnd.randint(3, n // 2) if shape == CYCLE else 2 * rnd.randint(1, (n - 1) // 2) + 1
        structure = (LooseCycle if shape == CYCLE else LoosePath)(tuple(rnd.sample(range(n), size)))
        for color in (RED, BLUE):
            w = Witness(color, shape, structure)
            assert verify_witness(got, w) == verify_witness(eager, w)
    assert got.red_bits == eager.red_bits
    assert got == eager and eager == got and hash(got) == hash(eager)
    assert pickle.dumps(got) == pickle.dumps(eager)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is Coloring and back == eager


class TestRestrictAndSwap:
    """restrict() and swap(), and their compositions, return the colorings
    built from their own bitmaps."""

    @given(st.integers(3, 40), st.integers(0, 2**32), st.data())
    @settings(max_examples=40, deadline=None)
    def test_prefixes_and_swaps_match_the_eager_colorings(self, n, seed, data):
        rnd = random.Random(seed)
        t = comb(n, 3)
        bits = rnd.getrandbits(t)
        if rnd.random() < 0.5:  # sparse: the byte view ends early
            bits &= rnd.getrandbits(t) & rnd.getrandbits(t) & ((1 << rnd.randint(0, t)) - 1)
        k = data.draw(st.integers(3, n))
        full, low = (1 << t) - 1, (1 << comb(k, 3)) - 1
        c = Coloring(n, bits)
        for got, eager in (
            (c.restrict(k), Coloring(k, bits & low)),
            (c.swap(), Coloring(n, bits ^ full)),
            (c.restrict(k).swap(), Coloring(k, bits & low ^ low)),
            (c.swap().restrict(k), Coloring(k, bits & low ^ low)),
            (c.swap().restrict(k).swap(), Coloring(k, bits & low)),
        ):
            _assert_same_coloring(got, eager, rnd)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_swapped_prefixes_of_every_size(self, sparse):
        """Swapped prefixes taken in growing, then shrinking, size, of a
        dense bitmap and of one whose red triples all lie in one byte,
        answer as the colorings of their bitmaps."""
        n, rnd = 30, random.Random(sparse)
        bits = 0b1011 << 40 if sparse else rnd.getrandbits(comb(n, 3))
        c = Coloring(n, bits)
        for k in [*range(3, n + 1, 3), *range(n - 1, 2, -4)]:
            low = (1 << comb(k, 3)) - 1
            _assert_same_coloring(c.restrict(k).swap(), Coloring(k, bits & low ^ low), rnd)

    def test_a_swap_of_a_swap_is_the_coloring(self):
        c = Coloring(7, 0x2f031)
        assert c.swap().swap() == c and c.swap().restrict(5).swap() == c.restrict(5)
        assert type(c.swap().swap()) is Coloring and c.swap() != c

    def test_restrictions_and_swaps_are_immutable(self):
        for c in (Coloring(6, 3), Coloring(6, 3).swap(), Coloring(6, 3).restrict(4)):
            with pytest.raises(AttributeError):
                c.red_bits = 0
            with pytest.raises(AttributeError):
                c.n_vertices = 5


class TestStructures:
    def test_path_edges(self):
        p = validate_loose_path([4, 0, 2, 5, 1])
        assert p.length == 2
        assert p.edges == (TripleEdge(0, 2, 4), TripleEdge(1, 2, 5))
        assert p.vertices[0] == 4 and p.vertices[-1] == 1

    def test_empty_path_length(self):
        assert LoosePath(()).length == 0

    def test_cycle_edges_wrap(self):
        c = validate_loose_cycle([0, 1, 2, 3, 4, 5])
        assert c.length == 3
        assert c.edges == (
            TripleEdge(0, 1, 2),
            TripleEdge(2, 3, 4),
            TripleEdge(0, 4, 5),
        )

    @pytest.mark.parametrize("bad", [[0, 1], [0, 1, 2, 3], [0, 1, 1], [0, -1, 2]])
    def test_invalid_paths(self, bad):
        with pytest.raises(StructureError):
            validate_loose_path(bad)

    @pytest.mark.parametrize("bad", [[0, 1, 2, 3], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 0]])
    def test_invalid_cycles(self, bad):
        with pytest.raises(StructureError):
            validate_loose_cycle(bad)

    @pytest.mark.parametrize("label", [1.9, 1.0, "1", None])
    def test_non_integer_labels_are_rejected(self, label):
        """A label is taken with operator.index: a float, a string or None
        raises an error naming it, where int() truncated 1.9 to 1."""
        message = re.escape(f"vertex label {label!r} is not an integer")
        with pytest.raises(StructureError, match=message):
            validate_loose_path([0, label, 2])
        with pytest.raises(StructureError, match=message):
            validate_loose_cycle([0, 1, 2, label, 4, 5])

    def test_integer_like_labels_are_accepted(self):
        class Label:
            def __index__(self):
                return 3

        assert validate_loose_path([0, Label(), 2]).vertices == (0, 3, 2)
        assert type(validate_loose_path([0, Label(), 2]).vertices[1]) is int

    @given(st.permutations(list(range(11))), st.integers(1, 5))
    def test_path_intersection_pattern(self, perm, length):
        p = validate_loose_path(perm[: 2 * length + 1])
        edges = p.edges
        assert len(edges) == length
        for i in range(length):
            for j in range(i + 1, length):
                shared = set(edges[i]) & set(edges[j])
                assert len(shared) == (1 if j == i + 1 else 0)

    @given(st.permutations(list(range(12))), st.integers(3, 6))
    def test_cycle_intersection_pattern(self, perm, length):
        c = validate_loose_cycle(perm[: 2 * length])
        edges = c.edges
        assert len(edges) == length
        for i in range(length):
            for j in range(i + 1, length):
                adjacent = j == i + 1 or (i == 0 and j == length - 1)
                assert len(set(edges[i]) & set(edges[j])) == (1 if adjacent else 0)


class TestVerifyWitness:
    def test_accepts_matching(self):
        c = Coloring(7, 0).swap()
        w = Witness(RED, PATH, validate_loose_path(range(7)))
        assert verify_witness(c, w)

    def test_rejects_wrong_color(self):
        c = Coloring(7, 0).swap()
        w = Witness(BLUE, PATH, validate_loose_path(range(7)))
        res = verify_witness(c, w)
        assert not res and "red" in res.reason

    def test_rejection_names_the_first_wrong_edge(self):
        """The messages for a cycle whose closing edge is recoloured and for
        a blue witness on red edges, as verify_witness has always worded
        them; on a sparse view, an edge past the rank tables reads blue."""
        cyc = validate_loose_cycle([5, 1, 7, 0, 3, 2])  # closes with {3, 2, 5}
        red = Coloring(8, 0).swap()
        assert verify_witness(red, Witness(RED, CYCLE, cyc))
        closed = Coloring(8, red.red_bits ^ 1 << colex_rank(TripleEdge(2, 3, 5)))
        res = verify_witness(closed, Witness(RED, CYCLE, cyc))
        assert res.reason == "edge {2,3,5} is blue, witness claims red"
        res = verify_witness(red, Witness(BLUE, CYCLE, cyc))
        assert res.reason == "edge {1,5,7} is red, witness claims blue"
        res = verify_witness(closed, Witness(BLUE, CYCLE, cyc))
        assert res.reason == "edge {1,5,7} is red, witness claims blue"
        sparse = Coloring(1000, 1)
        far = validate_loose_path([999, 500, 0, 3, 4])
        assert verify_witness(sparse, Witness(BLUE, PATH, far))
        res = verify_witness(sparse, Witness(RED, PATH, far))
        assert res.reason == "edge {0,500,999} is blue, witness claims red"

    def test_rejects_label_overflow(self):
        c = Coloring(6, 0).swap()
        w = Witness(RED, PATH, validate_loose_path([0, 1, 2, 3, 6]))
        assert not verify_witness(c, w)

    def test_rejects_float_labels(self):
        """A structure of float labels is rejected, not checked as the
        truncated labels (2, 0, 1), a red edge of this coloring."""
        res = verify_witness(Coloring(5, 1), Witness(RED, PATH, LoosePath((2.7, 0.2, 1.5))))
        assert not res and res.reason == "vertex label 2.7 is not an integer"
        assert verify_witness(Coloring(5, 1), Witness(RED, PATH, LoosePath((2, 0, 1))))

    def test_rejects_broken_structure(self):
        c = Coloring(7, 0).swap()
        w = Witness(RED, CYCLE, LoosePath((0, 1, 2, 3, 4)))
        assert not verify_witness(c, w)

    def test_rejects_unknown_color_and_shape(self):
        c = Coloring(7, 0).swap()
        path = validate_loose_path(range(7))
        assert not verify_witness(c, Witness("green", PATH, path))
        assert not verify_witness(c, Witness(RED, "tree", path))
