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
    TripleEdge,
    colex_rank,
    validate_loose_cycle,
    validate_loose_path,
    verify_witness,
)
from looseramsey.oracle import (
    _structure_masks,
    exhaustive_avoidance_search,
    find_loose_cycle_from_edges,
    find_loose_path_from_edges,
    find_mono_cycle,
    find_mono_path,
    longest_mono_path,
)


def _random_coloring(n, rnd):
    return Coloring(n, rnd.getrandbits(comb(n, 3)))


class TestFindMonoPath:
    def test_all_red_k7(self):
        w = find_mono_path(Coloring.all_red(7), RED, 3)
        assert list(w.structure.vertices) == [0, 1, 2, 3, 4, 5, 6]
        assert verify_witness(Coloring.all_red(7), w)

    def test_split_has_no_red_p3(self):
        c = build_split_coloring(SplitSpec(7, 1))
        assert find_mono_path(c, RED, 3) is None

    def test_parameter_errors(self):
        c = Coloring.all_red(8)
        with pytest.raises(ValueError):
            find_mono_path(c, RED, 0)
        with pytest.raises(ValueError):
            find_mono_path(c, RED, 4)  # needs 9 vertices

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
        w = find_mono_cycle(Coloring.all_blue(6), BLUE, 3)
        assert list(w.structure.vertices) == [0, 1, 2, 3, 4, 5]

    def test_split_has_no_blue_c4_on_8(self):
        c = build_split_coloring(SplitSpec(7, 1))
        assert find_mono_cycle(c, BLUE, 4) is None

    def test_split_has_no_red_c3_on_6(self):
        c = build_split_coloring(SplitSpec(5, 1))
        assert find_mono_cycle(c, RED, 3) is None

    def test_parameter_errors(self):
        c = Coloring.all_red(6)
        with pytest.raises(ValueError):
            find_mono_cycle(c, RED, 2)
        with pytest.raises(ValueError):
            find_mono_cycle(c, RED, 4)


class TestLongestMonoPath:
    def test_all_red_k9(self):
        length, w = longest_mono_path(Coloring.all_red(9), RED)
        assert length == 4 and w.length == 4

    def test_no_edges(self):
        assert longest_mono_path(Coloring.all_red(9), BLUE) == (0, None)

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
            pc = Coloring.from_red_edges(
                8,
                (TripleEdge.of(perm[e.a], perm[e.b], perm[e.c]) for e in c.red_edges()),
            )
            for color in (RED, BLUE):
                for length in (2, 3):
                    assert (find_mono_path(c, color, length) is None) == (
                        find_mono_path(pc, color, length) is None
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


class TestFamilySearch:
    def test_path_from_explicit_edges(self):
        edges = [TripleEdge.of(0, 1, 2), TripleEdge.of(2, 3, 4), TripleEdge.of(4, 5, 6)]
        seq = find_loose_path_from_edges(edges, 3)
        assert seq is not None and len(seq) == 7
        assert find_loose_path_from_edges(edges, 4) is None

    def test_cycle_from_explicit_edges(self):
        edges = [
            TripleEdge.of(0, 1, 2),
            TripleEdge.of(2, 3, 4),
            TripleEdge.of(4, 5, 0),
        ]
        seq = find_loose_cycle_from_edges(edges, 3)
        assert seq is not None and len(seq) == 6
        assert find_loose_cycle_from_edges(edges[:2], 3) is None

    def test_family_search_matches_coloring_search(self):
        """On a random family F the family search finds a structure exactly
        when the coloring whose red edges are F has a red one, and uses only
        edges of F."""
        rnd = random.Random(17)
        found = absent = 0
        for _ in range(150):
            n = rnd.randint(5, 9)
            triples = [TripleEdge.of(*t) for t in itertools.combinations(range(n), 3)]
            family = rnd.sample(triples, rnd.randint(0, len(triples) // 2))
            c = Coloring.from_red_edges(n, family)
            searches = [(find_loose_path_from_edges, find_mono_path, validate_loose_path,
                         rnd.randint(1, (n - 1) // 2))]
            if n >= 6:
                searches.append((find_loose_cycle_from_edges, find_mono_cycle,
                                 validate_loose_cycle, rnd.randint(3, n // 2)))
            for from_edges, mono, validate, length in searches:
                seq = from_edges(family, length)
                assert (seq is None) == (mono(c, RED, length) is None)
                if seq is None:
                    absent += 1
                else:
                    found += 1
                    structure = validate(seq)
                    assert structure.length == length
                    assert set(structure.edges) <= set(family)
        assert found > 50 and absent > 50
