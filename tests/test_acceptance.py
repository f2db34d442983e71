"""End-to-end acceptance gates: formula table, lower-bound certification,
tiny-N enumeration, extractor totality, oracle agreement, invariant suite."""

import random
import warnings
from math import comb

import pytest

from looseramsey.cli import random_coloring, stress
from looseramsey.constructions import (
    CC,
    PMCN,
    PNCM,
    PP,
    PairKind,
    SplitSpec,
    build_split_coloring,
    lower_bound_params,
)
from looseramsey.core import (
    BLUE,
    CYCLE,
    PATH,
    RED,
    Coloring,
    TripleEdge,
    Witness,
    colex_rank,
    colex_unrank,
    validate_loose_cycle,
    validate_loose_path,
    verify_witness,
)
from looseramsey.extractor import ramsey_number, solve
from looseramsey.oracle import (
    exhaustive_avoidance_search,
    find_mono_cycle,
    find_mono_path,
)


def _all_pairs(lo=3, hi=6):
    for kind in (PP, CC, PNCM, PMCN):
        for n in range(lo, hi + 1):
            for m in range(lo, n + 1):
                if kind == PMCN and n == m:
                    continue
                yield PairKind(kind, n, m)


def _find(c, color, target):
    shape, length = target
    finder = find_mono_path if shape == PATH else find_mono_cycle
    return finder(c, color, length)


class TestFormulaTable:
    """Criterion 1: every closed form and listed small value, exactly."""

    def test_closed_forms(self):
        for n in range(3, 10):
            for m in range(3, n + 1):
                assert ramsey_number(PairKind(PP, n, m)) == 2 * n + (m + 1) // 2
                assert ramsey_number(PairKind(PNCM, n, m)) == 2 * n + (m + 1) // 2
                assert ramsey_number(PairKind(CC, n, m)) == 2 * n + (m - 1) // 2
                if n > m:
                    assert ramsey_number(PairKind(PMCN, n, m)) == 2 * n + (m - 1) // 2

    @pytest.mark.parametrize(
        "pair,value",
        [
            (PairKind(PP, 3, 3), 8),
            (PairKind(PP, 4, 4), 10),
            (PairKind(CC, 3, 3), 7),
            (PairKind(CC, 4, 4), 9),
            (PairKind(CC, 4, 3), 9),
            (PairKind(PMCN, 4, 3), 9),
        ],
    )
    def test_small_values(self, pair, value):
        assert ramsey_number(pair) == value


class TestLowerBoundCertification:
    """Criterion 2: the split coloring one vertex below threshold avoids both
    targets, certified by the complete oracle.  The construction blocks the
    short target in red and the long one in blue; the canonical orientation
    is the color swap whenever the red target is the long one."""

    @pytest.mark.parametrize("pair", list(_all_pairs()), ids=str)
    def test_split_avoids_both_targets(self, pair):
        self._certify(pair)

    @pytest.mark.parametrize("pair", [p for p in _all_pairs(hi=12) if p.n >= 7], ids=str)
    def test_larger_split_avoids_both_targets(self, pair):
        """n = 7-12 (N up to 29): proofs of absence that the twin pruning
        keeps polynomial on split colorings."""
        self._certify(pair)

    @staticmethod
    def _certify(pair):
        c = build_split_coloring(lower_bound_params(pair))
        assert c.n_vertices == ramsey_number(pair) - 1
        canonical = c if pair.red_target == pair.short_target else c.swap()
        assert _find(canonical, RED, pair.red_target) is None
        assert _find(canonical, BLUE, pair.blue_target) is None
        # and stated directly on the raw construction:
        assert _find(c, RED, pair.short_target) is None
        assert _find(c, BLUE, pair.long_target) is None


class TestTinyEnumeration:
    """Criterion 3: among all 2^20 colorings of the 6-vertex complete triple
    system, at least one avoids both a red and a blue 3-cycle."""

    def test_avoider_exists(self):
        found = exhaustive_avoidance_search(6, (CYCLE, 3), (CYCLE, 3))
        assert found is not None
        assert find_mono_cycle(found, RED, 3) is None
        assert find_mono_cycle(found, BLUE, 3) is None


class TestExtractorTotality:
    """Criterion 4: 10^4 seeded random colorings at threshold for every
    (kind, n, m) combination, all witnesses verified, zero failures."""

    @pytest.mark.parametrize("pair", list(_all_pairs()), ids=str)
    def test_stress(self, pair):
        rep = stress(pair, trials=10_000, seed=20_260_824)
        assert rep.witnesses_verified == 10_000
        assert rep.failures == []


class TestOracleAgreement:
    """Criterion 5: solve's witness is independently confirmed by the oracle
    on random colorings, and every adversarial split coloring at threshold
    yields a verified witness."""

    @pytest.mark.parametrize(
        "pair", [p for p in _all_pairs(hi=5)], ids=str
    )
    def test_random_agreement(self, pair):
        N = ramsey_number(pair)
        for seed in range(100):
            c = random_coloring(N, 1_000_000 + seed)
            w = solve(pair, c)
            assert verify_witness(c, w)
            assert _find(c.restrict(N), w.color, (w.shape, w.length)) is not None

    @pytest.mark.parametrize("pair", list(_all_pairs()), ids=str)
    def test_adversarial_splits(self, pair):
        N = ramsey_number(pair)
        spec = lower_bound_params(pair)
        # one extra vertex beyond the extremal construction, placed on
        # either side of the split, in both color orientations
        variants = [
            build_split_coloring(SplitSpec(spec.a + 1, spec.b)),
            build_split_coloring(SplitSpec(spec.a, spec.b + 1)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for base in variants:
                assert base.n_vertices == N
                for c in (base, base.swap()):
                    w = solve(pair, c)
                    assert verify_witness(c.restrict(N), w)
                    expected = pair.red_target if w.color == RED else pair.blue_target
                    assert (w.shape, w.length) == expected


class TestStructuralInvariants:
    """Criterion 6: colex round trips, bulk structure invariants, and
    verifier sensitivity to single-edge flips."""

    def test_colex_round_trip_all_triples(self):
        for n in range(3, 21):
            for rank in range(comb(n, 3)):
                assert colex_rank(colex_unrank(rank, n)) == rank

    def test_bulk_random_structures(self):
        rnd = random.Random(6)
        for _ in range(100_000):
            n = rnd.randint(7, 16)
            if rnd.random() < 0.5:
                length = rnd.randint(1, (n - 1) // 2)
                verts = rnd.sample(range(n), 2 * length + 1)
                p = validate_loose_path(verts)
                edges = p.edges
                assert len(edges) == length
                assert len(set(p.vertices)) == 2 * length + 1
            else:
                length = rnd.randint(3, n // 2)
                verts = rnd.sample(range(n), 2 * length)
                cyc = validate_loose_cycle(verts)
                edges = cyc.edges
                assert len(edges) == length
                assert len(set(cyc.vertices)) == 2 * length
            for i in range(len(edges)):
                for j in range(i + 1, len(edges)):
                    adjacent = j == i + 1 or (
                        len(verts) % 2 == 0 and i == 0 and j == len(edges) - 1
                    )
                    assert len(set(edges[i]) & set(edges[j])) == (1 if adjacent else 0)

    def test_flip_sensitivity(self):
        rnd = random.Random(13)
        for _ in range(1_000):
            n = rnd.randint(7, 12)
            length = rnd.randint(2, (n - 1) // 2)
            verts = rnd.sample(range(n), 2 * length + 1)
            path = validate_loose_path(verts)
            c = Coloring(n, sum(1 << colex_rank(e) for e in path.edges))
            w = Witness(RED, PATH, path)
            assert verify_witness(c, w)
            victim = rnd.choice(path.edges)
            flipped = Coloring(n, c.red_bits ^ (1 << colex_rank(victim)))
            assert not verify_witness(flipped, w)
