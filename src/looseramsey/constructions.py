"""Extremal split colorings certifying the lower bounds.

A split coloring partitions the vertices into A (low labels) and B (high
labels) and colors exactly the triples meeting B red.  A red loose
structure then routes every edge through B, so a B vertex must serve two
edges and the structure is capped at 2|B| edges; a blue structure is
confined to A and capped by |A| vertices.  Sizing (|A|, |B|) just below
both caps yields a coloring on R - 1 vertices avoiding both targets.

With this fixed red-means-B rule, the short target of a pair is the one
blocked in red and the long target is blocked in blue.  The extraction
pipeline uses the opposite orientation (red = first/long structure); the
two are related by swapping colors, which preserves Ramsey content.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Tuple

from .core import CYCLE, PATH, Coloring

PP = "pp"
CC = "cc"
PNCM = "pncm"
PMCN = "pmcn"

_KINDS = (PP, CC, PNCM, PMCN)

# Per kind: the shape of the red, blue, short and long targets, each with
# the pair parameter that gives its length.
_TARGETS = {
    PP: ((PATH, "n"), (PATH, "m"), (PATH, "m"), (PATH, "n")),
    CC: ((CYCLE, "n"), (CYCLE, "m"), (CYCLE, "m"), (CYCLE, "n")),
    PNCM: ((PATH, "n"), (CYCLE, "m"), (CYCLE, "m"), (PATH, "n")),
    PMCN: ((PATH, "m"), (CYCLE, "n"), (PATH, "m"), (CYCLE, "n")),
}


@dataclass(frozen=True)
class PairKind:
    """A Ramsey pair: which two loose structures, at which lengths.

    kind pp:   path P_n vs path P_m      (n >= m >= 3)
    kind cc:   cycle C_n vs cycle C_m    (n >= m >= 3)
    kind pncm: long path P_n vs cycle C_m  (n >= m >= 3)
    kind pmcn: short path P_m vs long cycle C_n  (n > m >= 3)
    """

    kind: str
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown pair kind {self.kind!r}")
        if not self.m >= 3:
            raise ValueError(f"m={self.m} below minimum 3")
        if self.kind == PMCN:
            if not self.n > self.m:
                raise ValueError(f"kind pmcn needs n > m, got n={self.n}, m={self.m}")
        elif not self.n >= self.m:
            raise ValueError(f"need n >= m, got n={self.n}, m={self.m}")

    def _target(self, slot: int) -> Tuple[str, int]:
        shape, param = _TARGETS[self.kind][slot]
        return shape, getattr(self, param)

    @property
    def red_target(self) -> Tuple[str, int]:
        """(shape, length) the extractor seeks in red."""
        return self._target(0)

    @property
    def blue_target(self) -> Tuple[str, int]:
        """(shape, length) the extractor seeks in blue."""
        return self._target(1)

    @property
    def short_target(self) -> Tuple[str, int]:
        """(shape, length) blocked in red by the split coloring."""
        return self._target(2)

    @property
    def long_target(self) -> Tuple[str, int]:
        """(shape, length) blocked in blue by the split coloring."""
        return self._target(3)

    def __str__(self) -> str:
        return f"{self.kind}(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SplitSpec:
    """Bipartition sizes for a split coloring: |A| = a low labels, |B| = b high."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 3 or self.b < 0:
            raise ValueError(f"invalid split sizes a={self.a}, b={self.b}")

    @property
    def n_vertices(self) -> int:
        return self.a + self.b


def lower_bound_params(pair: PairKind) -> SplitSpec:
    """Split sizes whose coloring avoids both targets on R(pair) - 1 vertices.

    Path-vs-path and long-path-vs-cycle pairs confine a path needing 2n+1
    vertices, so A holds 2n; the cycle-confining pairs need only 2n - 1.
    B is sized one short of carrying the short target's edges.
    """
    n, m = pair.n, pair.m
    if pair.kind in (PP, PNCM):
        return SplitSpec(a=2 * n, b=(m + 1) // 2 - 1)
    return SplitSpec(a=2 * n - 1, b=(m - 1) // 2)


def build_split_coloring(spec: SplitSpec) -> Coloring:
    """Red on every triple meeting B = [a, a+b), blue inside A = [0, a).

    B sits at the highest labels, so the blue (A-internal) triples occupy
    exactly the colex rank prefix [0, C(a,3)); the bitmap is two spans.
    """
    n = spec.n_vertices
    full = (1 << comb(n, 3)) - 1
    blue_prefix = (1 << comb(spec.a, 3)) - 1
    return Coloring(n, full & ~blue_prefix)
