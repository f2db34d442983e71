"""Deterministic census of split+1 solves: witnesses, completions and chain caps.

    python3 scripts/census.py [--n-max 22] [--json] [--src DIR]

Solves the extremal split coloring of every pair with n <= --n-max (every
kind, every valid m) with one extra vertex in A or in B (`a+1`, `b+1`), plain
and colour-swapped, with 0, 1, 2 and 4 distinct triples flipped.  The flips
of a case are drawn by `random.Random(seed)`, its seed an integer made from
the case's own numbers, so a case gets the same coloring at any --n-max and
under any PYTHONHASHSEED.

Prints the number of solves, the sha1 of the witnesses in case order, the
completions (solves whose trace notes a completion search) by reason, and
the chains that reached their node cap, as text or, with --json, as one JSON
object.  Exits 1 if a solve raises or a chain reaches its cap.

It reads only `solve` and its trace notes, so it runs unchanged on any
source tree: --src (default: this checkout's `src/`) is put first on
sys.path before looseramsey is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import warnings
from collections import Counter
from pathlib import Path

KINDS = ("pp", "cc", "pncm", "pmcn")
FLIPS = (0, 1, 2, 4)
COMPLETION = "completion search ("
CAP = "chain: node cap"


def cases(n_max: int):
    """(kind, n, m, side, swapped, flips) for every census solve, in order."""
    for kind in KINDS:
        for n in range(3, n_max + 1):
            for m in range(3, n if kind == "pmcn" else n + 1):
                for side in "ab":
                    for swapped in (False, True):
                        for flips in FLIPS:
                            yield kind, n, m, side, swapped, flips


def seed_of(kind: str, n: int, m: int, side: str, swapped: bool, flips: int) -> int:
    """An integer seed from the case's own numbers, distinct per case."""
    return ((((KINDS.index(kind) * 1000 + n) * 1000 + m) * 2 + (side == "b")) * 2 + swapped) * 8 + flips


def case_input(case: tuple):
    """The pair and the coloring that one census case solves."""
    from looseramsey import Coloring, PairKind
    from looseramsey.constructions import SplitSpec, build_split_coloring, lower_bound_params

    kind, n, m, side, swapped, flips = case
    pair = PairKind(kind, n, m)
    spec = lower_bound_params(pair)
    c = build_split_coloring(SplitSpec(spec.a + (side == "a"), spec.b + (side == "b")))
    c = c.swap() if swapped else c
    bits = c.red_bits
    for rank in random.Random(seed_of(*case)).sample(range(c.n_triples), flips):
        bits ^= 1 << rank
    return pair, Coloring(c.n_vertices, bits)


def census(n_max: int) -> dict:
    from looseramsey import solve

    digest, completions, caps, errors, solves = hashlib.sha1(), Counter(), [], [], 0
    for case in cases(n_max):
        kind, n, m, side, swapped, flips = case
        label = f"{kind}({n},{m}) {side}+1 {'swapped' if swapped else 'plain'} flips {flips}"
        pair, c = case_input(case)
        trace = []
        solves += 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                w = solve(pair, c, trace=trace)
        except Exception as exc:  # a census counts every failure, of any kind
            errors.append(f"{label}: {type(exc).__name__}: {exc}"[:300])
            digest.update(b"error\n")
            continue
        digest.update(f"{w.color} {w.shape} {' '.join(map(str, w.structure.vertices))}\n".encode())
        for note in trace:
            if note.startswith(COMPLETION):
                completions[note[len(COMPLETION):-1]] += 1
            elif note.startswith(CAP):
                caps.append(f"{label}: {note}")
    return {
        "n_max": n_max,
        "solves": solves,
        "sha1": digest.hexdigest(),
        "completions": dict(sorted(completions.items())),
        "chain_caps": caps,
        "errors": errors,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=int, default=22, help="largest n of a pair (default 22)")
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                    help="the source tree to import looseramsey from")
    args = ap.parse_args()
    if args.n_max < 3:
        ap.error("--n-max must be 3 or more")
    sys.path.insert(0, args.src)
    try:
        import looseramsey
    except ImportError as exc:
        ap.error(f"cannot import looseramsey from {args.src}: {exc}")
    if not Path(looseramsey.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        ap.error(f"looseramsey imported from {looseramsey.__file__}, not from {args.src}")
    out = census(args.n_max)
    if args.json:
        print(json.dumps(out, indent=1))
    else:
        print(f"solves {out['solves']} (n <= {out['n_max']})")
        print(f"witnesses sha1 {out['sha1']}")
        print(f"completions {sum(out['completions'].values())}")
        for reason, count in out["completions"].items():
            print(f"  {reason}: {count}")
        for name in ("chain_caps", "errors"):
            print(f"{name.replace('_', ' ')} {len(out[name])}")
            for line in out[name]:
                print(f"  {line}")
    return 1 if out["errors"] or out["chain_caps"] else 0


if __name__ == "__main__":
    sys.exit(main())
