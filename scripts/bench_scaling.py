"""Scaling record of split+1 extraction: solve time against n.

    python3 scripts/bench_scaling.py [--src DIR=LABEL ...]

For every kind (pp, cc, pncm, pmcn) on its diagonal pair (m = n, or
m = n - 1 for pmcn), each n, each side (the extremal split with one extra
vertex in A or in B: `a+1`, `b+1`) and each orientation (the split coloring
or its colour swap: plain, swapped), the coloring is built outside the
timed span and one `solve` is timed with `time.perf_counter`.  The hard
orientations are `a+1` plain and `b+1` swapped.

Each `--src` names a package source directory (a checkout's `src/`) and a
label; the default is this checkout's `src/`.  Every repeat runs each
source's whole sweep in a fresh interpreter, alternating which source goes
first, and a case's time is the median over the 7 repeats, given with its
quartiles.  The growth exponent is the least-squares slope of log time
against log n over the sizes from 40 to 80.  Times are in ms.  With two
sources, `speedup` is the first source's median time over the second's.
Each source also gets the sha1 of all its witness lines, which agree when
both return the same witnesses.  The record is written to
BENCH_scaling.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NS = (10, 20, 40, 60, 80)
REPEATS = 7
CASES = [
    (kind, side, orient)
    for kind in ("pp", "cc", "pncm", "pmcn") for side in "ab" for orient in ("plain", "swapped")
]
NOTES = (
    "One shared 2-core x86-64 container, time.perf_counter. The host cannot pin "
    "CPUs, fix the clock frequency or drop caches, and other tenants load it: its speed drifts "
    "by up to 1.7x over minutes. Sources alternate in fresh interpreters and each time is a "
    "median over repeats, so drift hits both sides alike; cases under 1 ms are noise-bound and "
    "their exponents mean little."
)


def sweep() -> dict:
    """Time every case once with the looseramsey on sys.path."""
    from looseramsey.constructions import PairKind, SplitSpec, build_split_coloring, lower_bound_params
    from looseramsey.extractor import solve

    solve(PairKind("pp", 3, 3), build_split_coloring(SplitSpec(5, 3)))  # warm imports
    times, lines = {}, []
    for kind, side, orient in CASES:
        row = times.setdefault(f"{kind} {side}+1 {orient}", {})
        for n in NS:
            pair = PairKind(kind, n, n - 1 if kind == "pmcn" else n)
            spec = lower_bound_params(pair)
            c = build_split_coloring(SplitSpec(spec.a + (side == "a"), spec.b + (side == "b")))
            c = c.swap() if orient == "swapped" else c
            start = time.perf_counter()
            w = solve(pair, c)
            row[str(n)] = time.perf_counter() - start
            lines.append(f"{w.color} {w.shape} " + " ".join(map(str, w.structure.vertices)))
    return {"times": times, "witness_sha1": hashlib.sha1("\n".join(lines).encode()).hexdigest()}


def quartiles(xs):
    """(first quartile, median, third quartile) of the samples xs."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def slope(points) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", metavar="DIR=LABEL",
                    help="package source directory and its label (repeatable)")
    ap.add_argument("--worker", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        sys.path.insert(0, args.worker)
        print(json.dumps(sweep()))
        return
    sources = [s.split("=", 1) for s in args.src or [f"{ROOT / 'src'}=this checkout"]]
    if any(len(s) != 2 for s in sources):
        ap.error("every --src must be DIR=LABEL")
    samples = {label: [] for _, label in sources}
    digests = {label: set() for _, label in sources}
    for r in range(REPEATS):
        for src, label in sources[:: 1 if r % 2 == 0 else -1]:
            cmd = [sys.executable, __file__, "--worker", src]
            out = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
            samples[label].append(out["times"])
            digests[label].add(out["witness_sha1"])
            print(f"repeat {r + 1}/{REPEATS}: {label} done", file=sys.stderr)
    runs, meds = {}, {}
    for _, label in sources:
        quart = {
            case: {str(n): quartiles([s[case][str(n)] for s in samples[label]]) for n in NS}
            for case in samples[label][0]
        }
        med = {case: {k: q[1] for k, q in row.items()} for case, row in quart.items()}
        fit = [n for n in NS if 40 <= n <= 80]
        runs[label] = {
            "median_ms": {case: {k: round(v * 1e3, 3) for k, v in row.items()} for case, row in med.items()},
            "quartiles_ms": {
                case: {k: [round(q[0] * 1e3, 3), round(q[2] * 1e3, 3)] for k, q in row.items()}
                for case, row in quart.items()
            },
            "exponent_40_80": {
                case: round(slope([(n, row[str(n)]) for n in fit]), 2) for case, row in med.items()
            },
            "witness_sha1": sorted(digests[label]),
        }
        meds[label] = med
    record = {
        "sources": [label for _, label in sources],
        "ns": list(NS),
        "repeats": REPEATS,
        "notes": NOTES,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "runs": runs,
    }
    if len(sources) == 2:
        (_, first), (_, second) = sources
        a, b = meds[first], meds[second]
        record["speedup"] = {
            case: {k: round(a[case][k] / b[case][k], 2) for k in a[case]} for case in a
        }
    (ROOT / "BENCH_scaling.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
