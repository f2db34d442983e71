"""Before/after record of the oracle: proofs of absence and near-extremal solves.

    python3 scripts/bench_oracle.py

Two sources are timed: the package at commit PARENT, extracted with
`git archive` into a temporary directory, and this checkout's `src/`.
Every repeat runs each source's whole sweep in a fresh interpreter,
alternating which source goes first, and a case's time is the median over
the REPEATS repeats, given with its quartiles.  Times are in ms, measured
with `time.perf_counter`; every input is built outside the timed span.

- `absence`: for every kind on its diagonal pair (m = n, or m = n - 1 for
  pmcn) at n = 5-8, the two proofs of absence on the extremal split coloring
  on R - 1 vertices: no red target and no blue target, in the orientation
  where red is the short target.
- `flip2`: the split+1 coloring of each FLIP_CASES entry (one extra vertex in
  A or B, plain or colour-swapped) with FLIPS distinct random triples
  flipped, drawn by `random.Random(seed)` for each seed in SEEDS, then
  `solve`.  A solve takes milliseconds, so in each repeat it runs SOLVES
  times on a fresh copy of the coloring and the least time is kept.
  `completions` counts the solves that end in the oracle completion.

Each source gets the sha1 of all its outputs (`none` for every proof, the
witness line of every solve); the two agree when both return the same
results.  The record is written to BENCH_oracle.json at the root of the
checkout.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT = "5f1c51c"
NS = (5, 6, 7, 8)
FLIP_CASES = (("pmcn", 16, 4, "a", "plain"), ("pp", 20, 4, "b", "swapped"),
              ("pp", 11, 11, "b", "swapped"))
FLIPS = 2
SEEDS = range(12)
SOLVES = 5
REPEATS = 3
NOTES = (
    "One shared 2-core x86-64 container, time.perf_counter. The host cannot pin "
    "CPUs, fix the clock frequency or drop caches, and other tenants load it: its speed drifts "
    "by up to 1.7x over minutes. Sources alternate in fresh interpreters and each time is a "
    "median over repeats, so drift hits both sides alike. The parent's proofs at n = 8 take "
    "minutes, which is why there are only 3 repeats."
)


def sweep() -> dict:
    """Time every case once with the looseramsey on sys.path."""
    from looseramsey.constructions import PairKind, SplitSpec, build_split_coloring, lower_bound_params
    from looseramsey.core import PATH, RED, BLUE, Coloring
    from looseramsey.extractor import solve
    from looseramsey.oracle import find_mono_cycle, find_mono_path

    times, lines, completions = {}, [], {}
    for kind in ("pp", "cc", "pncm", "pmcn"):
        for n in NS:
            pair = PairKind(kind, n, n - 1 if kind == "pmcn" else n)
            c = build_split_coloring(lower_bound_params(pair))
            c = c if pair.red_target == pair.short_target else c.swap()
            for color, (shape, length) in ((RED, pair.red_target), (BLUE, pair.blue_target)):
                find = find_mono_path if shape == PATH else find_mono_cycle
                start = time.perf_counter()
                w = find(c, color, length)
                times[f"absence n={n} {kind} {color} {shape} {length}"] = time.perf_counter() - start
                lines.append("none" if w is None else f"found {w.structure.vertices}")
    for kind, n, m, side, orient in FLIP_CASES:
        pair = PairKind(kind, n, m)
        spec = lower_bound_params(pair)
        base = build_split_coloring(SplitSpec(spec.a + (side == "a"), spec.b + (side == "b")))
        base = base.swap() if orient == "swapped" else base
        case = f"flip2 {kind}({n},{m}) {side}+1 {orient}"
        completions[case] = 0
        for seed in SEEDS:
            bits = base.red_bits
            for r in random.Random(seed).sample(range(base.n_triples), FLIPS):
                bits ^= 1 << r
            best = math.inf
            for _ in range(SOLVES):
                c, trace = Coloring(base.n_vertices, bits), []
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    start = time.perf_counter()
                    w = solve(pair, c, trace=trace)
                    best = min(best, time.perf_counter() - start)
            times[f"{case} seed {seed}"] = best
            completions[case] += any(note.startswith("completion") for note in trace)
            lines.append(f"{w.color} {w.shape} " + " ".join(map(str, w.structure.vertices)))
    return {"times": times, "completions": completions,
            "sha1": hashlib.sha1("\n".join(lines).encode()).hexdigest()}


def quartiles(xs):
    """(first quartile, median, third quartile) of the samples xs."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def parent_src(tmp: str) -> str:
    """Extract PARENT's src/ into tmp and return its path."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", PARENT, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(tmp)
    return os.path.join(tmp, "src")


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:
        sys.path.insert(0, sys.argv[2])
        print(json.dumps(sweep()))
        return
    with tempfile.TemporaryDirectory() as tmp:
        sources = [(parent_src(tmp), f"parent {PARENT}"), (str(ROOT / "src"), "this checkout")]
        samples = {label: [] for _, label in sources}
        digests = {label: set() for _, label in sources}
        completions = {}
        for r in range(REPEATS):
            for src, label in sources[:: 1 if r % 2 == 0 else -1]:
                cmd = [sys.executable, __file__, "--worker", src]
                out = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
                samples[label].append(out["times"])
                digests[label].add(out["sha1"])
                completions[label] = out["completions"]
                print(f"repeat {r + 1}/{REPEATS}: {label} done", file=sys.stderr)
    runs, meds = {}, {}
    for _, label in sources:
        quart = {case: quartiles([s[case] for s in samples[label]]) for case in samples[label][0]}
        totals = {}
        for case, q in quart.items():
            group = " ".join(case.split()[:2]) if case.startswith("absence") else case.split(" seed")[0]
            totals[group] = totals.get(group, 0) + q[1]
        runs[label] = {
            "median_ms": {case: round(q[1] * 1e3, 3) for case, q in quart.items()},
            "quartiles_ms": {case: [round(q[0] * 1e3, 3), round(q[2] * 1e3, 3)]
                             for case, q in quart.items()},
            "sum_of_medians_ms": {g: round(t * 1e3, 1) for g, t in totals.items()},
            "completions": completions[label],
            "sha1": sorted(digests[label]),
        }
        meds[label] = totals
    (_, before), (_, after) = sources
    record = {
        "sources": [label for _, label in sources],
        "ns": list(NS),
        "flip_cases": [list(c) for c in FLIP_CASES],
        "flips": FLIPS,
        "seeds": len(SEEDS),
        "solves": SOLVES,
        "repeats": REPEATS,
        "notes": NOTES,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "runs": runs,
        "speedup_sum_of_medians": {g: round(meds[before][g] / meds[after][g], 1) for g in meds[before]},
    }
    (ROOT / "BENCH_oracle.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
