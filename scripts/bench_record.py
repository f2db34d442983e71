"""Before/after records of split+1 solve time against n, of the oracle, of
the coloring file formats, of the link-table build, of the greedy build,
of in-process CLI calls, of peak memory and of the CLI's start-up.

    python3 scripts/bench_record.py scaling|oracle|formats|tables|greedy|cli|memory|startup

Writes BENCH_<record>.json at the root of the checkout.  Two sources are
timed: the package at commit PARENT (set it to the commit a change is
measured against), extracted with `git archive`, and this checkout's
`src/`.  Every repeat imports both into one fresh interpreter, keeping each
source's modules and swapping them into sys.modules in turn (numpy is
shared), and runs the two sweeps case by case: each case runs on one
source and then on the other, the first source alternating per case and
per repeat, so drift over seconds hits both alike.  A case's time is the
median over the repeats, with its quartiles, in ms by `time.perf_counter`,
every input built outside the timed span.  Each source gets the sha1 of
all its outputs, which agree when both return the same results, and
`src_lines`, the line count of its `looseramsey/*.py` as `wc -l` gives it.

- `scaling`: one `solve` per kind (pp, cc, pncm, pmcn) on its diagonal pair
  (m = n, or m = n - 1 for pmcn) and on the off-diagonal pair pp(n, n // 2),
  n in SCALING_NS, side (the extremal split with one extra vertex in A or
  in B: `a+1`, `b+1`) and orientation (the split coloring or its colour
  swap: plain, swapped); the hard diagonal ones are `a+1` plain and `b+1`
  swapped.  `completions` counts, per case, the n whose solve ends in the
  oracle completion.  `work` holds, per case and n, the calls of each
  function in WORK, made by one more solve, untimed and with those
  functions wrapped, in the first repeat only: the counts depend on no
  host, and a change that claims no algorithmic effect keeps them equal.
  Among them are the descent's greedy attempts (`_fast_red`, one per
  level that tries the red target) and greedy builds (`_greedy`; the
  attempts without a build carry the path of the level above), the blue
  chains (`_chain`) and the link-table builds per builder (walk, one-word
  and chunked); a case with a one-word or chunked build imports numpy.
  `exponent_40_80`, `exponent_120_160` and `exponent_80_240` are the
  least-squares slopes of log time against log n from n = 40 to 80, from
  n = 120 to 160 and from n = 80 to 240 (four points, so one noisy cell
  moves it less), `work_exponent_80_240` the same slope of log count
  against log n for the `_bridges` and `_find_move` calls of `work` (None
  where a count in the fit is 0), and `speedup` the parent's median time
  over this checkout's.
- `oracle`: `absence` is, per kind on its diagonal pair at n in ORACLE_NS,
  the two proofs of absence (no red and no blue target) on the extremal
  split coloring on R - 1 vertices, oriented so red is the short target.
  `flip2` solves the split+1 coloring of each FLIP_CASES entry with FLIPS
  distinct random triples flipped, drawn by `random.Random(seed)` per seed
  in SEEDS, keeping the least of SOLVES runs on fresh copies.  `completions`
  counts solves that end in the oracle completion; `speedup_sum_of_medians`
  is the parent's sum of medians over this checkout's, per group of cases.
- `formats`: LRC1 and LRE1 encode and decode of the split coloring of
  pncm(30, 30) (N = 74) and of a random coloring, drawn by
  `random.Random(N)`, at each N in FORMAT_NS, and the two files that
  perfbench's `certify` workload decodes: the split coloring of pp(5, 5)
  (N = 12) in LRE1 and the pncm(30, 30) split coloring with one more vertex
  in B (`b+1`, N = 75) in LRC1; each time is the least of CALLS calls.
  `sha1` covers each source's encoded files, which agree when both write the
  same bytes, and `speedup` is the parent's median time over this
  checkout's.
- `tables`: the link-table build `_link_table` on a random coloring, drawn
  by `random.Random(N)`, at each N in TABLE_NS: `warm` is the least of
  TABLE_CALLS calls right after each other, `cold` the median of as many
  calls, each right after a pass over 4 MB of numpy array and 100000 Python
  floats (about what runs between the searches of `cli search`), and
  `second colour` the least of TABLE_CALLS blue tables derived through
  `_LinkTables` (the oracle's class, imported through `extractor` as every
  source tree has it there) from a red table built outside the timed
  span.  `sha1`
  covers every table built, which agree when both build the same ints, and
  `speedup` is the parent's median time over this checkout's.
- `greedy`: the greedy build `_greedy(c, N)` through the byte view (a
  source whose `_greedy` also takes a red table gets None for it), on
  random colorings (each triple red with probability 1/2) at each N in
  GREEDY_NS, GREEDY_CALLS colorings drawn by `random.Random(N * 1000 + i)`,
  and on the split+1 coloring of every kind on its diagonal pair at each n
  in GREEDY_SPLIT_NS, per side and orientation, GREEDY_CALLS calls each;
  a case's time is the median of its calls.  `stress` times `cli.stress`
  of STRESS_TRIALS trials, seed 0, on each pair of STRESS_PAIRS in one
  process, and `stress_trials_per_s` is STRESS_TRIALS over its median.
  `sha1` covers every greedy path, which agree when both sources build the
  same paths, and `speedup` is the parent's median time over this
  checkout's.
- `cli`: in-process `cli.main` calls with stdout captured, one per case of
  CLI_CASES, on the inputs of perfbench's `certify` workload: `construct`
  of pncm(5, 5) and of pncm(30, 30) in LRC1 and in LRE1 (`--explicit`),
  each with `--out`; `search` for the red and for the blue target of
  pp(5, 5) in its split coloring on R - 1 vertices (LRC1 and LRE1, a proof
  of absence, exit 1); `extract` from the pncm(30, 30) split coloring with
  one more vertex in B (`b+1`), and `verify` of its witness.  The inputs
  are written untimed into a directory of each source's own, and so is each
  `construct` case's `--out` file, so that every timed call overwrites an
  existing file.  A case's time is the least of CLI_CALLS calls; `sha1` covers every call's stdout and
  the files `construct` writes, which agree when both sources print and
  write the same bytes, and `speedup` is the parent's median time over this
  checkout's.
- `memory`: the peak RSS (`ru_maxrss`) of one `solve` of split+1 pp(n, n),
  `a+1` plain and `b+1` swapped, n in MEMORY_NS, each in a fresh
  interpreter per source; `input_rss_mb` is the peak before the solve,
  with the coloring built, and `ratio` the parent's peak over this
  checkout's.  It runs once: a peak does not drift with the host's speed.
- `startup`: each command of STARTUP, the `loose-ramsey` entry point's
  round trip in a fresh interpreter per run, STARTUP_RUNS runs per source,
  the first source alternating per command and per run.  Per command and
  source, `median_ms` and `quartiles_ms` of the wall time from start to
  exit, and `peak_rss_mb`, the median `ru_maxrss` of the child from
  `os.wait4`; `sha1` covers every command's output (stress's wall time
  aside), and `speedup` is the parent's median time over this checkout's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import platform
import random
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT = "4036610"
KINDS = ("pp", "cc", "pncm", "pmcn")
SCALING_NS = (10, 20, 40, 60, 80, 120, 160, 240)
# the functions whose calls `work` counts: key -> (module, function)
WORK = {
    "_fast_red": ("extractor", "_fast_red"),
    "_greedy": ("extractor", "_greedy"),
    "_chain": ("extractor", "_chain"),
    "_find_move": ("extractor", "_find_move"),
    "_bridges": ("extractor", "_bridges"),
    "_route": ("extractor", "_route"),
    "walk builds": ("oracle", "_walked_links"),
    "one-word builds": ("oracle", "_link_words"),
    "chunked builds": ("oracle", "_packed_links"),
}
OFF_DIAGONAL = "pp(n,n/2)"
CASES = [(row, side, orient) for row in (*KINDS, OFF_DIAGONAL) for side in "ab"
         for orient in ("plain", "swapped")]
ORACLE_NS = (5, 6, 7, 8)
FLIP_CASES = (("pmcn", 16, 4, "a", "plain"), ("pp", 20, 4, "b", "swapped"),
              ("pp", 11, 11, "b", "swapped"))
FLIPS = 2
SEEDS = range(12)
SOLVES = 5
FORMAT_NS = (30, 74, 100)
CALLS = 5
TABLE_NS = (9, 12, 14, 16, 20, 25, 30, 33, 48, 64, 65, 74, 100, 300)
TABLE_CALLS = 9
GREEDY_NS = (25, 50, 100)
GREEDY_SPLIT_NS = (8, 12, 40)
GREEDY_CALLS = 15
STRESS_PAIRS = (10, 20, 40)  # pp(n, n), N = 25, 50 and 100
STRESS_TRIALS = 50
MEMORY_NS = (160, 240, 320)
MEMORY_CASES = [(n, side, orient) for n in MEMORY_NS for side, orient in (("a", "plain"), ("b", "swapped"))]
# command -> its arguments, run in a directory holding the INPUTS, with
# WITNESS the extract's output there; the extract builds a link table of 19
# vertices, the others none of 14 or more
WITNESS = "{witness}"
STARTUP = {
    "ramsey": ["ramsey", "--pair", "pp", "-n", "8", "-m", "8"],
    "construct": ["construct", "--pair", "pp", "-n", "8", "-m", "8", "--out", "out.lrc"],
    "verify": ["verify", "--file", "s.lrc", "--witness", WITNESS],
    "search": ["search", "--file", "c.lre", "--color", "red", "--shape", "path", "--length", "5"],
    "stress": ["stress", "--pair", "pp", "-n", "20", "-m", "20", "--trials", "50", "--seed", "0"],
    "extract": ["extract", "--file", "s.lrc", "--pair", "pp", "-n", "8", "-m", "6"],
}
INPUTS = (["construct", "--pair", "pp", "-n", "8", "-m", "8", "--out", "s.lrc"],
          ["construct", "--pair", "pp", "-n", "5", "-m", "5", "--explicit", "--out", "c.lre"])
STARTUP_RUNS = 15
# what the console script runs
ENTRY = "import sys; from looseramsey.cli import main; sys.exit(main())"
STARTUP_NOTES = (
    "One shared 2-core x86-64 container, time.perf_counter from start to exit of a fresh "
    "interpreter per run, peak RSS as ru_maxrss in MB. The host cannot pin CPUs, fix the clock "
    "frequency or drop caches (the interpreter and numpy are read from the page cache), and other "
    "tenants load it; the sources alternate command by command and run by run. The inputs are "
    "s.lrc, `construct` of pp(8,8), and c.lre, `construct --explicit` of pp(5,5); {witness} is "
    "the extract's output line."
)
# case -> cli.main's argv, with {d} the source's own directory, which holds
# the certify inputs pp5.lrc, pp5.lre and plus.lrc, and WITNESS the
# extract's output
PNCM5, PNCM30 = ["--pair", "pncm", "-n", "5", "-m", "5"], ["--pair", "pncm", "-n", "30", "-m", "30"]
CLI_CASES = {
    "construct LRC1 pncm(5,5)": ["construct", *PNCM5, "--out", "{d}/p5.lrc"],
    "construct LRE1 pncm(5,5)": ["construct", *PNCM5, "--explicit", "--out", "{d}/p5.lre"],
    "construct LRC1 pncm(30,30)": ["construct", *PNCM30, "--out", "{d}/p30.lrc"],
    "construct LRE1 pncm(30,30)": ["construct", *PNCM30, "--explicit", "--out", "{d}/p30.lre"],
    "search red pp(5,5)": ["search", "--file", "{d}/pp5.lrc", "--color", "red", "--shape", "path",
                           "--length", "5"],
    "search blue pp(5,5)": ["search", "--file", "{d}/pp5.lre", "--color", "blue", "--shape", "path",
                            "--length", "5"],
    "extract pncm(30,30) b+1": ["extract", "--file", "{d}/plus.lrc", *PNCM30],
    "verify pncm(30,30) b+1": ["verify", "--file", "{d}/plus.lrc", "--witness", WITNESS],
}
CLI_CALLS = 15
NOTES = (
    "One shared 2-core x86-64 container, time.perf_counter. The host cannot pin "
    "CPUs, fix the clock frequency or drop caches, and other tenants load it: its speed drifts "
    "by up to 1.7x over minutes. Both sources share one interpreter per repeat and alternate "
    "case by case, and each time is a median over repeats, so drift hits both sides alike."
)


def _split1(pair, side: str, orient: str):
    """The extremal split coloring of pair with one extra vertex in A or B,
    plain or colour-swapped."""
    from looseramsey.constructions import SplitSpec, build_split_coloring, lower_bound_params

    spec = lower_bound_params(pair)
    c = build_split_coloring(SplitSpec(spec.a + (side == "a"), spec.b + (side == "b")))
    return c.swap() if orient == "swapped" else c


def _scaling_pair(row: str, n: int):
    """The pair of a scaling row at n: pp(n, n // 2) for the off-diagonal
    row, else the kind's diagonal pair (m = n, or m = n - 1 for pmcn)."""
    from looseramsey.constructions import PairKind

    if row == OFF_DIAGONAL:
        return PairKind("pp", n, n // 2)
    return PairKind(row, n, n - 1 if row == "pmcn" else n)


def _line(w) -> str:
    return f"{w.color} {w.shape} " + " ".join(map(str, w.structure.vertices))


def _work(modules: dict, pair, c) -> dict:
    """The calls of each WORK function in one solve of pair on c, counted by
    wrappers that are in place for this solve only; modules maps each
    module name of WORK to the module."""
    calls = dict.fromkeys(WORK, 0)
    real = {key: getattr(modules[m], name) for key, (m, name) in WORK.items()}

    def counting(key):
        f = real[key]

        def counted(*args):
            calls[key] += 1
            return f(*args)

        return counted

    for key, (m, name) in WORK.items():
        setattr(modules[m], name, counting(key))
    try:
        modules["extractor"].solve(pair, c)
    finally:
        for key, (m, name) in WORK.items():
            setattr(modules[m], name, real[key])
    return calls


# Each sweep times every case once with the looseramsey in sys.modules,
# yields after each case so that the other source runs it next, and
# returns its record.  COUNT is set in the worker of the first repeat.
COUNT = False


def sweep_scaling():
    """The scaling cases."""
    from looseramsey import extractor, oracle
    from looseramsey.constructions import PairKind

    solve = extractor.solve
    # warm imports: a table of 15 vertices, so that numpy is loaded before any timed solve
    solve(PairKind("pp", 6, 6), _split1(PairKind("pp", 6, 6), "a", "plain"))
    times, lines, completions, work = {}, [], {}, {}
    for label, side, orient in CASES:
        case = f"{label} {side}+1 {orient}"
        row, completions[case] = times.setdefault(case, {}), 0
        for n in SCALING_NS:
            pair = _scaling_pair(label, n)
            c, trace = _split1(pair, side, orient), []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                start = time.perf_counter()
                w = solve(pair, c, trace=trace)
                row[str(n)] = time.perf_counter() - start
                if COUNT:
                    work.setdefault(case, {})[str(n)] = _work(
                        {"extractor": extractor, "oracle": oracle}, pair, c)
            completions[case] += any(note.startswith("completion") for note in trace)
            lines.append(_line(w))
            yield
    sha1 = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    return {"times": times, "completions": completions, "sha1": sha1, "work": work}


def sweep_oracle():
    """The oracle cases."""
    from looseramsey.constructions import PairKind, build_split_coloring, lower_bound_params
    from looseramsey.core import BLUE, PATH, RED, Coloring
    from looseramsey.extractor import solve
    from looseramsey.oracle import find_mono_cycle, find_mono_path

    times, lines, completions = {}, [], {}
    for kind in KINDS:
        for n in ORACLE_NS:
            pair = PairKind(kind, n, n - 1 if kind == "pmcn" else n)
            c = build_split_coloring(lower_bound_params(pair))
            c = c if pair.red_target == pair.short_target else c.swap()
            for color, (shape, length) in ((RED, pair.red_target), (BLUE, pair.blue_target)):
                find = find_mono_path if shape == PATH else find_mono_cycle
                start = time.perf_counter()
                w = find(c, color, length)
                times[f"absence n={n} {kind} {color} {shape} {length}"] = time.perf_counter() - start
                lines.append("none" if w is None else f"found {w.structure.vertices}")
                yield
    for kind, n, m, side, orient in FLIP_CASES:
        pair = PairKind(kind, n, m)
        base = _split1(pair, side, orient)
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
            lines.append(_line(w))
            yield
    sha1 = hashlib.sha1("\n".join(lines).encode()).hexdigest()
    return {"times": times, "completions": completions, "sha1": sha1}


def sweep_formats():
    """The format cases."""
    from looseramsey.constructions import PairKind, SplitSpec, build_split_coloring, lower_bound_params
    from looseramsey.core import Coloring
    from looseramsey.formats import decode, encode_lrc1, encode_lre1

    def least(call):
        best = math.inf
        for _ in range(CALLS):
            start = time.perf_counter()
            out = call()
            best = min(best, time.perf_counter() - start)
        return best, out

    codecs = {"LRC1": encode_lrc1, "LRE1": encode_lre1}
    spec = lower_bound_params(PairKind("pncm", 30, 30))
    # case -> (coloring, its formats)
    cases = {"split pncm(30,30) N=74": (build_split_coloring(spec), codecs)}
    for n in FORMAT_NS:
        cases[f"random N={n}"] = (Coloring(n, random.Random(n).getrandbits(math.comb(n, 3))), codecs)
    cases["split pp(5,5) N=12"] = (build_split_coloring(lower_bound_params(PairKind("pp", 5, 5))),
                                   {"LRE1": encode_lre1})
    cases["split+1 pncm(30,30) b+1 N=75"] = (build_split_coloring(SplitSpec(spec.a, spec.b + 1)),
                                             {"LRC1": encode_lrc1})
    times, texts = {}, []
    for case, (c, formats) in cases.items():
        for fmt, encode in formats.items():
            times[f"{fmt} encode {case}"], text = least(lambda: encode(c))
            times[f"{fmt} decode {case}"], back = least(lambda: decode(text))
            if back != c:
                raise RuntimeError(f"{fmt} round trip of {case} changed the coloring")
            texts.append(text)
            yield
    return {"times": times, "sha1": hashlib.sha1("".join(texts).encode()).hexdigest()}


def sweep_tables():
    """The table cases."""
    import numpy as np

    from looseramsey.core import BLUE, RED, Coloring
    from looseramsey.extractor import _LinkTables
    from looseramsey.oracle import _link_table

    junk, floats = np.ones(4 << 20, np.uint8), [float(i) for i in range(100000)]

    def evict():
        junk.sum()
        sum(floats)

    times, digest = {}, hashlib.sha1()
    for n in TABLE_NS:
        bits = random.Random(n).getrandbits(math.comb(n, 3))
        warm, cold, second = [], [], []
        T = _link_table(n, bits)
        for _ in range(TABLE_CALLS):
            start = time.perf_counter()
            _link_table(n, bits)
            warm.append(time.perf_counter() - start)
        for _ in range(TABLE_CALLS):
            evict()
            start = time.perf_counter()
            _link_table(n, bits)
            cold.append(time.perf_counter() - start)
        for _ in range(TABLE_CALLS):
            links = _LinkTables(Coloring(n, bits))
            links.table(RED)
            start = time.perf_counter()
            blue = links.table(BLUE)
            second.append(time.perf_counter() - start)
        times[f"warm N={n}"], times[f"cold N={n}"] = min(warm), statistics.median(cold)
        times[f"second colour N={n}"] = min(second)
        digest.update(repr((T, blue)).encode())
        yield
    return {"times": times, "sha1": digest.hexdigest()}


def sweep_greedy():
    """The greedy cases."""
    from looseramsey.cli import random_coloring, stress
    from looseramsey.constructions import PairKind
    from looseramsey.extractor import _greedy

    # None for the red table of a source whose _greedy still takes one
    table = (None,) * (len(inspect.signature(_greedy).parameters) - 2)
    os.environ.pop("LOOSERAMSEY_WORKERS", None)  # every stress trial in this process
    times, digest = {}, hashlib.sha1()

    def median_build(colorings):
        ts = []
        for c in colorings:
            c._ranks, c._lowest_red  # the byte view and the seed rank, untimed
            start = time.perf_counter()
            path = _greedy(c, c.n_vertices, *table)
            ts.append(time.perf_counter() - start)
            digest.update(repr(path).encode())
        return statistics.median(ts)

    for n in GREEDY_NS:
        times[f"random N={n}"] = median_build(random_coloring(n, n * 1000 + i) for i in range(GREEDY_CALLS))
        yield
    for kind in KINDS:
        for n in GREEDY_SPLIT_NS:
            pair = PairKind(kind, n, n - 1 if kind == "pmcn" else n)
            for side in "ab":
                for orient in ("plain", "swapped"):
                    c = _split1(pair, side, orient)
                    times[f"split {kind} n={n} {side}+1 {orient}"] = median_build([c] * GREEDY_CALLS)
                    yield
    for n in STRESS_PAIRS:
        start = time.perf_counter()
        report = stress(PairKind("pp", n, n), STRESS_TRIALS, 0)
        times[f"stress pp({n},{n})"] = time.perf_counter() - start
        if not report.ok:
            raise RuntimeError(f"stress pp({n},{n}) failed: {report.failures}")
        yield
    return {"times": times, "sha1": digest.hexdigest()}


def sweep_cli():
    """The cli cases."""
    from looseramsey.cli import main
    from looseramsey.constructions import PairKind, SplitSpec, build_split_coloring, lower_bound_params
    from looseramsey.formats import write_coloring

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    times, digest = {}, hashlib.sha1()
    with tempfile.TemporaryDirectory() as d:
        pp5 = ["--pair", "pp", "-n", "5", "-m", "5"]
        run(["construct", *pp5, "--out", f"{d}/pp5.lrc"])
        run(["construct", *pp5, "--explicit", "--out", f"{d}/pp5.lre"])
        spec = lower_bound_params(PairKind("pncm", 30, 30))
        with open(f"{d}/plus.lrc", "w") as fh:
            write_coloring(build_split_coloring(SplitSpec(spec.a, spec.b + 1)), fh)
        witness = None
        for case, argv in CLI_CASES.items():
            argv = [witness if a == WITNESS else a.format(d=d) for a in argv]
            if argv[0] == "construct":  # every timed call overwrites, as certify's do
                run(argv)
            best = math.inf
            for _ in range(CLI_CALLS):
                start = time.perf_counter()
                code, out = run(argv)
                best = min(best, time.perf_counter() - start)
            if code != (argv[0] == "search"):  # the search proves an absence: exit 1
                raise RuntimeError(f"{case} exited {code}")
            if argv[0] == "extract":
                witness = out.splitlines()[-1]
            digest.update(out.encode())
            if argv[0] == "construct":
                digest.update(Path(argv[-1]).read_bytes())
            times[case] = best
            yield
    return {"times": times, "sha1": digest.hexdigest()}


def _quartiles(samples: list) -> dict:
    """Per case, nested as in the samples: (first quartile, median, third
    quartile) over the samples."""
    return {
        k: _quartiles([s[k] for s in samples]) if isinstance(v, dict)
        else tuple(statistics.quantiles([s[k] for s in samples], n=4, method="inclusive"))
        for k, v in samples[0].items()
    }


def _leaves(f, tree: dict) -> dict:
    return {k: _leaves(f, v) if isinstance(v, dict) else f(v) for k, v in tree.items()}


def _slope(points) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _groups(quart: dict) -> dict:
    """Sum of the median times per group: `absence n=N`, or one flip2 case."""
    totals = {}
    for case, q in quart.items():
        group = " ".join(case.split()[:2]) if case.startswith("absence") else case.split(" seed")[0]
        totals[group] = totals.get(group, 0) + q[1]
    return totals


def _scaling_keys(quart: dict, outs: dict):
    """The scaling record's parameters, keys per source and speedup."""
    def exponents(q, lo, hi):
        fit = [n for n in SCALING_NS if lo <= n <= hi]
        return {case: round(_slope([(n, row[str(n)][1]) for n in fit]), 2)
                for case, row in q.items()}

    def work_exponents(work):
        fit = [n for n in SCALING_NS if 80 <= n <= 240]
        return {case: {key: round(_slope([(n, row[str(n)][key]) for n in fit]), 2)
                       if all(row[str(n)][key] for n in fit) else None
                       for key in ("_bridges", "_find_move")}
                for case, row in work.items()}

    runs = {label: {
        "exponent_40_80": exponents(q, 40, 80),
        "exponent_120_160": exponents(q, 120, 160),
        "exponent_80_240": exponents(q, 80, 240),
        "work_exponent_80_240": work_exponents(outs[label][0]["work"]),
        "completions": outs[label][-1]["completions"],
        "witness_sha1": sorted({o["sha1"] for o in outs[label]}),
        "work": outs[label][0]["work"],
    } for label, q in quart.items()}
    before, after = quart.values()
    speedup = {case: {k: round(q[1] / after[case][k][1], 2) for k, q in row.items()}
               for case, row in before.items()}
    return {"ns": list(SCALING_NS)}, runs, {"speedup": speedup}


def _oracle_keys(quart: dict, outs: dict):
    """The oracle record's parameters, keys per source and speedup."""
    params = {"ns": list(ORACLE_NS), "flip_cases": [list(c) for c in FLIP_CASES], "flips": FLIPS,
              "seeds": len(SEEDS), "solves": SOLVES}
    sums = {label: _groups(q) for label, q in quart.items()}
    runs = {label: {
        "sum_of_medians_ms": {g: round(t * 1e3, 1) for g, t in sums[label].items()},
        "completions": outs[label][-1]["completions"],
        "sha1": sorted({o["sha1"] for o in outs[label]}),
    } for label in quart}
    before, after = sums.values()
    speedup = {g: round(before[g] / after[g], 1) for g in before}
    return params, runs, {"speedup_sum_of_medians": speedup}


def _formats_keys(quart: dict, outs: dict):
    """The formats record's parameters, keys per source and speedup."""
    params = {"ns": list(FORMAT_NS), "calls": CALLS}
    runs = {label: {"sha1": sorted({o["sha1"] for o in outs[label]})} for label in quart}
    before, after = quart.values()
    speedup = {case: round(q[1] / after[case][1], 2) for case, q in before.items()}
    return params, runs, {"speedup": speedup}


def _cli_keys(quart: dict, outs: dict):
    """The cli record's parameters, keys per source and speedup: those of
    the formats record, with its own cases and calls."""
    _, runs, speedup = _formats_keys(quart, outs)
    cases = {case: " ".join(argv) for case, argv in CLI_CASES.items()}
    return {"cases": cases, "calls": CLI_CALLS}, runs, speedup


def _tables_keys(quart: dict, outs: dict):
    """The tables record's parameters, keys per source and speedup: those
    of the formats record, with its own sizes and calls."""
    _, runs, speedup = _formats_keys(quart, outs)
    return {"ns": list(TABLE_NS), "calls": TABLE_CALLS}, runs, speedup


def _greedy_keys(quart: dict, outs: dict):
    """The greedy record's parameters, keys per source and speedup: those of
    the formats record, with the stress cases' trials per second."""
    _, runs, speedup = _formats_keys(quart, outs)
    for label, q in quart.items():
        runs[label]["stress_trials_per_s"] = {
            case: round(STRESS_TRIALS / t[1]) for case, t in q.items() if case.startswith("stress")}
    params = {"ns": list(GREEDY_NS), "split_ns": list(GREEDY_SPLIT_NS), "calls": GREEDY_CALLS,
              "stress_pairs": [f"pp({n},{n})" for n in STRESS_PAIRS], "stress_trials": STRESS_TRIALS}
    return params, runs, speedup


# the sweep, its record's own keys, its repeats and its note
RECORDS = {
    "scaling": (sweep_scaling, _scaling_keys, 7,
                "Cases under 1 ms are noise-bound and their exponents mean little."),
    "oracle": (sweep_oracle, _oracle_keys, 3,
               "An unpruned oracle's proofs at n = 8 take minutes, hence only 3 repeats."),
    "formats": (sweep_formats, _formats_keys, 7,
                "LRC1 times are under 1 ms and noise-bound."),
    "tables": (sweep_tables, _tables_keys, 7,
               "Builds under 0.1 ms are noise-bound, most of all the cold ones."),
    "greedy": (sweep_greedy, _greedy_keys, 15,
               "Greedy builds take 5-100 us; a stress case's time is one call of all its trials."),
    "cli": (sweep_cli, _cli_keys, 15,
            "Each call's stdout goes to an io.StringIO. Each construct case writes its --out file "
            "once, untimed, so every timed call overwrites an existing file, as in certify: "
            "on this host's ext4, mounted with discard, a parent that opens it with "
            "open(path, 'w') pays about 0.1 ms for the truncation over a 64-byte file and "
            "0.3 ms over the 264 KB LRE1 of pncm(30,30)."),
}


def solve_peak(src: str, n: int, side: str, orient: str) -> dict:
    """One solve of split+1 pp(n, n) from src, in this fresh interpreter."""
    sys.path.insert(0, src)
    from looseramsey.constructions import PairKind
    from looseramsey.extractor import solve

    pair = PairKind("pp", n, n)
    c = _split1(pair, side, orient)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    w = solve(pair, c)
    seconds = time.perf_counter() - start
    return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "input_rss_mb": before, "solve_s": seconds, "witness": _line(w)}


def record_memory(sources: list) -> dict:
    """The memory record's runs and ratio: the cases one at a time, each
    source in a fresh interpreter."""
    runs = {label: {"peak_rss_mb": {}, "input_rss_mb": {}, "solve_s": {}} for _, label in sources}
    witnesses = {label: [] for _, label in sources}
    for n, side, orient in MEMORY_CASES:
        case = f"pp({n},{n}) {side}+1 {orient}"
        for src, label in sources:
            cmd = [sys.executable, __file__, "memory", "--solve", src, str(n), side, orient]
            out = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)
            for key in ("peak_rss_mb", "input_rss_mb", "solve_s"):
                runs[label][key][case] = round(out[key], 1 if key != "solve_s" else 2)
            witnesses[label].append(out["witness"])
        print(f"{case} done", file=sys.stderr)
    for label, lines in witnesses.items():
        runs[label]["witness_sha1"] = hashlib.sha1("\n".join(lines).encode()).hexdigest()
        runs[label]["src_lines"] = src_lines(next(src for src, lb in sources if lb == label))
    before, after = (r["peak_rss_mb"] for r in runs.values())
    return {"cases": list(before), "runs": runs,
            "ratio": {case: round(before[case] / after[case], 2) for case in before}}


def _cli(src: str, cwd: str, argv: list) -> tuple:
    """One run of the entry point from src in cwd, in a fresh interpreter:
    its wall time in s, peak RSS in MB, exit code and output."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=cwd, stdout=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    with proc.stdout:
        out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return seconds, usage.ru_maxrss / 1024, proc.returncode, out


def record_startup(sources: list, tmp: str) -> dict:
    """The startup record's runs and speedup: every command of STARTUP per
    run and source, the first source alternating."""
    argvs, times, rss, outs = {}, {}, {}, {}
    for i, (src, label) in enumerate(sources):
        cwd = os.path.join(tmp, f"startup{i}")
        os.mkdir(cwd)
        for argv in INPUTS:
            _cli(src, cwd, argv)
        witness = _cli(src, cwd, STARTUP["extract"])[3].splitlines()[-1]
        argvs[label] = (cwd, {cmd: [witness if a == WITNESS else a for a in argv]
                              for cmd, argv in STARTUP.items()})
        times[label], rss[label], outs[label] = ({cmd: [] for cmd in STARTUP} for _ in range(3))
    for r in range(STARTUP_RUNS):
        for j, cmd in enumerate(STARTUP):
            for src, label in sources[:: 1 if (r + j) % 2 == 0 else -1]:
                cwd, argv = argvs[label][0], argvs[label][1][cmd]
                seconds, peak, code, out = _cli(src, cwd, argv)
                if code != (cmd == "search"):  # the search proves an absence: exit 1
                    raise RuntimeError(f"{label}: {cmd} exited {code}")
                times[label][cmd].append(seconds)
                rss[label][cmd].append(peak)
                outs[label][cmd].append("".join(
                    line for line in out.splitlines(True) if not line.startswith("wall_time")))
        print(f"run {r + 1}/{STARTUP_RUNS} done", file=sys.stderr)
    runs = {}
    for src, label in sources:
        quart = {cmd: statistics.quantiles(ts, n=4, method="inclusive") for cmd, ts in times[label].items()}
        runs[label] = {
            "median_ms": {cmd: round(q[1] * 1e3, 1) for cmd, q in quart.items()},
            "quartiles_ms": {cmd: [round(q[0] * 1e3, 1), round(q[2] * 1e3, 1)] for cmd, q in quart.items()},
            "peak_rss_mb": {cmd: round(statistics.median(v), 1) for cmd, v in rss[label].items()},
            "sha1": sorted({hashlib.sha1("".join(outs[label][cmd][r] for cmd in STARTUP).encode()).hexdigest()
                            for r in range(STARTUP_RUNS)}),
            "src_lines": src_lines(src),
        }
    before, after = (r["median_ms"] for r in runs.values())
    return {"runs": runs, "speedup": {cmd: round(before[cmd] / after[cmd], 2) for cmd in STARTUP}}


def parent_src(tmp: str) -> str:
    """Extract PARENT's src/ into tmp and return its path."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", PARENT, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(tmp)
    return os.path.join(tmp, "src")


def src_lines(src: str) -> int:
    """Lines of the package modules under src."""
    return sum(p.read_text().count("\n") for p in Path(src).glob("looseramsey/*.py"))


def load(src: str) -> dict:
    """Import looseramsey and every module of it from src, and take them out
    of sys.modules again, so that the next source imports its own."""
    sys.path.insert(0, src)
    try:
        pkg = importlib.import_module("looseramsey")
        if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
            raise ImportError(f"looseramsey imported from {pkg.__file__}, not from {src}")
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"looseramsey.{info.name}")
    finally:
        sys.path.remove(src)
    names = [m for m in sys.modules if m == "looseramsey" or m.startswith("looseramsey.")]
    return {m: sys.modules.pop(m) for m in names}


def interleave(sweep, srcs: list) -> list:
    """Each source's record from one sweep per source, run one case at a
    time with that source's modules in sys.modules, the first source
    alternating per case."""
    modules = [load(src) for src in srcs]
    runs, records = [sweep() for _ in srcs], [None] * len(srcs)
    order = list(range(len(srcs)))
    while None in records:
        for i in order:
            if records[i] is None:
                sys.modules.update(modules[i])
                try:
                    next(runs[i])
                except StopIteration as done:
                    records[i] = done.value
        order.reverse()
    return records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("record", choices=[*RECORDS, "memory", "startup"])
    ap.add_argument("--worker", metavar="DIR", nargs="+", help=argparse.SUPPRESS)
    ap.add_argument("--solve", nargs=4, help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.solve:
        src, n, side, orient = args.solve
        print(json.dumps(solve_peak(src, int(n), side, orient)))
        return
    host = {"python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count()}
    if args.record == "memory":
        with tempfile.TemporaryDirectory() as tmp:
            sources = [(parent_src(tmp), f"parent {PARENT}"), (str(ROOT / "src"), "this checkout")]
            record = {"sources": [label for _, label in sources], "ns": list(MEMORY_NS),
                      "notes": "ru_maxrss in MB of one solve per fresh interpreter; numpy's import counts.",
                      "host": host, **record_memory(sources)}
        (ROOT / "BENCH_memory.json").write_text(json.dumps(record, indent=1) + "\n")
        return
    if args.record == "startup":
        with tempfile.TemporaryDirectory() as tmp:
            sources = [(parent_src(tmp), f"parent {PARENT}"), (str(ROOT / "src"), "this checkout")]
            record = {"sources": [label for _, label in sources],
                      "commands": {cmd: " ".join(argv) for cmd, argv in STARTUP.items()},
                      "runs_per_source": STARTUP_RUNS,
                      "notes": STARTUP_NOTES,
                      "host": host, **record_startup(sources, tmp)}
        (ROOT / "BENCH_startup.json").write_text(json.dumps(record, indent=1) + "\n")
        return
    sweep, own_keys, repeats, note = RECORDS[args.record]
    if args.worker:
        global COUNT
        COUNT = args.count
        print(json.dumps(interleave(sweep, args.worker)))
        return
    with tempfile.TemporaryDirectory() as tmp:
        sources = [(parent_src(tmp), f"parent {PARENT}"), (str(ROOT / "src"), "this checkout")]
        outs = {label: [] for _, label in sources}
        lines = {label: src_lines(src) for src, label in sources}
        for r in range(repeats):
            ordered = sources[:: 1 if r % 2 == 0 else -1]
            cmd = [sys.executable, __file__, args.record, "--worker", *(src for src, _ in ordered),
                   *(["--count"] if r == 0 else [])]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            for (_, label), record in zip(ordered, json.loads(out)):
                outs[label].append(record)
            print(f"repeat {r + 1}/{repeats} done", file=sys.stderr)
    quart = {label: _quartiles([o["times"] for o in out]) for label, out in outs.items()}
    params, runs, speedup = own_keys(quart, outs)
    for label, qs in quart.items():
        runs[label] = {
            "median_ms": _leaves(lambda q: round(q[1] * 1e3, 3), qs),
            "quartiles_ms": _leaves(lambda q: [round(q[0] * 1e3, 3), round(q[2] * 1e3, 3)], qs),
            **runs[label],
            "src_lines": lines[label],
        }
    record = {"sources": list(outs), **params, "repeats": repeats, "notes": f"{NOTES} {note}",
              "host": host, "runs": runs, **speedup}
    (ROOT / f"BENCH_{args.record}.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
