"""Benchmark of the looseramsey package: one client in a closed loop.

    python3 perfbench/run.py --workload uniform|adversarial|certify \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from ``src/``.
Each request starts after the previous one completes, all in this one
process with LOOSERAMSEY_WORKERS unset.  The loop runs whole passes over the
workload's seeded request mix until ``--seconds`` have passed, so every run
measures the same mix.  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs that untraced loop for half the time, then runs the same
passes again with spans recorded around the package's public functions,
and prints the per-layer metrics and the tracing overhead.  ``--smoke``
runs a few requests per workload, once.

The last stdout line is the JSON result; the line before it describes the
run (tail percentile and sample count, witness digest, environment).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import spans
import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SPLIT1_RUNGS = (5, 6, 7, 8, 10, 12)
MAIN_COMMANDS = ("construct", "search", "extract", "verify")


def import_package():
    """A fresh import of looseramsey and its modules (numpy stays imported)."""
    for name in [m for m in sys.modules if m == "looseramsey" or m.startswith("looseramsey.")]:
        del sys.modules[name]
    lr = importlib.import_module("looseramsey")
    for layer in spans.LAYERS:
        importlib.import_module(f"looseramsey.{layer}")
    if not Path(lr.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"looseramsey imported from {lr.__file__}, not from {SRC}")
    return lr


def make_workload(name: str, lr, seed: int):
    if name == "uniform":
        return workloads.Uniform(lr, seed)
    if name == "adversarial":
        return workloads.Adversarial(lr, seed)
    return workloads.Certify(lr, seed, ROOT / ".perfbench_work" / f"certify-{os.getpid()}")


def set_up(name: str, seed: int, repeats: int):
    """Import, generate the inputs and warm up, `repeats` times.
    Returns the last workload and the median set-up time, rescaled and raw."""
    probe = SpeedProbe()
    scaled, raw = [], []
    wl = None
    for _ in range(repeats):
        if wl is not None and hasattr(wl, "cleanup"):
            wl.cleanup()
        k = probe.probe()
        start = time.perf_counter()
        lr = import_package()
        wl = make_workload(name, lr, seed)
        wl.setup()
        for req in wl.warmup_requests():
            wl.execute(req)
        raw.append(time.perf_counter() - start)
        probe.probe()
        scaled.append(raw[-1] * probe.scale(k))
    return wl, statistics.median(scaled), statistics.median(raw)


class Phase:
    """Latencies (raw and rescaled by the speed probe), labels, failures and
    pass-0 witnesses of one loop."""

    def __init__(self) -> None:
        self.raw = []
        self.latency = []
        self.probes = []
        self.labels = []
        self.failures = []
        self.witnesses = []
        self.passes = 0
        self.rss_mb = 0.0


def run_loop(wl, seconds: float, smoke: bool, passes=None, recorder=None) -> Phase:
    """Closed loop over whole passes: until `seconds` have passed, or exactly
    `passes` passes when given."""
    ph = Phase()
    probe = SpeedProbe()
    start = time.perf_counter()
    while True:
        reqs = wl.smoke_requests() if smoke else wl.pass_requests(ph.passes)
        for req in reqs:
            if recorder is not None:
                recorder.request = len(ph.raw)
            ph.probes.append(probe.latest())
            t0 = time.perf_counter()
            try:
                result = wl.execute(req)
                error = None
            except Exception as exc:  # a raising request is a failed request
                result, error = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            ph.raw.append(time.perf_counter() - t0)
            ph.labels.append(wl.label(req))
            if error is None:
                try:
                    with recorder.pause() if recorder is not None else contextlib.nullcontext():
                        error = wl.check(req, result)
                except Exception as exc:  # output the check cannot parse
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                ph.failures.append(f"{ph.labels[-1]}: {error}")
            elif ph.passes == 0:
                ph.witnesses.append(wl.witness(req, result))
        ph.passes += 1
        if ph.passes == 1:
            ph.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if smoke or (passes is not None and ph.passes >= passes):
            break
        if passes is None and time.perf_counter() - start >= seconds:
            break
    probe.probe()
    ph.latency = [t * probe.scale(k) for t, k in zip(ph.raw, ph.probes)]
    return ph


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(ph: Phase, setup_s: float, tail_pct: float):
    """The end-to-end metrics, from rescaled times, and the run's info with
    the same figures from raw times."""
    value = percentile(ph.latency, tail_pct)
    beyond = sum(t > value for t in ph.latency)
    attempted = len(ph.latency)
    metrics = {
        "throughput_per_s": (attempted / sum(ph.latency), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(ph.latency), "ms"),
        "latency_tail_ms": (1000 * value, "ms"),
        "ok_ratio": (1 - len(ph.failures) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        # through set-up and the first pass: later passes repeat its requests,
        # and what they add (0-5 MB) is allocator fragmentation that differs
        # from process to process
        "peak_rss_mb": (ph.rss_mb, "MB"),
    }
    info = {
        "tail_percentile": tail_pct,
        "tail_samples": attempted,
        "tail_beyond": beyond,
        "raw_throughput_per_s": attempted / sum(ph.raw),
        "raw_latency_p50_ms": 1000 * statistics.median(ph.raw),
        "raw_latency_tail_ms": 1000 * percentile(ph.raw, tail_pct),
        "final_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, info


def edge_color_ns(lr, n_vertices: int) -> float:
    """Median ns per public edge_color call over a fixed seeded triple set."""
    rng = random.Random(1211_5800 + n_vertices)
    c = lr.core.Coloring(n_vertices, rng.getrandbits(math.comb(n_vertices, 3)))
    triples = [lr.core.TripleEdge(*sorted(rng.sample(range(n_vertices), 3))) for _ in range(4000)]
    edge_color = lr.core.edge_color
    per_call = []
    for _ in range(7):
        t0 = time.perf_counter()
        for e in triples:
            edge_color(c, e)
        per_call.append((time.perf_counter() - t0) / len(triples) * 1e9)
    return statistics.median(per_call)


def growth_exponent(rungs):
    """Least-squares slope of log(ms) against log(n)."""
    pts = [(math.log(n), math.log(ms)) for n, ms in rungs if ms > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def per_layer(lr, rec: spans.Recorder, plain: Phase, traced: Phase):
    passes = traced.passes
    c = rec.counts
    solves = c.get("extractor.solve_calls", 0)
    self_s, names = rec.summary()

    def calls(*span_names):
        return sum(names.get(n, (0, 0.0))[0] for n in span_names) / passes

    def seconds(*span_names):
        return sum(names.get(n, (0, 0.0))[1] for n in span_names) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": (self_s[layer] / passes, "s/pass") for layer in spans.LAYERS}
    m["cli.random_coloring_s"] = (seconds("cli.random_coloring"), "s/pass")
    for cmd in MAIN_COMMANDS:
        m[f"cli.main_s.{cmd}"] = (seconds(f"cli.main.{cmd}"), "s/pass")
    encodes = ("formats.encode_lrc1", "formats.encode_lre1")
    m["formats.decode_s"] = (seconds("formats.decode"), "s/pass")
    m["formats.encode_s"] = (seconds(*encodes), "s/pass")
    m["formats.calls"] = (calls(*encodes, "formats.decode"), "count/pass")
    m["formats.kbytes"] = (c.get("formats.bytes", 0) / 1000 / passes, "kB/pass")
    m["constructions.build_split_s"] = (seconds("constructions.build_split_coloring"), "s/pass")
    m["core.verify_s"] = (seconds("core.verify_witness"), "s/pass")
    m["core.verify_calls"] = (calls("core.verify_witness"), "count/pass")
    m["core.restrict_swap_s"] = (seconds("core.Coloring.restrict", "core.Coloring.swap"), "s/pass")
    m["core.edge_color_ns.N30"] = (edge_color_ns(lr, 30), "ns")
    m["core.edge_color_ns.N100"] = (edge_color_ns(lr, 100), "ns")
    m["extractor.solve_calls"] = (solves / passes, "count/pass")
    m["extractor.greedy_ratio"] = (ratio(c.get("extractor.greedy", 0), solves), "ratio")
    for key in spans.NOTE_PREFIXES:
        m[f"extractor.{key}"] = (c.get(f"extractor.{key}", 0) / passes, "count/pass")
    m["extractor.completion_ratio"] = (ratio(c.get("extractor.completions", 0), solves), "ratio")
    m["extractor.warnings"] = (c.get("extractor.warnings", 0) / passes, "count/pass")
    # the hard unflipped orientation of pp(n, n), timed in the untraced loop
    rungs = []
    for n in SPLIT1_RUNGS:
        xs = [t for t, lab in zip(plain.latency, plain.labels) if lab == f"pp{n}.a.plain.k0"]
        ms = 1000 * statistics.median(xs) if xs else 0.0
        m[f"extractor.split1_ms.n{n}"] = (ms, "ms")
        rungs.append((n, ms))
    m["extractor.growth_exponent"] = (growth_exponent(rungs), "slope")
    dfs = ("oracle.find_mono_path", "oracle.find_mono_cycle")
    from_edges = ("oracle.find_loose_path_from_edges", "oracle.find_loose_cycle_from_edges")
    m["oracle.dfs_s"] = (seconds(*dfs), "s/pass")
    m["oracle.dfs_calls"] = (calls(*dfs), "count/pass")
    m["oracle.dfs_none_ratio"] = (ratio(c.get("oracle.dfs_none", 0) / passes, calls(*dfs)), "ratio")
    m["oracle.from_edges_s"] = (seconds(*from_edges), "s/pass")
    m["oracle.from_edges_calls"] = (calls(*from_edges), "count/pass")
    # identical passes, untraced then traced
    m["trace.overhead_ratio"] = (sum(traced.latency) / sum(plain.latency[: len(traced.latency)]) - 1, "ratio")
    m["trace.spans"] = (len(rec.spans) / passes, "count/pass")
    return m


def environment():
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processes": "one; every request runs in this process",
        "LOOSERAMSEY_WORKERS": "unset",
        "load": "one client, closed loop",
        "not_controlled": "no CPU pinning, no cache dropping, host shared with other jobs",
    }


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["uniform", "adversarial", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="a few requests per workload, once")
    args = ap.parse_args(argv)

    if not (SRC / "looseramsey" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/looseramsey", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("LOOSERAMSEY_WORKERS", None)
    # completions warn once per call site; the traced run counts them instead
    warnings.simplefilter("ignore", RuntimeWarning)

    wl, setup_s, raw_setup_s = set_up(args.workload, args.seed, 1 if args.smoke else SETUP_REPEATS)
    try:
        # the traced run spends half its time untraced, as the reference
        plain = run_loop(wl, args.seconds / (2 if args.trace else 1), args.smoke)
        e2e, info = end_to_end(plain, setup_s, wl.tail_percentile)
        info["raw_setup_s"] = raw_setup_s
        phases = [plain]
        if args.trace:
            rec = spans.Recorder()
            rec.install(wl.lr)
            try:
                traced = run_loop(wl, args.seconds, args.smoke, passes=plain.passes, recorder=rec)
            finally:
                rec.uninstall()
            phases.append(traced)
            metrics = per_layer(wl.lr, rec, plain, traced)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            rec.write(out_dir / f"spans-{args.workload}.csv")
            info["absent_spans"] = rec.absent
            info["spans_file"] = f".perfbench_out/spans-{args.workload}.csv"
        else:
            metrics = e2e
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()

    attempted = sum(len(p.latency) for p in phases)
    failures = [f for p in phases for f in p.failures]
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    info.update(
        workload=args.workload,
        seed=args.seed,
        passes=plain.passes,
        requests_per_pass=len(plain.latency) // plain.passes,
        failed_ratio=len(failures) / attempted,
        witness_digest=digest(plain.witnesses),
        environment=environment(),
    )
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
