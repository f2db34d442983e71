"""Seeded request generators and output checks for the three workloads.

Each workload turns ``--seed`` into a list of requests per pass over its
request mix.  The package sees only the generated colorings and files.  A
request is executed by ``execute`` (the timed part) and judged by ``check``
(untimed), which returns None or the reason it failed.

Costs quoted below were measured with ``time.perf_counter`` on a shared
2-core x86-64 container, Python 3.11, one process.
"""

from __future__ import annotations

import contextlib
import io
import random
from math import comb
from pathlib import Path
from typing import List, Optional

KINDS = ("pp", "cc", "pncm", "pmcn")


def pair_m(kind: str, n: int) -> int:
    """The diagonal pair of a kind: m = n, or m = n - 1 for pmcn (needs n > m)."""
    return n - 1 if kind == "pmcn" else n


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def witness_line(w) -> str:
    return f"{w.color} {w.shape} " + " ".join(str(v) for v in w.structure.vertices)


def check_witness(lr, pair, coloring, color: str, shape: str, vertices) -> Optional[str]:
    """Re-verify a witness on the coloring restricted to the pair's threshold
    and check that it is the pair's red or blue target."""
    core = lr.core
    try:
        if shape == core.PATH:
            structure = core.validate_loose_path(vertices)
        elif shape == core.CYCLE:
            structure = core.validate_loose_cycle(vertices)
        else:
            return f"unknown shape {shape!r}"
    except ValueError as exc:
        return f"invalid structure: {exc}"
    restricted = coloring.restrict(lr.extractor.ramsey_number(pair))
    w = core.Witness(color, shape, structure)
    res = core.verify_witness(restricted, w)
    if not res:
        return f"verify_witness: {res.reason}"
    if color not in (core.RED, core.BLUE):
        return f"unknown color {color!r}"
    want = pair.red_target if color == core.RED else pair.blue_target
    if (shape, structure.length) != tuple(want):
        return f"{color} {shape} of length {structure.length} is not a target of {pair}"
    return None


class Uniform:
    """Stress trials as ``cli.stress`` runs them: random_coloring(N, s),
    solve, verify_witness, at the threshold of every kind with n in
    {10, 20, 40} (N = 24 to 100).  0.1-1.7 ms per trial; the greedy
    ``_fast_red`` and the color lookups do nearly all the work."""

    # p99.9 (about 30 samples beyond in a run) is set by sporadic pauses of
    # the host (1.5-3 ms from run to run), and p99 moved by 10 % over ten
    # runs.  p95, the slowest N = 100 trials, moved by about half as much.
    tail_percentile = 95.0
    trials_per_class = 4

    def __init__(self, lr, seed: int) -> None:
        self.lr, self.seed = lr, seed

    def setup(self) -> None:
        lr = self.lr
        self.classes = []
        for kind in KINDS:
            for n in (10, 20, 40):
                pair = lr.constructions.PairKind(kind, n, pair_m(kind, n))
                self.classes.append((pair, lr.extractor.ramsey_number(pair)))

    def pass_requests(self, index: int) -> List[tuple]:
        per_pass = len(self.classes) * self.trials_per_class
        reqs = []
        for i in range(per_pass):
            pair, N = self.classes[i % len(self.classes)]
            # per-trial seed as in cli.stress (seed + offset), offset unique per run
            reqs.append((pair, N, self.seed * 2**32 + index * per_pass + i))
        pass_rng(self.seed, index).shuffle(reqs)
        return reqs

    def warmup_requests(self) -> List[tuple]:
        """One trial per pair, with seeds no pass uses."""
        return [(pair, N, self.seed * 2**32 - 1 - i) for i, (pair, N) in enumerate(self.classes)]

    def smoke_requests(self) -> List[tuple]:
        return self.pass_requests(0)[: len(self.classes)]

    def execute(self, req):
        pair, N, trial_seed = req
        lr = self.lr
        c = lr.cli.random_coloring(N, trial_seed)
        w = lr.extractor.solve(pair, c)
        return c, w, bool(lr.core.verify_witness(c, w))

    def check(self, req, result) -> Optional[str]:
        c, w, verified = result
        if not verified:
            return "stress verification rejected the witness"
        return check_witness(self.lr, req[0], c, w.color, w.shape, w.structure.vertices)

    def witness(self, req, result) -> str:
        return witness_line(result[1])

    def label(self, req) -> str:
        return f"{req[0].kind}{req[0].n}"


class Adversarial:
    """Split+1 colorings at the threshold, solved in memory.

    A base is the extremal split of a pair with one extra vertex in A
    (``a+1``) or in B (``b+1``).  Each base runs in both color orientations,
    unflipped and, for n <= 8, with k in {1, 8} random triple flips drawn
    afresh for every pass.  The hard orientations (``a+1`` plain, ``b+1``
    swapped) cost 4-550 ms and grow roughly as n^4.5; the other two solve
    greedily in about 0.1 ms.  Rungs n = 10 (all kinds) and n = 12 (pp only)
    run unflipped, which keeps one pass near 3 s.
    """

    # about 2000 samples in a run, 20 beyond p99
    tail_percentile = 99.0
    flip_counts = (1, 8)

    def __init__(self, lr, seed: int) -> None:
        self.lr, self.seed = lr, seed

    def setup(self) -> None:
        lr = self.lr
        cons = lr.constructions
        self.bases = []
        for kind in KINDS:
            for n in (5, 6, 7, 8, 10, 12):
                if n == 12 and kind != "pp":
                    continue
                pair = cons.PairKind(kind, n, pair_m(kind, n))
                spec = cons.lower_bound_params(pair)
                for side, plus in (("a", cons.SplitSpec(spec.a + 1, spec.b)), ("b", cons.SplitSpec(spec.a, spec.b + 1))):
                    c = cons.build_split_coloring(plus)
                    self.bases.append((pair, side, c, c.swap()))

    def pass_requests(self, index: int) -> List[tuple]:
        rng = pass_rng(self.seed, index)
        Coloring = self.lr.core.Coloring
        reqs = []
        for pair, side, plain, swapped in self.bases:
            for orient, c in (("plain", plain), ("swapped", swapped)):
                reqs.append((pair, side, orient, 0, c))
                if pair.n > 8:
                    continue
                for k in self.flip_counts:
                    mask = 0
                    for rank in rng.sample(range(c.n_triples), k):
                        mask |= 1 << rank
                    reqs.append((pair, side, orient, k, Coloring(c.n_vertices, c.red_bits ^ mask)))
        rng.shuffle(reqs)
        return reqs

    def warmup_requests(self) -> List[tuple]:
        # unflipped only: a flipped n = 5 request may or may not run a completion
        return [r for r in self.pass_requests(-1) if r[0].n == 5 and r[3] == 0]

    def smoke_requests(self) -> List[tuple]:
        return [r for r in self.pass_requests(0) if r[0].n == 5]

    def execute(self, req):
        return self.lr.extractor.solve(req[0], req[4])

    def check(self, req, w) -> Optional[str]:
        return check_witness(self.lr, req[0], req[4], w.color, w.shape, w.structure.vertices)

    def witness(self, req, w) -> str:
        return witness_line(w)

    def label(self, req) -> str:
        pair, side, orient, k, _ = req
        return f"{pair.kind}{pair.n}.{side}.{orient}.k{k}"


# ---------------------------------------------------------------------------
# certify: the certificate life cycle through cli.main


REV4 = str.maketrans("0123456789abcdef", "084c2a6e195d3b7f")


def lrc1_text(n_vertices: int, red_bits: int) -> str:
    """LRC1 in linear time: hex digit j holds ranks 4j..4j+3, rank 4j as MSB."""
    digits = (comb(n_vertices, 3) + 3) // 4
    return f"LRC1 {n_vertices}\n" + format(red_bits, f"0{digits}x")[::-1].translate(REV4) + "\n"


def decode_bits(text: str) -> tuple:
    """(N, red bitmap) of an LRC1 or LRE1 file, independent of the package."""
    lines = text.split()
    kind, n = lines[0], int(lines[1])
    if kind == "LRC1":
        return n, int("".join(lines[2:]).translate(REV4)[::-1], 16)
    if kind != "LRE1":
        raise ValueError(f"unknown header {kind!r}")
    body = bytearray((comb(n, 3) + 7) // 8)
    vals = lines[2:]
    for i in range(0, len(vals), 3):
        a, b, c = sorted(int(v) for v in vals[i : i + 3])
        rank = comb(c, 3) + comb(b, 2) + a
        body[rank >> 3] |= 1 << (rank & 7)
    return n, int.from_bytes(body, "little")


class Certify:
    """Certificates through ``cli.main(argv)`` with stdout captured.

    Small pairs (n <= 5): ``construct`` the R-1 split coloring as LRC1 and,
    with ``--explicit``, as LRE1, then ``search`` each file for the target
    it avoids (proofs of absence, 0.004-0.45 s).  The large pair pncm(30, 30)
    (N = 74): ``construct`` both formats (LRC1 0.07 s, LRE1 0.3 s),
    ``extract`` from the split+1 coloring in an easy orientation (``b+1``
    plain; decode-bound, 0.03 s), ``verify`` the witness, and ``verify`` it
    again with its color flipped, which must be rejected.  The seed sets the
    order of the pairs.

    Left out: n = 6 searches (0.4-3.5 s each), which would leave too few
    passes in a run, and pairs at N = 99, whose LRE1 encode (1.1-2.1 s) and
    LRC1 encode (0.35-0.45 s) jitter by 25 % on the shared host and set both
    the tail and a third of the run.
    """

    # 25 requests a pass, 13-16 passes in a run: over 30 samples beyond p90.  With an
    # odd count ending in 5, p50 and p90 fall inside one request's group of
    # samples instead of between two requests' extremes.
    tail_percentile = 90.0
    small = (("pp", 4), ("pp", 5), ("cc", 5), ("pncm", 5), ("pmcn", 5))
    large = (("pncm", 30),)

    def __init__(self, lr, seed: int, workdir: Path) -> None:
        self.lr, self.seed, self.dir = lr, seed, workdir

    def setup(self) -> None:
        cons = self.lr.constructions
        self.dir.mkdir(parents=True, exist_ok=True)
        self.jobs = []
        for size, pairs in (("small", self.small), ("large", self.large)):
            for kind, n in pairs:
                pair = cons.PairKind(kind, n, pair_m(kind, n))
                spec = cons.lower_bound_params(pair)
                job = {
                    "size": size,
                    "pair": pair,
                    "args": ["--pair", kind, "-n", str(n), "-m", str(pair.m)],
                    "stem": str(self.dir / f"{kind}{n}"),
                    "expected": (spec.n_vertices, cons.build_split_coloring(spec).red_bits),
                }
                if size == "large":
                    plus = cons.build_split_coloring(cons.SplitSpec(spec.a, spec.b + 1))
                    job["plus"] = plus
                    Path(f"{job['stem']}.plus.lrc").write_text(lrc1_text(plus.n_vertices, plus.red_bits))
                self.jobs.append(job)

    def _job_requests(self, job) -> List[tuple]:
        pair, stem, args = job["pair"], job["stem"], job["args"]
        state = {"witness": None}
        reqs = [
            (job, state, "construct", ["construct", *args, "--out", f"{stem}.lrc"]),
            (job, state, "construct", ["construct", *args, "--explicit", "--out", f"{stem}.lre"]),
        ]
        if job["size"] == "small":
            for color, target, fmt in (("red", pair.short_target, "lrc"), ("blue", pair.long_target, "lre")):
                shape, length = target
                reqs.append((job, state, "search", ["search", "--file", f"{stem}.{fmt}", "--color", color,
                                                    "--shape", shape, "--length", str(length)]))
        else:
            plus = f"{stem}.plus.lrc"
            reqs.append((job, state, "extract", ["extract", "--file", plus, *args]))
            for command in ("verify", "reject"):
                reqs.append((job, state, command, ["verify", "--file", plus, "--witness"]))
        return reqs

    def pass_requests(self, index: int) -> List[tuple]:
        jobs = list(self.jobs)
        pass_rng(self.seed, index).shuffle(jobs)
        return [req for job in jobs for req in self._job_requests(job)]

    def warmup_requests(self) -> List[tuple]:
        return self._job_requests(self.jobs[0])

    def smoke_requests(self) -> List[tuple]:
        first_large = next(j for j in self.jobs if j["size"] == "large")
        return self._job_requests(self.jobs[0]) + self._job_requests(first_large)

    def execute(self, req):
        job, state, command, argv = req
        if command in ("verify", "reject"):
            color, rest = (state["witness"] or "red path 0 1 2").split(" ", 1)
            if command == "reject":
                color = "blue" if color == "red" else "red"
            argv = argv + [f"{color} {rest}"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = self.lr.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()

    def check(self, req, result) -> Optional[str]:
        job, state, command, argv = req
        rc, out = result
        out = out.strip()
        if command == "construct":
            if rc != 0:
                return f"construct exited {rc}"
            if decode_bits(Path(argv[-1]).read_text()) != job["expected"]:
                return f"{argv[-1]} does not decode to the split coloring"
            return None
        if command == "search":
            return None if rc == 1 and out == "none" else f"search gave exit {rc}, output {out!r}"
        if command == "verify":
            return None if rc == 0 and out == "ok" else f"verify gave exit {rc}, output {out!r}"
        if command == "reject":
            ok = rc == 1 and out.startswith("invalid")
            return None if ok else f"verify of a recolored witness gave exit {rc}, output {out!r}"
        if rc != 0:
            return f"extract exited {rc}"
        parts = out.splitlines()[-1].split() if out else []
        try:
            vertices = [int(v) for v in parts[2:]]
        except ValueError:
            vertices = []
        if len(vertices) < 3:
            return f"extract printed {out!r}"
        state["witness"] = " ".join(parts)
        return check_witness(self.lr, job["pair"], job["plus"], parts[0], parts[1], vertices)

    def witness(self, req, result) -> str:
        return result[1].strip() if req[2] == "extract" else ""

    def label(self, req) -> str:
        job, state, command, argv = req
        name = f"{command}.{job['pair'].kind}{job['pair'].n}"
        if command == "construct":
            return f"{name}.{argv[-1].rsplit('.', 1)[-1]}"
        if command == "search":
            return f"{name}.{argv[4]}"
        return name

    def cleanup(self) -> None:
        for path in self.dir.glob("*"):
            path.unlink()
        self.dir.rmdir()
