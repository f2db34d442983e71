"""Command-line front end and the stress/fuzz harness.

Commands: construct, extract, search, enumerate, verify, ramsey, stress.
The stress harness draws seeded random colorings at the pair's threshold,
runs the extractor on each, re-verifies every witness, and exits nonzero
iff any trial failed, so it doubles as an acceptance gate.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

from .constructions import (
    CC,
    PMCN,
    PNCM,
    PP,
    PairKind,
    build_split_coloring,
    lower_bound_params,
)
from .core import (
    BLUE,
    CYCLE,
    PATH,
    RED,
    Coloring,
    Witness,
    validate_structure,
    verify_witness,
)
from .extractor import ramsey_number, solve
from .formats import read_coloring, write_coloring, write_file
from .oracle import exhaustive_avoidance_search, find_mono_cycle, find_mono_path

# Portable seeded PRNG: Mersenne Twister as shipped in Python's random
# module; getrandbits is platform-independent, so a seed fully determines
# the coloring everywhere.
PRNG_NAME = "mt19937-py"


def random_coloring(n_vertices: int, seed: int) -> Coloring:
    """Each triple independently red with probability 1/2, from PRNG_NAME."""
    if n_vertices < 3:
        raise ValueError(f"need at least 3 vertices, got {n_vertices}")
    bits = random.Random(seed).getrandbits(comb(n_vertices, 3))
    return Coloring(n_vertices, bits)


@dataclass
class StressReport:
    pair: PairKind
    N: int
    trials: int
    seed: int
    witnesses_verified: int = 0
    failures: List[Tuple[int, str]] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def text(self) -> str:
        lines = [
            f"pair: {self.pair}",
            f"N: {self.N}",
            f"trials: {self.trials}",
            f"seed: {self.seed}",
            f"prng: {PRNG_NAME}",
            f"witnesses_verified: {self.witnesses_verified}",
            f"failures: {len(self.failures)}",
        ]
        for off, reason in self.failures:
            lines.append(f"failure {off}: {reason}")
        lines.append(f"wall_time: {self.wall_time:.3f}s")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "pair": {"kind": self.pair.kind, "n": self.pair.n, "m": self.pair.m},
                "N": self.N,
                "trials": self.trials,
                "seed": self.seed,
                "prng": PRNG_NAME,
                "witnesses_verified": self.witnesses_verified,
                "failures": [{"offset": o, "reason": r} for o, r in self.failures],
                "wall_time": round(self.wall_time, 3),
            }
        )


def stress(pair: PairKind, trials: int, seed: int) -> StressReport:
    """Extract and re-verify a witness from `trials` seeded random colorings
    at the pair's threshold.  Trial `offset` draws from seed + offset, so a
    failure can be rerun on its own; failures are kept in offset order."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if seed < 0:  # Random(-s) draws the same stream as Random(s)
        raise ValueError(f"seed must be non-negative, got {seed}")
    N = ramsey_number(pair)
    report = StressReport(pair=pair, N=N, trials=trials, seed=seed)
    start = time.perf_counter()
    for offset in range(trials):
        c = random_coloring(N, seed + offset)
        try:
            w = solve(pair, c)
        except Exception as exc:  # a failure here refutes the threshold theorem
            report.failures.append((offset, f"{type(exc).__name__}: {exc}"))
            continue
        res = verify_witness(c, w)
        if res:
            report.witnesses_verified += 1
        else:
            report.failures.append((offset, f"verification: {res.reason}"))
    report.wall_time = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# argument plumbing


def _add_pair_args(sp) -> None:
    sp.add_argument("--pair", required=True, choices=[PP, CC, PNCM, PMCN])
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-m", type=int, required=True)


def _pair_of(args) -> PairKind:
    return PairKind(args.pair, args.n, args.m)


def _load(path: str) -> Coloring:
    if path == "-":
        return read_coloring(sys.stdin)
    with open(path) as fh:
        return read_coloring(fh)


def _int(text: str, what: str) -> int:
    """int(text), or a ValueError that names the value's option."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None


def _witness_line(w: Witness) -> str:
    return f"{w.color} {w.shape} " + " ".join(str(v) for v in w.structure.vertices)


def _parse_witness(text: str) -> Witness:
    parts = text.split()
    if len(parts) < 5:
        raise ValueError(f"witness needs color, shape and vertices: {text!r}")
    color, shape = parts[0], parts[1]
    if color not in (RED, BLUE):
        raise ValueError(f"unknown color {color!r}")
    vertices = [_int(p, "--witness vertex") for p in parts[2:]]
    return Witness(color, shape, validate_structure(shape, vertices))


def _cmd_construct(args) -> int:
    """The pair's split coloring on R - 1 vertices, to stdout, or to the
    --out file, overwritten in place by formats.write_file; an empty --out
    is a path that cannot be opened."""
    pair = _pair_of(args)
    coloring = build_split_coloring(lower_bound_params(pair))
    if args.out is not None:
        write_file(args.out, coloring, explicit=args.explicit)
    else:
        write_coloring(coloring, sys.stdout, explicit=args.explicit)
    return 0


def _cmd_extract(args) -> int:
    pair = _pair_of(args)
    coloring = _load(args.file)
    trace: Optional[List[str]] = [] if args.trace else None
    w = solve(pair, coloring, trace=trace)
    if trace:
        for line in trace:
            print(f"# {line}")
    print(_witness_line(w))
    return 0


def _cmd_search(args) -> int:
    coloring = _load(args.file)
    finder = find_mono_path if args.shape == PATH else find_mono_cycle
    w = finder(coloring, args.color, args.length)
    if w is None:
        print("none")
        return 1
    print(_witness_line(w))
    return 0


def _cmd_enumerate(args) -> int:
    red_target = (args.red_target[0], _int(args.red_target[1], "--red-target length"))
    blue_target = (args.blue_target[0], _int(args.blue_target[1], "--blue-target length"))
    result = exhaustive_avoidance_search(args.N, red_target, blue_target, mode=args.mode)
    if args.mode == "count":
        print(result)
        return 0
    if result is None:
        print("none")
        return 1
    write_coloring(result, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    coloring = _load(args.file)
    w = _parse_witness(args.witness)
    res = verify_witness(coloring, w)
    if res:
        print("ok")
        return 0
    print(f"invalid: {res.reason}")
    return 1


def _cmd_ramsey(args) -> int:
    print(ramsey_number(_pair_of(args)))
    return 0


def _cmd_stress(args) -> int:
    report = stress(_pair_of(args), args.trials, args.seed)
    print(report.to_json() if args.json else report.text())
    return 0 if report.ok else 1


@lru_cache(maxsize=None)
def _parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The argument tree, built once, and its command parsers by name: every
    parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="loose-ramsey",
        description="Certified Ramsey witnesses for 3-uniform loose paths and cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="emit the extremal split coloring of a pair")
    _add_pair_args(sp)
    sp.add_argument("--out", help="output file (default stdout)")
    sp.add_argument("--explicit", action="store_true", help="LRE1 edge list instead of LRC1")
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("extract", help="extract a verified witness from a coloring")
    sp.add_argument("--file", required=True, help="coloring file, or - for stdin")
    _add_pair_args(sp)
    sp.add_argument("--trace", action="store_true", help="log the step applied at each move")
    sp.set_defaults(func=_cmd_extract)

    sp = sub.add_parser("search", help="complete search for one monochromatic structure")
    sp.add_argument("--file", required=True)
    sp.add_argument("--color", required=True, choices=[RED, BLUE])
    sp.add_argument("--shape", required=True, choices=[PATH, CYCLE])
    sp.add_argument("--length", type=int, required=True)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("enumerate", help="iterate every coloring of a tiny K3_N")
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("--red-target", nargs=2, metavar=("SHAPE", "LENGTH"), required=True)
    sp.add_argument("--blue-target", nargs=2, metavar=("SHAPE", "LENGTH"), required=True)
    sp.add_argument("--mode", default="find-one", choices=["find-one", "count"])
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("verify", help="check a claimed witness against a coloring")
    sp.add_argument("--file", required=True)
    sp.add_argument("--witness", required=True, help='"color shape v1 v2 ..."')
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("ramsey", help="print the Ramsey number of a pair")
    _add_pair_args(sp)
    sp.set_defaults(func=_cmd_ramsey)

    sp = sub.add_parser("stress", help="seeded random-coloring fuzz of the extractor")
    _add_pair_args(sp)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true", help="machine-readable report")
    sp.set_defaults(func=_cmd_stress)
    return parser, sub.choices


def main(argv: Optional[List[str]] = None) -> int:
    # a known command goes straight to its own parser; anything else (no
    # argv, -h, an unknown name) to the whole tree, which reports it
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # unreadable files; FormatError, StructureError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:  # a coloring too large to hold
        print(f"error: input too large to hold in memory ({type(exc).__name__})", file=sys.stderr)
        return 2
    except RecursionError:  # the oracle's search recurses once per target edge
        print("error: structure too long for the interpreter's recursion limit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
