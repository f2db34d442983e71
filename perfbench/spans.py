"""Span recorder for the traced benchmark run.

Spans are recorded around calls into the public functions of each package
module (the layers), by replacing the module attributes that bind those
functions.  A function imported into several modules (``find_mono_path`` is
bound in ``oracle``, ``extractor`` and ``cli``) is replaced in each of them.
Spans stay in memory until the run ends.  A name that a later version of the
package no longer has is reported as absent and skipped.
"""

from __future__ import annotations

import csv
import functools
import time
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "formats", "constructions", "core", "extractor", "oracle")

# (layer, attribute path in that layer's module).  "Coloring.restrict" is a
# method of a class defined in core.
WRAPPED = (
    ("cli", "main"),
    ("cli", "random_coloring"),
    ("formats", "decode"),
    ("formats", "encode_lrc1"),
    ("formats", "encode_lre1"),
    ("constructions", "build_split_coloring"),
    ("constructions", "lower_bound_params"),
    ("core", "verify_witness"),
    ("core", "Coloring.restrict"),
    ("core", "Coloring.swap"),
    ("extractor", "solve"),
    ("oracle", "find_mono_path"),
    ("oracle", "find_mono_cycle"),
    ("oracle", "find_loose_path_from_edges"),
    ("oracle", "find_loose_cycle_from_edges"),
)

# Outcome notes that solve(trace=[...]) writes, by counter.  Every cycle step
# notes how it opened; a path step notes its outcome, except when a
# replacement move alone reaches the target length, which it does silently.
NOTE_PREFIXES = {
    "base_cases": ("base case ",),
    "cycle_steps": (
        "opened cycle:",
        "cycle boundary entirely blue; assembling blue target directly",
    ),
    "path_steps": (
        "red path extended to target length",
        "completion search (path chain leftover",
        "closing candidate accepted:",
        "closing candidate red cycle; converting",
    ),
    "chain_leftovers": ("chain: leftover",),
    "completions": ("completion search (",),
}


class Recorder:
    """Records nested spans; each span is [name, layer, start, end, parent,
    request, child_time], times from time.perf_counter."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request = -1
        self.paused = False
        self.counts: Dict[str, float] = {}
        self.absent: List[str] = []
        self._restore: List[tuple] = []

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def pause(self):
        """Calls made by the benchmark's own checks record no spans."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def _wrap(self, name: str, layer: str, fn: Callable, after: Optional[Callable]):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            span = [name, layer, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.request, 0.0]
            rec.spans.append(span)
            rec.stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                rec.stack.pop()
                if span[4] >= 0:
                    rec.spans[span[4]][6] += span[3] - span[2]
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Replace every binding of the WRAPPED names in the package's modules."""
        modules = [getattr(package, layer, None) for layer in LAYERS]
        modules = [m for m in modules if m is not None] + [package]
        for layer, path in WRAPPED:
            home = getattr(package, layer, None)
            owner, attr = home, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{layer}.{path}")
                continue
            name = f"{layer}.{path}"
            if path == "main":
                wrapper = self._wrap_main(fn)
            elif path == "solve":
                wrapper = self._wrap_solve(fn)
            else:
                wrapper = self._wrap(name, layer, fn, AFTER.get(path))
            targets = [owner] if owner is not home else [m for m in modules if getattr(m, attr, None) is fn]
            for target in targets:
                self._restore.append((target, attr, fn))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._restore):
            setattr(target, attr, fn)
        self._restore.clear()

    def _wrap_main(self, fn: Callable) -> Callable:
        """cli.main, with the command as part of the span name."""
        spans = {}

        @functools.wraps(fn)
        def wrapper(argv=None):
            command = argv[0] if argv else "?"
            if command not in spans:
                spans[command] = self._wrap(f"cli.main.{command}", "cli", fn, None)
            return spans[command](argv)

        return wrapper

    def _wrap_solve(self, fn: Callable) -> Callable:
        """extractor.solve, with its trace list and RuntimeWarnings counted.

        A caller that passes no trace list gets one supplied; solve only
        appends to it, so the witness is unchanged.
        """
        inner = self._wrap("extractor.solve", "extractor", fn, None)

        @functools.wraps(fn)
        def wrapper(pair, coloring, trace=None):
            if self.paused:
                return fn(pair, coloring, trace)
            notes = [] if trace is None else trace
            start = len(notes)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                result = inner(pair, coloring, notes)
            self.add("extractor.solve_calls")
            self.add("extractor.warnings", sum(issubclass(w.category, RuntimeWarning) for w in caught))
            new = notes[start:]
            if len(new) == 1 and new[0].endswith("red target built greedily"):
                self.add("extractor.greedy")
            for key, prefixes in NOTE_PREFIXES.items():
                self.add(f"extractor.{key}", sum(line.startswith(prefixes) for line in new))
            return result

        return wrapper

    def summary(self):
        """(self time per layer: span time minus child span time,
        {span name: (calls, total time)})."""
        self_s = {layer: 0.0 for layer in LAYERS}
        names: Dict[str, list] = {}
        for name, layer, start, end, _parent, _req, child in self.spans:
            self_s[layer] += (end - start) - child
            entry = names.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
        return self_s, names

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "layer", "start_s", "end_s", "parent", "request", "child_s"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[0], s[1], f"{s[2]:.9f}", f"{s[3]:.9f}", s[4], s[5], f"{s[6]:.9f}"])


def _after_dfs(rec: Recorder, args, kwargs, result) -> None:
    if result is None:
        rec.add("oracle.dfs_none")


def _after_encode(rec: Recorder, args, kwargs, result) -> None:
    rec.add("formats.bytes", len(result))


def _after_decode(rec: Recorder, args, kwargs, result) -> None:
    text = args[0] if args else kwargs["text"]
    rec.add("formats.bytes", len(text))


AFTER = {
    "find_mono_path": _after_dfs,
    "find_mono_cycle": _after_dfs,
    "encode_lrc1": _after_encode,
    "encode_lre1": _after_encode,
    "decode": _after_decode,
}
