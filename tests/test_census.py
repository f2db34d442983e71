"""scripts/census.py, the deterministic split+1 census."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from looseramsey import extractor

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"


def _module():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_is_the_same_under_any_hash_seed():
    """Two fresh interpreters with different PYTHONHASHSEED print the same
    census of the 576 solves with n <= 6, with no chain cap and no error."""
    outs = []
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, str(SCRIPT), "--n-max", "6", "--json"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        assert run.returncode == 0, run.stderr
        outs.append(json.loads(run.stdout))
    assert outs[0] == outs[1]
    assert outs[0]["solves"] == 576
    assert outs[0]["chain_caps"] == outs[0]["errors"] == []


def test_census_to_ten_is_pinned():
    """The 2176 solves with n <= 10 give the same witnesses, by sha1, and
    the same completions by reason; the flipped solves among them run base
    cases and completions that the corpus does not reach."""
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--n-max", "10", "--json"], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["solves"] == 2176
    assert out["sha1"] == "fd0a408b98aa86a8740d721aee33f87e2d37f047"
    assert out["completions"] == {
        "chain leftover 2": 22, "path chain leftover 1": 24, "path chain leftover 2": 32,
    }
    assert out["chain_caps"] == out["errors"] == []


def test_a_chain_at_its_cap_fails_the_census(monkeypatch, capsys):
    census = _module()
    monkeypatch.setattr(extractor, "_CHAIN_BUDGET", 1)
    src = str(Path(extractor.__file__).resolve().parent.parent)
    monkeypatch.setattr(sys, "argv", ["census.py", "--n-max", "6", "--src", src])
    assert census.main() == 1
    out = capsys.readouterr().out
    assert "chain caps 0" not in out and "chain: node cap 1 reached" in out


def test_seeds_are_distinct_per_case():
    census = _module()
    cases = list(census.cases(12))
    assert len({census.seed_of(*case) for case in cases}) == len(cases)
