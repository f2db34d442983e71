"""Command-line interface: seeded randomness, stress reports, subcommands."""

import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import looseramsey
import looseramsey.cli as cli
from looseramsey.cli import PRNG_NAME, StressReport, _parser, main, random_coloring, stress
from looseramsey.constructions import CC, PMCN, PNCM, PP, PairKind
from looseramsey.core import BLUE, RED, Coloring
from looseramsey.extractor import ramsey_number
from looseramsey.formats import FormatError, decode, encode_lre1


class TestRandomColoring:
    def test_deterministic(self):
        assert random_coloring(8, 42) == random_coloring(8, 42)

    def test_seed_matters(self):
        assert random_coloring(8, 1) != random_coloring(8, 2)

    def test_single_triple(self):
        c = random_coloring(3, 0)
        assert c.red_bits in (0, 1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            random_coloring(2, 0)


class TestStress:
    def test_counts_add_up(self):
        rep = stress(PairKind(PP, 3, 3), trials=50, seed=7)
        assert rep.witnesses_verified + len(rep.failures) == rep.trials == 50
        assert rep.ok and rep.witnesses_verified == 50
        assert rep.N == 8 and rep.seed == 7

    def test_report_stable_apart_from_wall_time(self):
        a = stress(PairKind(CC, 4, 4), trials=20, seed=3)
        b = stress(PairKind(CC, 4, 4), trials=20, seed=3)
        a.wall_time = b.wall_time = 0.0
        assert a.text() == b.text()
        assert a.to_json() == b.to_json()

    def test_json_fields(self):
        rep = stress(PairKind(PP, 3, 3), trials=5, seed=0)
        data = json.loads(rep.to_json())
        assert data["prng"] == PRNG_NAME
        assert data["trials"] == 5 and data["failures"] == []
        assert data["witnesses_verified"] == 5

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            stress(PairKind(PP, 3, 3), trials=0, seed=0)

    def test_negative_seed_rejected(self, capsys):
        # Random(-s) draws the stream of Random(s): seed -5 would rerun seeds 1-4
        assert random_coloring(12, -3) == random_coloring(12, 3)
        with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
            stress(PairKind(PP, 3, 3), trials=10, seed=-5)
        assert main(["stress", "--pair", "pp", "-n", "3", "-m", "3",
                     "--trials", "10", "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -5\n"

    def test_failure_report_format(self):
        rep = StressReport(pair=PairKind(PP, 3, 3), N=8, trials=1, seed=0)
        rep.failures.append((0, "boom"))
        assert not rep.ok
        assert "failure 0: boom" in rep.text()

    def test_failures_are_recorded_per_offset(self, monkeypatch, capsys):
        """A solve that raises and a witness that fails verification are each
        one failure at their own offset, in offset order, in both report
        formats, and the command exits 1."""
        pair, seed = PairKind(PP, 3, 3), 4
        N = ramsey_number(pair)
        raises = random_coloring(N, seed + 2).red_bits
        recolors = random_coloring(N, seed + 5).red_bits
        real = cli.solve

        def solve(pair, c):
            if c.red_bits == raises:
                raise RuntimeError("no witness")
            w = real(pair, c)
            if c.red_bits == recolors:  # the other colour: an edge check fails
                return dataclasses.replace(w, color=BLUE if w.color == RED else RED)
            return w

        monkeypatch.setattr(cli, "solve", solve)
        rep = stress(pair, trials=8, seed=seed)
        assert [off for off, _ in rep.failures] == [2, 5]
        assert rep.failures[0] == (2, "RuntimeError: no witness")
        assert rep.failures[1][1].startswith("verification: edge ")
        assert rep.witnesses_verified == 6 and not rep.ok
        text = rep.text()
        assert "failures: 2\nfailure 2: RuntimeError: no witness\nfailure 5: verification: " in text
        data = json.loads(rep.to_json())
        assert data["failures"] == [{"offset": o, "reason": r} for o, r in rep.failures]
        argv = ["stress", "--pair", "pp", "-n", "3", "-m", "3", "--trials", "8", "--seed", str(seed)]
        assert main(argv) == 1
        assert capsys.readouterr().out.split("wall_time")[0] == text.split("wall_time")[0]

    def test_memory_is_flat_in_the_trial_count(self):
        """Trials stream: nothing is kept per trial but a failure, so the
        traced peak over 5000 trials stays near that over 100.  A run that
        holds a job or a result per trial adds about 200 B each (1 MB)."""
        pair = PairKind(PP, 3, 3)

        def peak(trials):
            tracemalloc.start()
            try:
                assert stress(pair, trials, 0).ok
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(100)
        assert peak(5000) - small < 400 * 1024

    @pytest.mark.parametrize(
        "pair",
        [PairKind(PP, 4, 3), PairKind(CC, 4, 4), PairKind(PNCM, 4, 3), PairKind(PMCN, 4, 3)],
        ids=["pp-4-3", "cc-4-4", "pncm-4-3", "pmcn-4-3"],
    )
    def test_one_solve_per_trial_in_offset_order(self, monkeypatch, pair):
        """Trial `offset` solves random_coloring(N, seed + offset) once, in
        offset order, in this process."""
        seen = []
        real = cli.solve

        def solve(p, c):
            seen.append(c)
            return real(p, c)

        monkeypatch.setattr(cli, "solve", solve)
        rep = stress(pair, trials=6, seed=11)
        assert seen == [random_coloring(ramsey_number(pair), 11 + off) for off in range(6)]
        assert rep.ok and rep.witnesses_verified == 6

    @pytest.mark.parametrize("offset", [0, 3, 7])
    def test_a_failure_reruns_on_its_own(self, monkeypatch, offset):
        """The failure at `offset` of a run from `seed` is the failure at
        offset 0 of a one-trial run from seed + offset."""
        pair, seed = PairKind(PP, 3, 3), 20
        bad = random_coloring(ramsey_number(pair), seed + offset).red_bits
        real = cli.solve

        def solve(p, c):
            if c.red_bits == bad:
                raise RuntimeError(f"stuck on {c.red_bits:x}")
            return real(p, c)

        monkeypatch.setattr(cli, "solve", solve)
        rep = stress(pair, trials=8, seed=seed)
        assert [off for off, _ in rep.failures] == [offset]
        assert stress(pair, trials=1, seed=seed + offset).failures == [(0, rep.failures[0][1])]

    @pytest.mark.parametrize(
        "exc,reason",
        [
            (RuntimeError("no witness"), "RuntimeError: no witness"),
            (KeyError(5), "KeyError: 5"),
            (AssertionError(), "AssertionError: "),
        ],
        ids=["message", "key", "empty-message"],
    )
    def test_a_raising_solve_is_named_by_type_and_message(self, monkeypatch, exc, reason):
        def solve(p, c):
            raise type(exc)(*exc.args)

        monkeypatch.setattr(cli, "solve", solve)
        rep = stress(PairKind(PP, 3, 3), trials=3, seed=0)
        assert rep.failures == [(0, reason), (1, reason), (2, reason)]
        assert rep.witnesses_verified == 0 and not rep.ok

    def test_an_interrupt_is_not_a_failure(self, monkeypatch):
        def solve(p, c):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "solve", solve)
        with pytest.raises(KeyboardInterrupt):
            stress(PairKind(PP, 3, 3), trials=3, seed=0)

    def test_reads_no_environment_variable(self, monkeypatch):
        """A stress run looks up no variable, so the retired
        LOOSERAMSEY_WORKERS changes nothing, whatever it holds."""
        looked_up = []

        class Environ(dict):
            def __getitem__(self, key):
                looked_up.append(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                looked_up.append(key)
                return super().get(key, default)

            def __contains__(self, key):
                looked_up.append(key)
                return super().__contains__(key)

        monkeypatch.setattr(os, "environ", Environ(os.environ, LOOSERAMSEY_WORKERS="abc"))
        rep = stress(PairKind(PP, 3, 3), trials=4, seed=0)
        assert rep.ok and rep.witnesses_verified == 4
        assert looked_up == []


class TestMain:
    def test_ramsey(self, capsys):
        assert main(["ramsey", "--pair", "pp", "-n", "3", "-m", "3"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_construct_stdout_decodes(self, capsys):
        assert main(["construct", "--pair", "cc", "-n", "3", "-m", "3"]) == 0
        c = decode(capsys.readouterr().out)
        assert c.n_vertices == ramsey_number(PairKind(CC, 3, 3)) - 1

    def test_construct_explicit_to_file(self, tmp_path, capsys):
        out = tmp_path / "c.lre"
        assert main(["construct", "--pair", "pp", "-n", "3", "-m", "3",
                     "--explicit", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("LRE1 7")
        assert decode(text).n_vertices == 7

    def test_extract_and_verify_round_trip(self, tmp_path, capsys):
        f = tmp_path / "c.lrc"
        main(["construct", "--pair", "pp", "-n", "4", "-m", "3",
              "--out", str(f)])
        # the certificate has R-1 vertices; extraction needs the threshold
        c = decode(f.read_text())
        big = Coloring(c.n_vertices + 1, c.red_bits)
        f.write_text(encode_lre1(big))
        assert main(["extract", "--file", str(f), "--pair", "pp",
                     "-n", "4", "-m", "3"]) == 0
        witness_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(["verify", "--file", str(f), "--witness", witness_line]) == 0
        assert "ok" in capsys.readouterr().out

    def test_extract_trace(self, tmp_path, capsys):
        f = tmp_path / "c.lrc"
        f.write_text("LRC1 8\n" + "f" * 14)
        assert main(["extract", "--file", str(f), "--pair", "pp",
                     "-n", "3", "-m", "3", "--trace"]) == 0
        out = capsys.readouterr().out
        assert any(line.startswith("#") for line in out.splitlines())

    def test_verify_on_sparse_lre1_with_huge_n(self, tmp_path, capsys):
        f = tmp_path / "c.lre"
        f.write_text("LRE1 100000\n0 1 2\n")
        assert main(["verify", "--file", str(f), "--witness", "red path 0 1 2"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "ok\n"
        assert "Traceback" not in captured.err

    def test_verify_rejects_bad_witness(self, tmp_path, capsys):
        f = tmp_path / "c.lrc"
        f.write_text("LRC1 7\n000000000")
        assert main(["verify", "--file", str(f),
                     "--witness", "red path 0 1 2 3 4"]) == 1

    def test_search_exit_codes(self, tmp_path, capsys):
        f = tmp_path / "c.lrc"
        f.write_text("LRC1 7\n" + "f" * 8 + "e")  # all 35 triples red
        assert main(["search", "--file", str(f), "--color", "red",
                     "--shape", "path", "--length", "3"]) == 0
        assert main(["search", "--file", str(f), "--color", "blue",
                     "--shape", "path", "--length", "2"]) == 1

    def test_enumerate_count(self, capsys):
        assert main(["enumerate", "-N", "5", "--red-target", "cycle", "3",
                     "--blue-target", "cycle", "3", "--mode", "count"]) == 0
        assert capsys.readouterr().out.strip().isdigit()

    def test_extract_reads_stdin(self, monkeypatch, capsys):
        c = random_coloring(8, 1)
        monkeypatch.setattr("sys.stdin", io.StringIO(encode_lre1(c)))
        assert main(["extract", "--file", "-", "--pair", "pp", "-n", "3", "-m", "3"]) == 0
        assert capsys.readouterr().out == "red path 0 1 2 3 5 6 7\n"

    def test_enumerate_none(self, capsys):
        # every 3-uniform coloring of K3_5 has a red or a blue edge
        assert main(["enumerate", "-N", "5", "--red-target", "path", "1",
                     "--blue-target", "path", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "none\n" and captured.err == ""

    def test_enumerate_find_one(self, capsys):
        rc = main(["enumerate", "-N", "6", "--red-target", "cycle", "3",
                   "--blue-target", "cycle", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert decode(out).n_vertices == 6

    def test_stress_json(self, capsys):
        assert main(["stress", "--pair", "pp", "-n", "3", "-m", "3",
                     "--trials", "10", "--seed", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["witnesses_verified"] == 10

    def test_calls_share_no_state(self, tmp_path, capsys):
        """The argument tree is built once; each call still gets its own
        options, exit code and output."""
        with pytest.raises(SystemExit) as exc:
            main(["ramsey", "--pair", "pp", "-n", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "-m" in captured.err and captured.out == ""
        assert main(["ramsey", "--pair", "pp", "-n", "3", "-m", "3"]) == 0
        assert capsys.readouterr().out.strip() == "8"
        f = tmp_path / "c.lrc"
        f.write_text("LRC1 7\n" + "f" * 8 + "e")  # all 35 triples red
        assert main(["search", "--file", str(f), "--color", "blue",
                     "--shape", "path", "--length", "2"]) == 1
        assert capsys.readouterr().out.strip() == "none"
        assert main(["construct", "--pair", "cc", "-n", "3", "-m", "3", "--explicit"]) == 0
        assert capsys.readouterr().out.startswith("LRE1 ")
        assert main(["construct", "--pair", "cc", "-n", "3", "-m", "3"]) == 0
        assert capsys.readouterr().out.startswith("LRC1 ")


PP3 = ["construct", "--pair", "pp", "-n", "3", "-m", "3"]
PNCM30_LRE1 = ["construct", "--pair", "pncm", "-n", "30", "-m", "30", "--explicit"]


class TestOutFile:
    """`construct --out` writes the bytes that `construct` prints, over
    longer and shorter files alike; a failed step exits 2 with one `error:`
    line and leaves a file that decode rejects."""

    @pytest.mark.parametrize("first,second", [(PNCM30_LRE1, PP3), (PP3, PNCM30_LRE1)],
                             ids=["short-over-long", "long-over-short"])
    def test_overwrite_is_the_stdout_bytes(self, tmp_path, capsys, first, second):
        out = tmp_path / "c.txt"
        for argv in (first, second):
            assert main(argv) == 0
            printed = capsys.readouterr().out.encode()
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == printed

    @pytest.mark.parametrize("step", ["ftruncate", "pwrite"])
    @pytest.mark.parametrize("explicit", [[], ["--explicit"]], ids=["LRC1", "LRE1"])
    def test_a_failed_step_leaves_a_rejected_file(self, tmp_path, capsys, monkeypatch, step, explicit):
        out = tmp_path / "c.txt"
        assert main(PNCM30_LRE1 + ["--out", str(out)]) == 0

        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, step, fail)
        assert main(PP3 + explicit + ["--out", str(out)]) == 2
        TestUsageErrors._one_error_line(capsys, "No space left on device")
        with pytest.raises(FormatError):
            decode(out.read_text())

    def test_a_short_write_is_an_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "c.txt"
        monkeypatch.setattr(os, "pwritev", lambda fd, bufs, off: os.pwrite(fd, bufs[0], off))
        assert main(PP3 + ["--out", str(out)]) == 2
        TestUsageErrors._one_error_line(capsys, "short write", repr(str(out)))
        with pytest.raises(FormatError):
            decode(out.read_text())

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null(self, capsys):
        # a device refuses ftruncate, so it gets one sequential write
        assert main(PP3 + ["--out", "/dev/null"]) == 0
        captured = capsys.readouterr()
        assert captured.out == captured.err == ""


class TestSingleParse:
    """main hands a known command's words to that command's parser alone;
    only an argv that names no command goes through the whole tree."""

    ARGVS = [
        ["construct", "--pair", "pp", "-n", "3", "-m", "3"],
        ["construct", "--pair=cc", "-n3", "-m", "4", "--explicit", "--out", "c.lre"],
        ["construct", "--pa", "pncm", "-n=5", "-m5", "--ex", "--out=c.lrc"],
        ["extract", "--file", "-", "--pair", "pp", "-n", "3", "-m", "3"],
        ["extract", "--fi=c.lrc", "--pa=cc", "-n4", "-m", "4", "--trace"],
        ["search", "--file", "c.lrc", "--color", "red", "--shape", "path", "--length", "3"],
        ["search", "--fi=c.lre", "--col", "blue", "--sh=cycle", "--len", "4"],
        ["enumerate", "-N", "5", "--red-target", "path", "2", "--blue-target", "cycle", "3"],
        ["enumerate", "-N5", "--red", "cycle", "3", "--blu", "path", "2", "--mode=count"],
        ["verify", "--file", "c.lrc", "--witness", "red path 0 1 2"],
        ["verify", "--wit=blue cycle 0 1 2 3 4 5", "--fi", "c.lrc"],
        ["ramsey", "--pair", "pp", "-n", "3", "-m", "3"],
        ["ramsey", "-m3", "-n=4", "--pa=pmcn"],
        ["stress", "--pair", "pp", "-n", "3", "-m", "3"],
        ["stress", "--pa", "cc", "-n", "4", "-m4", "--trials=5", "--se", "-5", "--json"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) for a in ARGVS])
    def test_same_namespace_as_the_whole_tree(self, monkeypatch, argv):
        parse = argparse.ArgumentParser.parse_args
        seen = []

        def record(parser, args=None, namespace=None):
            seen.append((parser, parse(parser, args, namespace)))
            return argparse.Namespace(func=lambda _: 0)  # the command does not run

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", record)
        assert main(argv) == 0
        top, commands = _parser()
        (parser, ns), = seen
        assert parser is commands[argv[0]]
        whole = vars(parse(top, argv))
        assert whole.pop("command") == argv[0]
        assert vars(ns) == whole

    def test_well_formed_commands_skip_the_top_level_parser(self, monkeypatch, tmp_path, capsys):
        top, _ = _parser()
        calls = []
        parse = top.parse_args
        monkeypatch.setattr(top, "parse_args", lambda *a: calls.append(a) or parse(*a))
        f = tmp_path / "c.lrc"
        assert main(["construct", "--pair", "pp", "-n", "3", "-m", "3", "--out", str(f)]) == 0
        assert main(["search", "--file", str(f), "--color", "red", "--shape", "path",
                     "--length", "3"]) == 1
        assert main(["ramsey", "--pair", "pp", "-n", "3", "-m", "3"]) == 0
        assert main(["enumerate", "-N", "5", "--red-target", "path", "1",
                     "--blue-target", "path", "1"]) == 1
        assert calls == []
        with pytest.raises(SystemExit):
            main(["bogus"])
        assert calls == [(["bogus"],)]

    @pytest.mark.parametrize(
        "argv,code",
        [
            ([], 2),
            (["bogus"], 2),
            (["ramsey", "--pair", "pp", "-n", "3"], 2),
            (["-h"], 0),
            (["ramsey", "-h"], 0),
        ],
        ids=["empty", "unknown-command", "missing-m", "help", "command-help"],
    )
    def test_exit_codes(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code

    def test_unrecognized_option_names_the_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ramsey", "--pair", "pp", "-n", "3", "-m", "3", "--bogus"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        usage, error = captured.err.strip().splitlines()
        assert usage.startswith("usage: loose-ramsey ramsey ")
        assert error == "loose-ramsey ramsey: error: unrecognized arguments: --bogus"
        assert captured.out == ""

    def test_none_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["loose-ramsey", "ramsey", "--pair", "pp", "-n", "3", "-m", "3"])
        assert main() == 0
        assert capsys.readouterr().out == "8\n"


class TestUsageErrors:
    """Malformed files and invalid parameters: one `error:` line on stderr,
    exit 2, no traceback."""

    @staticmethod
    def _one_error_line(capsys, *needles):
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err and captured.out == ""
        for needle in needles:
            assert needle in lines[0]

    @pytest.mark.parametrize(
        "body,needle",
        [
            ("LRX1 7\n000000000", "unrecognized header"),
            ("LRC1 7\n00000000g", "bad hex digit"),
            ("LRC1 7\n00", "expected 9 hex digits"),
        ],
        ids=["bad-header", "bad-hex-digit", "wrong-digit-count"],
    )
    def test_malformed_file(self, tmp_path, capsys, body, needle):
        f = tmp_path / "c.lrc"
        f.write_text(body)
        assert main(["verify", "--file", str(f),
                     "--witness", "red path 0 1 2 3 4"]) == 2
        self._one_error_line(capsys, needle)

    @pytest.mark.parametrize(
        "witness,needle",
        [
            ("red path 0 1", "witness needs color, shape and vertices: 'red path 0 1'"),
            ("green path 0 1 2", "unknown color 'green'"),
            ("red path 0 1 x", "--witness vertex must be an integer, got 'x'"),
        ],
        ids=["too-few-vertices", "unknown-color", "vertex-not-an-integer"],
    )
    def test_malformed_witness(self, tmp_path, capsys, witness, needle):
        f = tmp_path / "c.lrc"
        f.write_text("LRC1 7\n000000000")
        assert main(["verify", "--file", str(f), "--witness", witness]) == 2
        self._one_error_line(capsys, needle)

    @pytest.mark.parametrize("side", ["red", "blue"])
    def test_enumerate_length_not_an_integer(self, capsys, side):
        targets = {"red": ["path", "1"], "blue": ["path", "1"]}
        targets[side] = ["path", "x"]
        assert main(["enumerate", "-N", "4", "--red-target", *targets["red"],
                     "--blue-target", *targets["blue"]]) == 2
        self._one_error_line(capsys, f"--{side}-target length must be an integer, got 'x'")

    def test_invalid_pair(self, capsys):
        assert main(["ramsey", "--pair", "pmcn", "-n", "3", "-m", "4"]) == 2
        self._one_error_line(capsys, "pmcn", "n > m")

    def test_coloring_below_threshold(self, tmp_path, capsys):
        f = tmp_path / "c.lrc"
        f.write_text("LRC1 7\n000000000")
        assert main(["extract", "--file", str(f), "--pair", "pp",
                     "-n", "3", "-m", "3"]) == 2
        self._one_error_line(capsys, "need at least 8 vertices")

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "--pair", "pp", "-n", "3", "-m", "3"],
            ["search", "--color", "red", "--shape", "path", "--length", "2"],
            ["verify", "--witness", "red path 0 1 2 3 4"],
        ],
        ids=["extract", "search", "verify"],
    )
    def test_missing_file(self, tmp_path, capsys, argv):
        missing = tmp_path / "absent.lrc"
        assert main(argv + ["--file", str(missing)]) == 2
        self._one_error_line(capsys, "No such file", str(missing))

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "c.lrc"
        assert main(["construct", "--pair", "pp", "-n", "3", "-m", "3",
                     "--out", str(out)]) == 2
        self._one_error_line(capsys, "No such file", str(out))
        assert not out.parent.exists()

    def test_empty_out(self, capsys):
        assert main(["construct", "--pair", "pp", "-n", "3", "-m", "3", "--out", ""]) == 2
        self._one_error_line(capsys, "No such file or directory: ''")

    def test_out_is_a_directory(self, tmp_path, capsys):
        assert main(["construct", "--pair", "pp", "-n", "3", "-m", "3",
                     "--out", str(tmp_path)]) == 2
        self._one_error_line(capsys, "Is a directory", str(tmp_path))

    def test_coloring_too_large_to_hold(self, tmp_path, capsys):
        # the bitmap for rank C(10^8, 3) - 1 cannot even be sized, so this
        # fails before allocating anything
        f = tmp_path / "c.lre"
        f.write_text("LRE1 100000000\n5 99999999 7\n")
        assert main(["verify", "--file", str(f), "--witness", "red path 0 1 2"]) == 2
        self._one_error_line(capsys, "too large", "OverflowError")

    def test_search_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # the oracle's search recurses once per target edge; under a limit
        # about 25 frames above this test a path of 5 edges fits and one of
        # 30 does not
        f = tmp_path / "c.lre"
        f.write_text(encode_lre1(Coloring(61, 0).swap()))
        argv = ["search", "--file", str(f), "--color", "red", "--shape", "path", "--length"]
        assert main([*argv, "5"]) == 0  # first-use imports and caches, under the usual limit
        capsys.readouterr()
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 25)
        try:
            short = main([*argv, "5"])
            short_out = capsys.readouterr().out
            long = main([*argv, "30"])
        finally:
            sys.setrecursionlimit(limit)
        assert short == 0 and short_out.startswith("red path 0 1 2")
        assert long == 2
        self._one_error_line(capsys, "recursion limit")

    def test_enumerate_unknown_shape(self, capsys):
        assert main(["enumerate", "-N", "6", "--red-target", "foo", "3",
                     "--blue-target", "cycle", "3"]) == 2
        self._one_error_line(capsys, "unknown target shape 'foo'")

    @pytest.mark.parametrize(
        "target,needle",
        [
            (["path", "-1"], "path target length -1 out of range: a path needs length >= 1"),
            (["path", "0"], "path target length 0 out of range: a path needs length >= 1"),
            (["cycle", "2"], "cycle target length 2 out of range: a cycle needs length >= 3"),
        ],
        ids=["path-negative", "path-zero", "cycle-two"],
    )
    def test_enumerate_target_length_out_of_range(self, capsys, target, needle):
        assert main(["enumerate", "-N", "5", "--red-target", *target,
                     "--blue-target", "path", "2", "--mode", "count"]) == 2
        self._one_error_line(capsys, needle)


# Runs in a fresh interpreter: the pytest process may hold numpy already.
_NUMPY_ON_DEMAND = textwrap.dedent("""
    import importlib, pkgutil, sys
    import looseramsey
    for info in pkgutil.iter_modules(looseramsey.__path__):
        importlib.import_module(f"looseramsey.{info.name}")
    from looseramsey.cli import main

    def run(*argv):
        return main(list(argv))

    assert run("ramsey", "--pair", "pp", "-n", "8", "-m", "8") == 0
    assert run("construct", "--pair", "pp", "-n", "8", "-m", "8", "--out", "s.lrc") == 0
    assert run("construct", "--pair", "pp", "-n", "5", "-m", "5", "--explicit", "--out", "c.lre") == 0
    assert run("verify", "--file", "c.lre", "--witness", "red path 0 1 10 2 3") == 0
    assert run("search", "--file", "c.lre", "--color", "red", "--shape", "path", "--length", "5") == 1
    assert run("stress", "--pair", "pp", "-n", "20", "-m", "20", "--trials", "20") == 0
    assert "numpy" not in sys.modules, "numpy loaded without a table of 14+ vertices"

    from looseramsey.constructions import PairKind, SplitSpec, build_split_coloring, lower_bound_params
    from looseramsey.core import verify_witness
    from looseramsey.extractor import solve

    pair = PairKind("pp", 10, 10)
    spec = lower_bound_params(pair)
    c = build_split_coloring(SplitSpec(spec.a + 1, spec.b))
    w = solve(pair, c)
    assert "numpy" in sys.modules, "a table of 25 vertices built without numpy"
    assert verify_witness(c, w)
""")


def test_numpy_loads_only_for_a_table_of_14_vertices_or_more(tmp_path):
    src = str(Path(looseramsey.__file__).resolve().parent.parent)
    # a bare environment: nothing from the caller's variables reaches the child
    done = subprocess.run([sys.executable, "-c", _NUMPY_ON_DEMAND], cwd=tmp_path, capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr


# Runs in a fresh interpreter: pytest itself may hold multiprocessing already.
_NO_PROCESS_POOL = textwrap.dedent("""
    import importlib, pkgutil, sys
    import looseramsey
    for info in pkgutil.iter_modules(looseramsey.__path__):
        importlib.import_module(f"looseramsey.{info.name}")
    from looseramsey.cli import main

    assert main(["stress", "--pair", "pp", "-n", "10", "-m", "10", "--trials", "5"]) == 0
    assert "multiprocessing" not in sys.modules, "the package loaded multiprocessing"
""")


def test_stress_runs_its_trials_without_multiprocessing(tmp_path):
    src = str(Path(looseramsey.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", _NO_PROCESS_POOL], cwd=tmp_path, capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
