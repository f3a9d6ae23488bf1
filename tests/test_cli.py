import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gridform.cli import (
    EXIT_FAULT,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_USAGE,
    MAX_CELLS,
    CliError,
    build_parser,
    format_config,
    main,
    parse_config,
    read_trace,
    render_ascii,
    write_trace,
)
from gridform import scheduler, verify
from gridform.algorithm import RuleViolation, plan_moves
from gridform.canonical import canonical_frames
from gridform.sampling import random_points
from gridform.scheduler import make_adversary, run
from gridform.target import canonicalize_target

from conftest import REF11, REF11_HEAD, REF11_STRING, REF11_TAIL, LINE11


@pytest.fixture
def broken_rule(monkeypatch):
    def broken(points, target):
        raise RuleViolation("cell below the head is occupied")

    monkeypatch.setattr(scheduler, "plan_moves", broken)


@pytest.fixture
def broken_verifier(monkeypatch):
    def broken(trace):
        v = verify.Verdict()
        v.flag(0, "edge", "a transition the diagram lacks")
        return v

    monkeypatch.setattr(verify, "check_phase_transitions", broken)


@pytest.fixture
def ref11_file(tmp_path):
    path = tmp_path / "ref11.txt"
    path.write_text(format_config(REF11))
    return str(path)


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text(format_config(LINE11))
    return str(path)


class TestConfigIO:
    def test_round_trip(self):
        assert parse_config(format_config(REF11)) == REF11

    def test_comments_and_blanks(self):
        text = "# heading\n\n1 2   # trailing\n 3 4 \n"
        assert parse_config(text) == {(1, 2), (3, 4)}

    def test_negative_coordinates(self):
        assert parse_config("-1 -2\n") == {(-1, -2)}

    def test_duplicate_rejected(self):
        with pytest.raises(CliError, match="duplicate"):
            parse_config("1 1\n1 1\n")

    def test_bad_arity_rejected(self):
        with pytest.raises(CliError, match="expected 'x y'"):
            parse_config("1 2 3\n")

    def test_non_integer_rejected(self):
        for text in ("1 two\n", "1_0 2\n", "\u0663 4\n"):
            with pytest.raises(CliError, match="non-integer"):
                parse_config(text)

    def test_empty_rejected(self):
        with pytest.raises(CliError, match="no points"):
            parse_config("# nothing\n")

    def test_format_is_sorted(self):
        assert format_config({(2, 0), (0, 1)}) == "0 1\n2 0\n"


class TestTraceIO:
    def test_round_trip(self):
        for kind in scheduler.ADVERSARIES:
            out = run(REF11, canonicalize_target(LINE11),
                      make_adversary(kind, 44, seed=5))
            buf = io.StringIO()
            write_trace(out.trace, buf)
            assert read_trace(buf.getvalue().splitlines()) == out.trace, kind

    def test_lines_are_json(self):
        buf = io.StringIO()
        out = run(REF11, canonicalize_target(LINE11),
                  make_adversary("round_robin", 44), max_events=4)
        write_trace(out.trace, buf)
        for line in buf.getvalue().splitlines():
            rec = json.loads(line)
            assert {"index", "robot", "kind", "from"} <= set(rec)

    def test_exact_lines(self):
        """Key order, cells as arrays, and no key for a field that is None:
        a symmetric stop's LOOK has no phase."""
        buf = io.StringIO()
        out = run(REF11, canonicalize_target(LINE11),
                  make_adversary("round_robin", 44), max_events=4)
        write_trace(out.trace, buf)
        write_trace([scheduler.Event(0, 2, scheduler.LOOK, (3, -1))], buf)
        assert buf.getvalue().splitlines() == [
            '{"index": 0, "robot": 0, "kind": "LOOK_COMPUTE", "from": [0, 1], '
            '"phase": "P1"}',
            '{"index": 1, "robot": 0, "kind": "MOVE", "from": [0, 1], '
            '"to": [0, 1], "snapshot": 0}',
            '{"index": 2, "robot": 1, "kind": "LOOK_COMPUTE", "from": [0, 3], '
            '"phase": "P1"}',
            '{"index": 3, "robot": 1, "kind": "MOVE", "from": [0, 3], '
            '"to": [0, 3], "snapshot": 2}',
            '{"index": 0, "robot": 2, "kind": "LOOK_COMPUTE", "from": [3, -1]}',
        ]


class TestRenderAscii:
    @pytest.mark.parametrize("points, head, tail, targets, art", [
        ({(0, 0), (1, 1)}, (0, 0), (1, 1), None, "· T\nH ·"),
        ({(0, 0), (1, 1)}, (0, 0), (0, 0), None, "· R\nH ·"),
        ({(0, 0)}, None, None, {(0, 0), (1, 0)}, "R x"),
        ({(0, 0), (1, 0)}, (0, 0), None, {(0, 0), (0, 1)}, "x ·\nH R"),
    ], ids=["distinct", "head-over-tail", "robot-over-target",
            "head-over-target"])
    def test_tiny_grid(self, points, head, tail, targets, art):
        assert render_ascii(frozenset(points), head=head, tail=tail,
                            targets=targets and frozenset(targets)) == art

    def test_targets_marked(self):
        art = render_ascii(frozenset({(0, 0)}), targets=frozenset({(1, 0)}))
        assert art == "R x"


    def test_a_box_past_the_cap_is_one_line(self):
        art = render_ascii(frozenset({(0, 0), (MAX_CELLS, 0)}))
        assert art == f"picture not shown: {MAX_CELLS + 1} cells, " \
            f"over {MAX_CELLS}"


class TestFarOffDiagnostics:
    """The pictures and corner strings cost O(area); a far-off or wide
    configuration still finishes at once."""

    FAR = {(100000, 100000), (100001, 100000), (100000, 100002),
           (100003, 100001)}
    TARGET = {(0, 0), (1, 0), (2, 0), (0, 1)}

    def _main(self, tmp_path, argv, **files):
        for name, points in files.items():
            (tmp_path / f"{name}.txt").write_text(format_config(points))
        argv = [str(tmp_path / f"{a}.txt") if a in files else a
                for a in argv]
        start = time.perf_counter()
        rc = main(argv)
        assert time.perf_counter() - start < 1.0
        return rc

    def test_run_render_draws_the_canonical_image(self, tmp_path, capsys):
        assert self._main(tmp_path, ["run", "--config", "c", "--target", "t",
                                     "--render"],
                          c=self.FAR, t=self.TARGET) == EXIT_OK
        # formed: the image is the target, so no target cell is left free
        assert capsys.readouterr().out.splitlines()[-2:] == ["R · ·",
                                                             "R R R"]

    def test_run_render_marks_free_target_cells(self, tmp_path, capsys):
        assert self._main(tmp_path, ["run", "--config", "c", "--target", "t",
                                     "--max-events", "1", "--render"],
                          c=self.FAR, t=self.TARGET) == EXIT_LIMIT
        picture = capsys.readouterr().out.split("}\n")[-1]
        assert "x" in picture and len(picture.splitlines()) <= 4

    def test_analyze_render_past_the_cap(self, tmp_path, capsys):
        config = {(0, 0), (3000000, 0), (5, 7)}
        assert self._main(tmp_path, ["analyze", "--config", "c", "--target",
                                     "t", "--render"],
                          c=config, t={(0, 0), (1, 0), (0, 1)}) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        area = 3000001 * 8
        assert out[1] == f"corner strings not shown: {area} cells, " \
            f"over {MAX_CELLS}"
        assert "asymmetric: yes" in out and "phase: P3" in out
        assert out[-1] == f"picture not shown: {area} cells, over {MAX_CELLS}"

    def test_analyze_symmetric_past_the_cap(self, tmp_path, capsys):
        assert self._main(tmp_path, ["analyze", "--config", "c"],
                          c={(0, 0), (3000000, 0)}) == EXIT_OK
        assert "symmetric (2 maximal strings)" in \
            capsys.readouterr().out.splitlines()


class TestRunCommand:
    def test_formed_exit_zero(self, ref11_file, line_file, capsys):
        rc = main(["run", "--config", ref11_file, "--target", line_file,
                   "--adversary", "round_robin"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "FORMED"
        assert report["verdicts"] == {
            "collision_free": True, "phase_transitions": True, "formed": True,
        }

    def test_limit_exit_two(self, ref11_file, line_file, capsys):
        rc = main(["run", "--config", ref11_file, "--target", line_file,
                   "--adversary", "round_robin", "--max-events", "22"])
        assert rc == EXIT_LIMIT
        assert json.loads(capsys.readouterr().out)["outcome"] == "LIMIT_EXCEEDED"

    def test_symmetric_input_exit_three(self, tmp_path, line_file, capsys):
        bad = tmp_path / "sym.txt"
        bad.write_text(format_config({(i, 0) for i in range(11)}))
        rc = main(["run", "--config", str(bad), "--target", line_file])
        assert rc == EXIT_FAULT
        report = json.loads(capsys.readouterr().out)
        assert report["fault"] == "symmetric-input"

    def test_trace_file_written(self, ref11_file, line_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        rc = main(["run", "--config", ref11_file, "--target", line_file,
                   "--adversary", "round_robin", "--trace", str(trace_path)])
        assert rc == EXIT_OK
        events = read_trace(trace_path.read_text().splitlines())
        report = json.loads(capsys.readouterr().out)
        assert len(events) == report["events"]

    def test_rule_violation_reported_as_fault(self, ref11_file, line_file,
                                              broken_rule, capsys):
        rc = main(["run", "--config", ref11_file, "--target", line_file])
        assert rc == EXIT_FAULT
        report = json.loads(capsys.readouterr().out)
        assert report["fault"] == "internal"
        assert report["detail"] == "cell below the head is occupied"

    def test_failed_verdict_exit_three(self, ref11_file, line_file,
                                       broken_verifier, capsys):
        rc = main(["run", "--config", ref11_file, "--target", line_file,
                   "--adversary", "round_robin"])
        assert rc == EXIT_FAULT
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "FORMED"
        assert report["verdicts"]["phase_transitions"] is False

    def test_every_adversary_name_is_accepted(self, ref11_file, line_file,
                                              capsys):
        for kind in scheduler.ADVERSARIES:
            rc = main(["run", "--config", ref11_file, "--target", line_file,
                       "--adversary", kind, "--max-events", "2"])
            assert rc == EXIT_LIMIT

    def test_no_fairness_option(self, ref11_file, line_file, capsys):
        """The adversaries read no window: ``run`` passes 4k, as every
        other caller does, and neither takes nor reports one."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", ref11_file, "--target", line_file,
                  "--fairness", "8"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --fairness 8" in (
            capsys.readouterr().err)
        assert main(["run", "--config", ref11_file, "--target", line_file,
                     "--max-events", "2"]) == EXIT_LIMIT
        assert "fairness_window" not in json.loads(capsys.readouterr().out)

    def test_size_mismatch_usage_error(self, ref11_file, tmp_path, capsys):
        small = tmp_path / "small.txt"
        small.write_text("0 0\n")
        rc = main(["run", "--config", ref11_file, "--target", str(small)])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_events_below_one_usage_error(self, ref11_file, line_file,
                                              value, capsys):
        rc = main(["run", "--config", ref11_file, "--target", line_file,
                   "--max-events", value])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --max-events must be at least 1" in captured.err

    def test_trace_into_missing_directory_usage_error(self, ref11_file,
                                                      line_file, tmp_path,
                                                      capsys):
        missing = tmp_path / "no-such-dir" / "trace.jsonl"
        rc = main(["run", "--config", ref11_file, "--target", line_file,
                   "--trace", str(missing)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before the simulation
        assert "error:" in captured.err and "no-such-dir" in captured.err


    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_trace_write_error_usage_error(self, ref11_file, line_file,
                                           capsys):
        rc = main(["run", "--config", ref11_file, "--target", line_file,
                   "--trace", "/dev/full"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # the report follows the trace
        assert captured.err == "error: [Errno 28] No space left on device\n"


class TestAnalyzeCommand:
    def test_ref11_report(self, ref11_file, line_file, capsys):
        rc = main(["analyze", "--config", ref11_file, "--target", line_file])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert f"maximal string: {REF11_STRING}" in out
        assert "asymmetric: yes" in out
        assert f"head: {REF11_HEAD}" in out
        assert f"tail: {REF11_TAIL}" in out
        assert "phase: P1" in out
        assert "m=6 n=8 M=1 N=11 H=7 V=6" in out

    @pytest.mark.parametrize("config, target, bits, sizes, phase", [
        (REF11, LINE11, "FFFTFFFFF", "m=6 n=8 M=1 N=11 H=7 V=6", "P1"),
        # phase 3 whose C' = {(0,0), (0,1), (0,2)} is mirrored about y = 1
        ({(0, 0), (0, 1), (0, 2), (5, 0)}, {(0, 0), (0, 1), (1, 0), (2, 1)},
         "FFFTTTFFT", "m=3 n=6 M=2 N=3 H=1 V=3", "P3"),
        # two canonical frames, read off their one key as plan_moves reads it
        ({(0, 1), (2, 0), (2, 1), (2, 2), (3, 1)},
         {(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)},
         "FFFFFFFFT", "m=3 n=4 M=3 N=3 H=2 V=3", "P1"),
    ], ids=["ref11-line11", "p3-reflected", "p1-symmetric"])
    def test_condition_lines_are_pinned(self, tmp_path, capsys, config,
                                        target, bits, sizes, phase):
        config_path, target_path = tmp_path / "c.txt", tmp_path / "t.txt"
        config_path.write_text(format_config(config))
        target_path.write_text(format_config(target))
        assert main(["analyze", "--config", str(config_path),
                     "--target", str(target_path)]) == EXIT_OK
        expected = ([f"C{i}: {b == 'T'}" for i, b in enumerate(bits)]
                    + [sizes, f"phase: {phase}"])
        assert capsys.readouterr().out.splitlines()[-11:] == expected

    def test_symmetric_config(self, tmp_path, capsys):
        path = tmp_path / "sym.txt"
        path.write_text("0 0\n1 0\n")
        rc = main(["analyze", "--config", str(path)])
        assert rc == EXIT_OK
        assert "symmetric (2 maximal strings)" in \
            capsys.readouterr().out.splitlines()

    def test_single_robot_is_formed(self, tmp_path, capsys):
        """One robot is asymmetric and always formed."""
        config_path, target_path = tmp_path / "one.txt", tmp_path / "t.txt"
        config_path.write_text("3 -2\n")
        target_path.write_text("0 5\n")
        assert main(["analyze", "--config", str(config_path),
                     "--target", str(target_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "asymmetric: yes" in out
        assert [line for line in out if line.startswith("phase:")] == [
            "phase: DONE"]

    @pytest.mark.parametrize("points", [
        "0 0\n1 0\n", "0 0\n2 0\n2 2\n0 2\n"], ids=["pair", "square"])
    def test_symmetric_self_target_is_done(self, tmp_path, capsys, points):
        """A configuration with several frames is read off its one key."""
        config_path, target_path = tmp_path / "c.txt", tmp_path / "t.txt"
        config_path.write_text(points)
        target_path.write_text(points)
        assert main(["analyze", "--config", str(config_path),
                     "--target", str(target_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "C0: True" in out
        assert out[-1] == "phase: DONE"

    def test_phase_agrees_with_the_planner_on_several_frames(self, tmp_path,
                                                             capsys):
        config_path, target_path = tmp_path / "c.txt", tmp_path / "t.txt"
        rng = random.Random(20261021)
        cases = moved = 0
        while cases < 200:
            k = rng.randint(4, 7)
            config = random_points(k, 4, rng)
            if len(canonical_frames(config)) < 2:
                continue
            target = canonicalize_target(random_points(k, 4, rng))
            try:
                plan = plan_moves(config, target)
            except RuleViolation:
                continue
            config_path.write_text(format_config(config))
            target_path.write_text(format_config(target.points))
            assert main(["analyze", "--config", str(config_path),
                         "--target", str(target_path)]) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            assert [line for line in out if line.startswith("phase:")] == [
                f"phase: {plan.phase}"], (config, target.points)
            cases += 1
            moved += bool(plan.moves)
        assert moved > 0

    def test_missing_file(self, capsys):
        rc = main(["analyze", "--config", "/nonexistent/x.txt"])
        assert rc == EXIT_USAGE

    def test_size_mismatch_usage_error_before_any_output(self, ref11_file,
                                                         tmp_path, capsys):
        small = tmp_path / "small.txt"
        small.write_text("0 0\n1 0\n0 2\n")
        assert main(["analyze", "--config", ref11_file, "--target",
                     str(small), "--render"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 11 robots but 3 target points\n"

    @pytest.mark.parametrize("points, frames", [
        ("0 0\n1 0\n3 0\n",
         ["frame: origin (0, 0) x_dir +x y_dir UNDETERMINED"]),
        ("2 0\n2 1\n2 3\n",
         ["frame: origin (2, 0) x_dir +y y_dir UNDETERMINED"]),
        ("3 -2\n",
         ["frame: origin (3, -2) x_dir +x y_dir UNDETERMINED"]),
        ("0 0\n0 1\n1 1\n",  # the 2x2 L-tromino: two maximal strings
         ["frame: origin (0, 1) x_dir -y y_dir +x",
          "frame: origin (0, 1) x_dir +x y_dir -y"]),
    ], ids=["horizontal", "vertical", "point", "tromino"])
    def test_frame_lines(self, tmp_path, capsys, points, frames):
        path = tmp_path / "c.txt"
        path.write_text(points)
        assert main(["analyze", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("frame:")] == frames


class TestFileEncoding:
    """Input files are read as UTF-8, with or without a byte order mark,
    whatever the locale; any other bytes are a usage error naming the
    file, not a traceback."""

    CASES = pytest.mark.parametrize("argv, points", [
        (["run", "--config", "{}", "--target", "{line}",
          "--adversary", "round_robin"], REF11),
        (["run", "--config", "{ref11}", "--target", "{}",
          "--adversary", "round_robin"], LINE11),
        (["analyze", "--config", "{}"], REF11),
    ], ids=["run-config", "run-target", "analyze-config"])

    @staticmethod
    def _main(argv, path, ref11_file, line_file):
        """``main`` with ``{}`` in ``argv`` as the encoded file."""
        return main([a.format(path, ref11=ref11_file, line=line_file)
                     for a in argv])

    @CASES
    def test_byte_order_mark_is_skipped(self, tmp_path, ref11_file, line_file,
                                        capsys, argv, points):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + format_config(points).encode())
        assert self._main(argv, path, ref11_file, line_file) == EXIT_OK
        assert capsys.readouterr().err == ""

    @CASES
    def test_non_utf8_file_is_a_usage_error(self, tmp_path, ref11_file,
                                            line_file, capsys, argv, points):
        path = tmp_path / "latin1.txt"
        path.write_bytes(("# caf\xe9\n" + format_config(points))
                         .encode("latin-1"))
        assert self._main(argv, path, ref11_file, line_file) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "can't decode byte 0xe9" in err


class TestFuzzCommand:
    def test_small_batch_all_formed(self, capsys):
        rc = main(["fuzz", "--runs", "6", "--k-range", "3..5", "--box", "8",
                   "--seed", "1"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["runs"] == 6
        assert report["formed"] == 6
        assert report["failures"] == []

    def test_rule_violation_does_not_abort_the_batch(self, broken_rule, capsys):
        rc = main(["fuzz", "--runs", "3", "--k-range", "3..4", "--box", "6"])
        assert rc == EXIT_FAULT
        report = json.loads(capsys.readouterr().out)
        assert report["formed"] == 0
        assert [f["run"] for f in report["failures"]] == [0, 1, 2]
        assert {f["detail"] for f in report["failures"]} == {
            "cell below the head is occupied"}

    def test_formed_counts_runs_that_fail_a_verdict(self, broken_verifier,
                                                    capsys):
        rc = main(["fuzz", "--runs", "3", "--k-range", "3..4", "--box", "6"])
        assert rc == EXIT_FAULT
        report = json.loads(capsys.readouterr().out)
        assert report["formed"] == 3
        assert [f["run"] for f in report["failures"]] == [0, 1, 2]
        assert {f["outcome"] for f in report["failures"]} == {"FORMED"}
        assert {f["verdicts"]["phase_transitions"]
                for f in report["failures"]} == {False}

    def test_bad_range_usage_error(self, capsys):
        for k_range in ["oops", "3..", "3..4..5", "3-5"]:
            rc = main(["fuzz", "--runs", "1", "--k-range", k_range])
            assert rc == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"error: bad --k-range {k_range!r}\n")

    def test_range_below_three_usage_error(self, capsys):
        assert main(["fuzz", "--runs", "1", "--k-range", "2..5"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: k range must start at 3 or above\n")

    def test_empty_range_usage_error(self, capsys):
        assert main(["fuzz", "--runs", "1", "--k-range", "5..3"]) == EXIT_USAGE
        assert "error: k range 5..3 is empty" in capsys.readouterr().err

    def test_box_too_small_usage_error(self, capsys):
        rc = main(["fuzz", "--runs", "1", "--k-range", "3..30", "--box", "4"])
        assert rc == EXIT_USAGE
        assert "error: --box 4 has fewer than k = 30 cells" in (
            capsys.readouterr().err)

    def test_no_asymmetric_configuration_usage_error(self, capsys):
        # the only 9 cells of a 3x3 box form a symmetric square
        rc = main(["fuzz", "--runs", "1", "--k-range", "9..9", "--box", "3"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no asymmetric 9-point set found in a 3x3 box\n")


    @pytest.mark.parametrize("flag", ["--runs", "--max-events"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_count_flag_below_one_usage_error(self, flag, value, capsys):
        args = {"--runs": "2", "--max-events": "1000", flag: value}
        rc = main(["fuzz", "--k-range", "3..4", "--box", "6",
                   *(item for pair in args.items() for item in pair)])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} must be at least 1" in captured.err


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_adversary_choice(self, ref11_file, line_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", ref11_file, "--target", line_file,
                  "--adversary", "psychic"])
        assert exc.value.code == EXIT_USAGE


class TestReadmeExamples:
    def test_cli_examples_parse(self):
        """Each ``gridform`` command in README's CLI block, its ``\\``
        continuations joined, names a command and options that exist."""
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        block = text.split("```sh\n", 1)[1].split("\n```", 1)[0]
        commands = [shlex.split(line) for line in
                    block.replace("\\\n", " ").splitlines()
                    if line.startswith("gridform ")]
        assert commands
        for argv in commands:
            build_parser().parse_args(argv[1:])


class TestExitStatus:
    """The documented statuses as a shell sees them, through the module's
    ``__main__`` guard: 0 formed, 1 usage or a report that cannot be
    written, 2 limit."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def gridform(self, *argv, stdout=subprocess.PIPE, unbuffered=False,
                 **popen):
        path = os.pathsep.join(filter(None, [str(self.SRC),
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1")
        if not unbuffered:
            del env["PYTHONUNBUFFERED"]
        return subprocess.run([sys.executable, "-m", "gridform.cli", *argv],
                              stdout=stdout, stderr=subprocess.PIPE,
                              text=True, timeout=60, env=env, **popen)

    @pytest.mark.parametrize("extra, status", [
        ([], EXIT_OK), (["--max-events", "22"], EXIT_LIMIT),
        (["--fairness", "8"], EXIT_USAGE), (["--max-events", "0"], EXIT_USAGE),
    ], ids=["formed", "limit", "unknown option", "bad value"])
    def test_run(self, ref11_file, line_file, extra, status):
        done = self.gridform("run", "--config", ref11_file, "--target",
                             line_file, "--adversary", "round_robin", *extra)
        assert done.returncode == status, done.stderr
        if status == EXIT_USAGE:
            assert done.stdout == "" and "error: " in done.stderr
        else:
            outcome = {EXIT_OK: "FORMED", EXIT_LIMIT: "LIMIT_EXCEEDED"}
            assert json.loads(done.stdout)["outcome"] == outcome[status]

    COMMANDS = ["run", "analyze", "fuzz"]

    def _argv(self, command, config, target):
        return {"run": ["run", "--config", config, "--target", target],
                "analyze": ["analyze", "--config", config, "--target", target],
                "fuzz": ["fuzz", "--runs", "3", "--k-range", "3..4",
                         "--box", "5"]}[command]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_full_stdout_usage_error(self, ref11_file, line_file, command,
                                     unbuffered):
        with open("/dev/full", "w") as full:
            done = self.gridform(*self._argv(command, ref11_file, line_file),
                                 stdout=full, unbuffered=unbuffered)
        assert done.returncode == EXIT_USAGE
        assert done.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_closed_pipe_is_quiet(self, ref11_file, line_file, command,
                                  unbuffered):
        """A reader that stops early (``| head -1``) ends the command with
        no traceback and no message."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self.gridform(*self._argv(command, ref11_file, line_file),
                                 stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_USAGE
        assert done.stderr == ""

    def test_closed_stdout_descriptor_is_ignored(self, ref11_file):
        """With fd 1 closed there is no ``sys.stdout``, and ``print``
        writes nothing: the command runs as it would, with no message."""
        done = self.gridform("analyze", "--config", ref11_file, stdout=None,
                             preexec_fn=lambda: os.close(1))
        assert done.returncode == EXIT_OK
        assert done.stderr == ""
