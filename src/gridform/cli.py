"""Command-line front end: run, analyze, fuzz."""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Iterable, Optional, TextIO

from . import scheduler, verify
from .canonical import (canonical_frames, collinear, corner_strings, decode,
                        to_frame_coords)
from .conditions import (classify_phase, evaluate_conditions,
                         has_horizontal_reflection)
from .geometry import Point, bounding_rect
from .sampling import random_asymmetric_config, random_points
from .target import canonicalize_target

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LIMIT = 2
EXIT_FAULT = 3

#: Pictures and dense corner strings cost O(area): past this many cells of
#: the bounding box a one-line note stands in for them.
MAX_CELLS = 10_000

_OUTCOME_EXIT = {"FORMED": EXIT_OK, "LIMIT_EXCEEDED": EXIT_LIMIT, "FAULT": EXIT_FAULT}


class CliError(Exception):
    pass


def parse_config(text: str, source: str = "<config>") -> frozenset:
    """Parse a configuration file: '#' comments, one 'x y' pair per line."""
    points = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CliError(f"{source}:{lineno}: expected 'x y', got {raw!r}")
        if not all(re.fullmatch("[+-]?[0-9]+", v) for v in parts):
            raise CliError(f"{source}:{lineno}: non-integer coordinate in {raw!r}")
        p = (int(parts[0]), int(parts[1]))
        if p in points:
            raise CliError(f"{source}:{lineno}: duplicate point {p}")
        points.add(p)
    if not points:
        raise CliError(f"{source}: no points")
    return frozenset(points)


def format_config(points: Iterable[Point]) -> str:
    return "".join(f"{x} {y}\n" for x, y in sorted(points))


def load_config(path: str) -> frozenset:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise CliError(str(exc))
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from None
    return parse_config(text, source=path)


def write_trace(trace: Iterable[scheduler.Event], out: TextIO):
    for ev in trace:
        rec = {"index": ev.index, "robot": ev.robot, "kind": ev.kind,
               "from": ev.pos_before, "to": ev.pos_after, "phase": ev.phase,
               "snapshot": ev.snapshot_index}
        out.write(json.dumps({k: v for k, v in rec.items() if v is not None})
                  + "\n")


def _cell(rec: dict, field: str) -> Point:
    """``rec[field]`` as a cell: a JSON list of exactly two ints."""
    cell = tuple(rec[field])
    if len(cell) != 2 or not all(type(v) is int for v in cell):
        raise ValueError(f"{field!r} is not two ints: {rec[field]!r}")
    return cell


def read_trace(lines: Iterable[str]) -> list[scheduler.Event]:
    """The events of a JSONL trace. A line that ``write_trace`` could not
    have written, an index out of the sequence 0, 1, 2, ... included,
    raises ``ValueError``, as does a MOVE whose snapshot is not its robot's
    latest LOOK or is one that an earlier MOVE acted on."""
    events, unused = [], {}  # robot -> its latest LOOK, until a MOVE
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            ev = scheduler.Event(
                index=rec["index"], robot=rec["robot"], kind=rec["kind"],
                pos_before=_cell(rec, "from"),
                pos_after=(_cell(rec, "to")
                           if rec["kind"] == scheduler.MOVE else None),
                phase=rec.get("phase"),
                snapshot_index=rec.get("snapshot"),
            )
            if type(ev.index) is not int or ev.index != len(events):
                raise ValueError(f"index {ev.index!r}, not {len(events)}")
            if type(ev.robot) is not int or ev.robot < 0:
                raise ValueError(f"robot {ev.robot!r} is not an int >= 0")
            if ev.kind not in (scheduler.LOOK, scheduler.MOVE):
                raise ValueError(f"unknown kind {ev.kind!r}")
            extra = rec.keys() - {"index", "robot", "kind", "from", *(
                ("to", "snapshot") if ev.kind == scheduler.MOVE else ("phase",))}
            if extra:
                raise ValueError(f"{ev.kind} with a {min(extra)!r} field")
            if "phase" in rec and ev.phase not in tuple(verify.PHASE_EDGES):
                raise ValueError(f"unknown phase {ev.phase!r}")
            s = ev.snapshot_index
            if s is not None and not (type(s) is int and 0 <= s < ev.index):
                raise ValueError(f"snapshot {s!r} is not an earlier index")
            if ev.kind == scheduler.LOOK:
                unused[ev.robot] = ev.index
            elif unused.pop(ev.robot, -1) != s:  # -1: no such LOOK
                raise ValueError(f"snapshot {s!r} is not robot {ev.robot}'s "
                                 "latest LOOK with no MOVE yet")
            events.append(ev)
        except (KeyError, TypeError, ValueError) as exc:
            what = f"no field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"malformed trace: line {lineno}: {what}") from None
    return events


def render_ascii(points: frozenset, head: Optional[Point] = None,
                 tail: Optional[Point] = None,
                 targets: Optional[frozenset] = None) -> str:
    """Diagnostic grid picture: robots 'R', head 'H', tail 'T', target 'x'.
    A box of more than ``MAX_CELLS`` cells gets a one-line note."""
    x0, y0, x1, y1 = bounding_rect(set(points) | set(targets or ()))
    area = (x1 - x0 + 1) * (y1 - y0 + 1)
    if area > MAX_CELLS:
        return f"picture not shown: {area} cells, over {MAX_CELLS}"
    marks = {**dict.fromkeys(targets or (), "x"), **dict.fromkeys(points, "R"),
             tail: "T", head: "H"}  # a later mark wins; None is never read
    return "\n".join(" ".join(marks.get((x, y), "·")
                              for x in range(x0, x1 + 1))
                     for y in range(y1, y0 - 1, -1))


def _verdicts(outcome: scheduler.Outcome, target) -> dict:
    checks = {
        "collision_free": verify.check_collision_free(outcome.trace).passed,
        "phase_transitions": verify.check_phase_transitions(outcome.trace).passed,
    }
    if outcome.kind == "FORMED":
        checks["formed"] = verify.check_formed(outcome.final, target).passed
    return checks


def _at_least_one(value: int, flag: str):
    if value < 1:
        raise CliError(f"{flag} must be at least 1")


def _load_target(path: str, k: int):
    """The target pattern at ``path``, canonical, if it has k points."""
    raw = load_config(path)
    if len(raw) != k:
        raise CliError(f"{k} robots but {len(raw)} target points")
    return canonicalize_target(raw)


def cmd_run(args) -> int:
    _at_least_one(args.max_events, "--max-events")
    config = load_config(args.config)
    target = _load_target(args.target, len(config))
    adversary = scheduler.make_adversary(args.adversary, 4 * len(config),
                                         args.seed)
    try:  # a bad path fails before the simulation, a full disk after it
        with open(args.trace, "w") if args.trace else nullcontext() as out:
            t0 = time.perf_counter()
            outcome = scheduler.run(config, target, adversary,
                                    max_events=args.max_events)
            elapsed = time.perf_counter() - t0
            if args.trace:
                write_trace(outcome.trace, out)
    except OSError as exc:
        raise CliError(str(exc)) from None
    verdicts = _verdicts(outcome, target)
    report = {
        "outcome": outcome.kind,
        "fault": outcome.fault,
        "detail": outcome.detail,
        "events": outcome.events_used,
        "final": sorted(list(p) for p in outcome.final),
        "verdicts": verdicts,
        "adversary": args.adversary,
        "seed": args.seed,
        "wall_time_s": round(elapsed, 6),
    }
    print(json.dumps(report, indent=2))
    if args.render:  # the final configuration in canonical coordinates
        print(render_ascii(canonicalize_target(outcome.final).points,
                           targets=target.points))
    return (_OUTCOME_EXIT[outcome.kind] if all(verdicts.values())
            else EXIT_FAULT)


_DIR_NAMES = {(1, 0): "+x", (-1, 0): "-x", (0, 1): "+y", (0, -1): "-y"}


def cmd_analyze(args) -> int:
    config = load_config(args.config)
    target = args.target and _load_target(args.target, len(config))
    x0, y0, x1, y1 = bounding_rect(config)
    area = (x1 - x0 + 1) * (y1 - y0 + 1)
    strings = corner_strings(config) if area <= MAX_CELLS else []
    print(f"points: {len(config)}")
    for (corner, x_row, y_row, short_len), bits in strings:
        short = _DIR_NAMES[y_row] if short_len > 1 else "?"
        print(f"corner {corner} short {short} long {_DIR_NAMES[x_row]}: {bits}")
    if strings:
        print(f"maximal string: {max(bits for _, bits in strings)}")
    else:
        print(f"corner strings not shown: {area} cells, over {MAX_CELLS}")
    frames = canonical_frames(config)
    print("asymmetric: yes" if len(frames) == 1
          else f"symmetric ({len(frames)} maximal strings)")
    line = collinear(config)
    for f in frames:
        print(f"frame: origin {f.inverse().apply((0, 0))} "
              f"x_dir {_DIR_NAMES[f.a, f.b]} y_dir "
              f"{'UNDETERMINED' if line else _DIR_NAMES[f.c, f.d]}")
    key, short_len = to_frame_coords(config, frames), frames.spec[3]
    head = tail = None  # one robot has neither
    if len(config) >= 2:  # the first and last robot in scan order
        head, tail = map(frames[0].inverse().apply,
                         decode((key[0], key[-1]), short_len))
        print(f"head: {head}")
        print(f"tail: {tail}")
    if target and head is None:
        print("phase: DONE")  # one robot is always formed
    elif target:  # every canonical frame reads this one key
        cv = evaluate_conditions(key, short_len, target)
        for i in range(8):
            print(f"C{i}: {cv[i]}")
        c_prime = decode(key[:-1], short_len)
        print(f"C8: {has_horizontal_reflection(c_prime)}")
        print(f"m={cv.m} n={cv.n} M={target.M} N={target.N} "
              f"H={cv.H} V={cv.V}")
        print(f"phase: {classify_phase(cv)}")
    if args.render:
        print(render_ascii(config, head=head, tail=tail))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    try:
        k_min, k_max = map(int, args.k_range.split(".."))
    except ValueError:
        raise CliError(f"bad --k-range {args.k_range!r}") from None
    if k_min < 3:
        raise CliError("k range must start at 3 or above")
    if k_min > k_max:
        raise CliError(f"k range {args.k_range} is empty")
    _at_least_one(args.runs, "--runs")
    _at_least_one(args.max_events, "--max-events")
    if k_max > max(args.box, 0) ** 2:
        raise CliError(f"--box {args.box} has fewer than k = {k_max} cells")
    rng = random.Random(args.seed)
    kinds = tuple(scheduler.ADVERSARIES)
    failures, formed = [], 0
    for i in range(args.runs):
        k = rng.randint(k_min, k_max)
        try:
            config = random_asymmetric_config(k, args.box, rng)
        except RuntimeError as exc:
            raise CliError(str(exc)) from None
        target = canonicalize_target(random_points(k, args.box, rng))
        kind = kinds[i % len(kinds)]
        adversary = scheduler.make_adversary(kind, 4 * k, rng.randrange(2**32))
        outcome = scheduler.run(config, target, adversary,
                                max_events=args.max_events)
        checks = _verdicts(outcome, target)
        formed += outcome.kind == "FORMED"
        if not (outcome.kind == "FORMED" and all(checks.values())):
            failures.append({
                "run": i, "k": k, "adversary": kind,
                "outcome": outcome.kind, "fault": outcome.fault,
                "detail": outcome.detail, "verdicts": checks,
                "config": sorted(list(p) for p in config),
                "target": sorted(list(p) for p in target.points),
            })
    print(json.dumps({
        "runs": args.runs,
        "formed": formed,
        "failures": failures,
    }, indent=2))
    return EXIT_OK if not failures else EXIT_FAULT


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gridform",
                description="Pattern formation for oblivious robots on the grid")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="simulate one run")
    pr.add_argument("--config", required=True)
    pr.add_argument("--target", required=True)
    pr.add_argument("--adversary", default="random",
                    choices=list(scheduler.ADVERSARIES))
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--max-events", type=int, default=100_000)
    pr.add_argument("--trace", help="write the event trace to this file")
    pr.add_argument("--render", action="store_true")
    pr.set_defaults(func=cmd_run)

    pa = sub.add_parser("analyze", help="print strings, frames, conditions")
    pa.add_argument("--config", required=True)
    pa.add_argument("--target")
    pa.add_argument("--render", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("fuzz", help="batch random end-to-end runs")
    pf.add_argument("--runs", type=int, required=True)
    pf.add_argument("--k-range", default="3..8",
                    help="inclusive range, e.g. 3..12")
    pf.add_argument("--box", type=int, default=12)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--max-events", type=int, default=100_000)
    pf.set_defaults(func=cmd_fuzz)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout:  # None if fd 1 was closed: print writes nothing
            sys.stdout.flush()  # a full or broken stdout fails here
        return status
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # the report could not be written
        with open(os.devnull, "w") as null:  # so the flush at exit passes
            os.dup2(null.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
