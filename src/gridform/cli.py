"""Command-line front end: run, analyze, gen, fuzz."""

from __future__ import annotations

import argparse
import json
import random
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
        try:
            p = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise CliError(f"{source}:{lineno}: non-integer coordinate in {raw!r}")
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
               "from": list(ev.pos_before)}
        if ev.pos_after is not None:
            rec["to"] = list(ev.pos_after)
        if ev.phase is not None:
            rec["phase"] = ev.phase
        if ev.snapshot_index is not None:
            rec["snapshot"] = ev.snapshot_index
        out.write(json.dumps(rec) + "\n")


def _cell(rec: dict, field: str) -> Point:
    """``rec[field]`` as a cell: a JSON list of exactly two ints."""
    cell = tuple(rec[field])
    if len(cell) != 2 or not all(type(v) is int for v in cell):
        raise ValueError(f"{field!r} is not two ints: {rec[field]!r}")
    return cell


def read_trace(lines: Iterable[str]) -> list[scheduler.Event]:
    """The events of a JSONL trace. A line that ``write_trace`` could not
    have written, an index out of the sequence 0, 1, 2, ... included,
    raises ``ValueError``."""
    events = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            ev = scheduler.Event(
                index=rec["index"], robot=rec["robot"], kind=rec["kind"],
                pos_before=_cell(rec, "from"),
                pos_after=_cell(rec, "to") if "to" in rec else None,
                phase=rec.get("phase"),
                snapshot_index=rec.get("snapshot"),
            )
            if type(ev.index) is not int or ev.index != len(events):
                raise ValueError(f"index {ev.index!r}, not {len(events)}")
            if type(ev.robot) is not int:
                raise ValueError(f"robot {ev.robot!r} is not an int")
            if ev.kind not in (scheduler.LOOK, scheduler.MOVE):
                raise ValueError(f"unknown kind {ev.kind!r}")
            if ev.phase not in (None, *verify.PHASE_EDGES):
                raise ValueError(f"unknown phase {ev.phase!r}")
            s = ev.snapshot_index
            if s is not None and not (type(s) is int and 0 <= s < ev.index):
                raise ValueError(f"snapshot {s!r} is not an earlier index")
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
    rows = []
    for y in range(y1, y0 - 1, -1):
        row = []
        for x in range(x0, x1 + 1):
            p = (x, y)
            if p == head:
                row.append("H")
            elif p == tail:
                row.append("T")
            elif p in points:
                row.append("R")
            elif targets and p in targets:
                row.append("x")
            else:
                row.append("·")
        rows.append(" ".join(row))
    return "\n".join(rows)


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


def cmd_run(args) -> int:
    _at_least_one(args.max_events, "--max-events")
    config = load_config(args.config)
    raw_target = load_config(args.target)
    if len(config) != len(raw_target):
        raise CliError(
            f"{len(config)} robots but {len(raw_target)} target points"
        )
    target = canonicalize_target(raw_target)
    fairness = 4 * len(config) if args.fairness is None else args.fairness
    if fairness < 2 * len(config):
        raise CliError(f"--fairness must be at least 2k = {2 * len(config)} "
                       "(one full round)")
    adversary = scheduler.make_adversary(args.adversary, fairness, args.seed)
    try:  # a bad path fails before the simulation, not after it
        trace_out = open(args.trace, "w") if args.trace else nullcontext()
    except OSError as exc:
        raise CliError(str(exc)) from None
    with trace_out:
        t0 = time.perf_counter()
        outcome = scheduler.run(config, target, adversary,
                                max_events=args.max_events)
        elapsed = time.perf_counter() - t0
        if args.trace:
            write_trace(outcome.trace, trace_out)
    report = {
        "outcome": outcome.kind,
        "fault": outcome.fault,
        "detail": outcome.detail,
        "events": outcome.events_used,
        "final": sorted(list(p) for p in outcome.final),
        "verdicts": _verdicts(outcome, target),
        "adversary": args.adversary,
        "seed": args.seed,
        "fairness_window": fairness,
        "wall_time_s": round(elapsed, 6),
    }
    print(json.dumps(report, indent=2))
    if args.render:  # the final configuration in canonical coordinates
        frames = canonical_frames(outcome.final)
        final = decode(to_frame_coords(outcome.final, frames), frames.spec[3])
        print(render_ascii(frozenset(final), targets=target.points))
    return _OUTCOME_EXIT[outcome.kind]


def _dir_name(d: Point) -> str:
    names = {(1, 0): "+x", (-1, 0): "-x", (0, 1): "+y", (0, -1): "-y"}
    return names.get(d, str(d))


def cmd_analyze(args) -> int:
    config = load_config(args.config)
    x0, y0, x1, y1 = bounding_rect(config)
    area = (x1 - x0 + 1) * (y1 - y0 + 1)
    strings = corner_strings(config) if area <= MAX_CELLS else []
    print(f"points: {len(config)}")
    for (corner, x_row, y_row, short_len), bits in strings:
        short = _dir_name(y_row) if short_len > 1 else "?"
        print(f"corner {corner} short {short} long {_dir_name(x_row)}: {bits}")
    bits = [b for _, b in strings]
    if bits:
        print(f"maximal string: {max(bits)}")
    else:
        print(f"corner strings not shown: {area} cells, over {MAX_CELLS}")
    frames = canonical_frames(config)
    if len(frames) == 1:
        print("asymmetric: yes")
    elif not bits:
        print(f"symmetric ({len(frames)} maximal strings)")
    else:
        dupes = sorted({b for b in bits if bits.count(b) > 1})
        print(f"symmetric (duplicate strings: {', '.join(dupes)})")
    line = collinear(config)
    for f in frames:
        print(f"frame: origin {f.inverse().apply((0, 0))} "
              f"x_dir {_dir_name((f.a, f.b))} y_dir "
              f"{'UNDETERMINED' if line else _dir_name((f.c, f.d))}")
    key, short_len = to_frame_coords(config, frames), frames.spec[3]
    if len(config) >= 2:  # the first and last robot in scan order
        head, tail = map(frames[0].inverse().apply,
                         decode((key[0], key[-1]), short_len))
        print(f"head: {head}")
        print(f"tail: {tail}")
    if args.target:
        raw_target = load_config(args.target)
        if len(raw_target) != len(config):
            raise CliError("configuration and target sizes differ")
        target = canonicalize_target(raw_target)
        if len(config) == 1:
            print("phase: DONE")  # one robot is always formed
        elif len(frames) == 1:
            cv = evaluate_conditions(key, short_len, target)
            for i in range(8):
                print(f"C{i}: {cv[i]}")
            c_prime = decode(key[:-1], short_len)
            print(f"C8: {has_horizontal_reflection(c_prime)}")
            print(f"m={cv.m} n={cv.n} M={target.M} N={target.N} "
                  f"H={cv.H} V={cv.V}")
            print(f"phase: {classify_phase(cv)}")
        else:
            print("phase: n/a (symmetric configuration)")
    if args.render:
        h, t = (head, tail) if len(config) >= 2 else (None, None)
        print(render_ascii(config, head=h, tail=t))
    return EXIT_OK


def _check_box(k: int, box: int):
    if k > max(box, 0) ** 2:
        raise CliError(f"--box {box} has fewer than k = {k} cells")


def _asymmetric_config(k: int, box: int, rng: random.Random) -> frozenset:
    try:
        return random_asymmetric_config(k, box, rng)
    except RuntimeError as exc:
        raise CliError(str(exc)) from None


def cmd_gen(args) -> int:
    if args.k < 3:
        raise CliError("--k must be at least 3 (smaller swarms are symmetric)")
    _at_least_one(args.count, "--count")
    _check_box(args.k, args.box)
    rng = random.Random(args.seed)
    outdir = Path(args.out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            c = _asymmetric_config(args.k, args.box, rng)
            path = outdir / f"config_k{args.k}_s{args.seed}_{i:03d}.txt"
            path.write_text(f"# asymmetric, k={args.k}, box={args.box}\n"
                            + format_config(c))
            print(path)
    except OSError as exc:
        raise CliError(str(exc)) from None
    return EXIT_OK


def cmd_fuzz(args) -> int:
    if args.k_min < 3:
        raise CliError("k range must start at 3 or above")
    if args.k_min > args.k_max:
        raise CliError(f"k range {args.k_range} is empty")
    _at_least_one(args.runs, "--runs")
    _at_least_one(args.max_events, "--max-events")
    _check_box(args.k_max, args.box)
    rng = random.Random(args.seed)
    kinds = tuple(scheduler.ADVERSARIES)
    failures = []
    results = []
    for i in range(args.runs):
        k = rng.randint(args.k_min, args.k_max)
        config = _asymmetric_config(k, args.box, rng)
        target = canonicalize_target(random_points(k, args.box, rng))
        kind = kinds[i % len(kinds)]
        adversary = scheduler.make_adversary(kind, 4 * k, rng.randrange(2**32))
        outcome = scheduler.run(config, target, adversary,
                                max_events=args.max_events)
        checks = _verdicts(outcome, target)
        ok = outcome.kind == "FORMED" and all(checks.values())
        results.append(ok)
        if not ok:
            failures.append({
                "run": i, "k": k, "adversary": kind,
                "outcome": outcome.kind, "fault": outcome.fault,
                "detail": outcome.detail, "verdicts": checks,
                "config": sorted(list(p) for p in config),
                "target": sorted(list(p) for p in target.points),
            })
    print(json.dumps({
        "runs": args.runs,
        "formed": sum(results),
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
    pr.add_argument("--fairness", type=int, default=None,
                    help="fairness window W (default 4k)")
    pr.add_argument("--max-events", type=int, default=100_000)
    pr.add_argument("--trace", help="write the event trace to this file")
    pr.add_argument("--render", action="store_true")
    pr.set_defaults(func=cmd_run)

    pa = sub.add_parser("analyze", help="print strings, frames, conditions")
    pa.add_argument("--config", required=True)
    pa.add_argument("--target")
    pa.add_argument("--render", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("gen", help="generate asymmetric configurations")
    pg.add_argument("--k", type=int, required=True)
    pg.add_argument("--box", type=int, default=12)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--count", type=int, default=1)
    pg.add_argument("--out-dir", default=".")
    pg.set_defaults(func=cmd_gen)

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
    if args.command == "fuzz":
        try:
            lo, hi = args.k_range.split("..")
            args.k_min, args.k_max = int(lo), int(hi)
        except ValueError:
            print(f"error: bad --k-range {args.k_range!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
