"""gridform benchmark: verified simulated runs per host second.

Users check the paper's claim (any asymmetric start forms the target with no
collision under any fair ASYNC adversary) by simulating large batches of
seeded runs and verifying each one. This benchmark does the same through the
public API, one run at a time in one process and thread (a closed loop):

    python3 perfbench/run.py --workload acceptance --seed 20260823 \\
        --seconds 40 --trace 0

Each run samples a configuration and a target with
``sampling.random_asymmetric_config``, canonicalises the target with
``target.canonicalize_target``, simulates it with ``scheduler.run`` under an
adversary from ``scheduler.make_adversary`` and checks the outcome with the
three verifiers. With ``--trace 0`` it prints the end-to-end metrics, whose
times are scaled to a reference host speed (see hostclock.py); with
``--trace 1`` it runs every run twice, untraced then traced (see tracer.py),
and prints the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostclock import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402

ADVERSARIES = ("random", "round_robin", "max_stale")
MAX_EVENTS = 100_000
SETUP_REPEATS = 6  # set-ups timed before the loop, and again after it


@dataclass(frozen=True)
class Workload:
    k_range: tuple   # robots per run, uniform and inclusive
    box: int         # start and target are sampled in a box x box grid
    seed: int        # default seed
    gate: int        # the first `gate` runs fix the digest and the counts
    tail: int        # tail percentile; at least ten runs beyond it at 40 s


WORKLOADS = {
    # The ROADMAP north star, identical to the 500-run criterion-1 fixture
    # for seed 20260823; mixed cost across canonical frames, P4 and
    # conditions.
    "acceptance": Workload((3, 12), 12, 20260823, 200, 95),
    # Tiny k in a wide box: bounding rectangles grow to hundreds of cells,
    # so the O(area) corner scan and P4 snake path dominate. Runs are long
    # and tail-heavy. An 18x18 box rather than 24x24 fits about three times
    # as many runs into a measurement, which keeps the figures steady.
    "sparse": Workload((4, 6), 18, 1, 120, 90),
    # Many robots per cell of area: each event's O(k) scheduler work and the
    # plan cache dominate; canonical frames matter least here.
    "crowd": Workload((30, 40), 8, 1, 150, 95),
}


@dataclass(frozen=True)
class RunInput:
    k: int
    config: frozenset
    target: object       # gridform.target.TargetPattern
    adversary: str
    adversary_seed: int


def load_gridform() -> dict:
    """Import gridform from the checkout's sources, afresh."""
    for name in [m for m in sys.modules if m.split(".")[0] == "gridform"]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return {name: importlib.import_module("gridform." + name)
            for name in ("sampling", "scheduler", "target", "verify",
                         "algorithm")}


def input_stream(gf: dict, wl: Workload, seed: int):
    """Seeded inputs; the same draws, in the same order, as the criterion-1
    fixture and ``gridform fuzz``."""
    rng = random.Random(seed)
    sampling, target = gf["sampling"], gf["target"]
    i = 0
    while True:
        k = rng.randint(*wl.k_range)
        config = sampling.random_asymmetric_config(k, wl.box, rng)
        pattern = target.canonicalize_target(
            sampling.random_points(k, wl.box, rng))
        yield RunInput(k, config, pattern, ADVERSARIES[i % len(ADVERSARIES)],
                       rng.randrange(2**32))
        i += 1


class Inputs:
    """The workload's runs, the first ``gate`` made eagerly in set-up."""

    def __init__(self, gf: dict, wl: Workload, seed: int, gate: int):
        self._stream = input_stream(gf, wl, seed)
        self._made = [next(self._stream) for _ in range(gate)]

    def __getitem__(self, i: int) -> RunInput:
        while i >= len(self._made):
            self._made.append(next(self._stream))
        return self._made[i]


def setup_once(wl: Workload, seed: int, gate: int):
    gf = load_gridform()
    return gf, Inputs(gf, wl, seed, gate)


def setup(wl: Workload, seed: int, gate: int, repeats: int):
    """Import plus input generation, ``repeats`` times; returns the last
    modules and inputs with every scaled set-up time."""
    clock = HostClock()
    times = []
    for _ in range(repeats):
        (gf, inputs), seconds = clock.time(setup_once, wl, seed, gate)
        times.append(seconds)
    return gf, inputs, times


def simulate(gf: dict, inp: RunInput):
    """One run through the public API and all three verifiers."""
    scheduler, verify = gf["scheduler"], gf["verify"]
    adversary = scheduler.make_adversary(inp.adversary, 4 * inp.k,
                                         inp.adversary_seed)
    out = scheduler.run(inp.config, inp.target, adversary,
                        max_events=MAX_EVENTS)
    ok = (out.kind == "FORMED" and out.fault is None
          and verify.check_collision_free(out.trace).passed
          and verify.check_phase_transitions(out.trace).passed
          and verify.check_formed(out.final, inp.target).passed)
    return out, ok


def attempt(gf: dict, inp: RunInput, i: int):
    """``simulate`` with any exception counted as a failed run."""
    try:
        return simulate(gf, inp)
    except Exception as exc:  # a failed run is reported, not fatal
        print(f"run {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, False


def run_key(out) -> tuple:
    if out is None:
        return ("EXCEPTION",)
    return (out.kind, out.events_used, tuple(sorted(out.final)))


def digest(keys) -> str:
    h = hashlib.sha256()
    for key in keys:
        h.update(repr(key).encode())
    return h.hexdigest()[:16]


def moves(out) -> int:
    return sum(1 for ev in out.trace
               if ev.kind == "MOVE" and ev.pos_after != ev.pos_before)


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def keep_going(i: int, start: float, args, gate: int) -> bool:
    if args.runs is not None:
        return i < args.runs
    return i < gate or perf_counter() - start < args.seconds


def measure(gf, inputs, wl, args, gate):
    """Untraced closed loop; returns (metrics, report lines, runs, failed).
    Run times are scaled to the reference host speed (hostclock.py)."""
    clock = HostClock()
    times, keys, events, moved = [], [], [], []
    failed = 0
    start = perf_counter()
    i = 0
    while keep_going(i, start, args, gate):
        (out, ok), seconds = clock.time(attempt, gf, inputs[i], i)
        times.append(seconds)
        failed += not ok
        keys.append(run_key(out))
        events.append(out.events_used if out else 0)
        moved.append(moves(out) if out else 0)
        i += 1

    busy = sum(times)
    beyond = sum(1 for t in times if t > percentile(times, wl.tail))
    metrics = {
        "events_per_s": (sum(events) / busy, "1/s"),
        "runs_per_s": (len(times) / busy, "1/s"),
        "run_ms_p50": (1e3 * statistics.median(times), "ms"),
        "run_ms_tail": (1e3 * percentile(times, wl.tail), "ms"),
        "wall_s": (sum(times[:gate]), "s"),
        "events_per_run": (sum(events[:gate]) / gate, "count"),
        "moves_per_run": (sum(moved[:gate]) / gate, "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"unscaled: events_per_s {sum(events) / clock.raw_s:.6g} 1/s; "
        f"scaled over raw time {clock.scaled_s / clock.raw_s:.4f}",
        f"run_ms_tail is p{wl.tail} over {len(times)} runs "
        f"({beyond} beyond it)",
        f"wall_s, events_per_run and moves_per_run cover the first "
        f"{gate} runs",
        f"failed_ratio {failed / len(times):.6g} ratio "
        f"({failed} of {len(times)} runs)",
        f"digest of the first {gate} runs: {digest(keys[:gate])}",
    ]
    if beyond < 10:
        notes.append(f"warning: only {beyond} runs beyond p{wl.tail}")
    return metrics, notes, len(times), failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def configs_and_staleness(inp: RunInput, out):
    """Distinct global configurations looked at, Look count and the
    staleness (events from Look to Move) of every Move."""
    current = set(inp.config)
    seen = set()
    looks = 0
    stale = []
    for ev in out.trace:
        if ev.kind == "MOVE":
            if ev.snapshot_index is not None:
                stale.append(ev.index - ev.snapshot_index)
            if ev.pos_after != ev.pos_before:
                current.discard(ev.pos_before)
                current.add(ev.pos_after)
        else:
            looks += 1
            seen.add(frozenset(current))
    return len(seen), looks, stale


def traced_setup(wl: Workload, seed: int, gate: int):
    """Set-up once, with the target module traced."""
    gf = load_gridform()
    tracer = Tracer(gf)
    with tracer.installed(), tracer.run("setup", root="setup"):
        inputs = Inputs(gf, wl, seed, gate)
    return gf, inputs, tracer


def measure_traced(gf, inputs, tracer, args, gate):
    """Each run untraced, then traced with the same input; returns
    (metrics, report lines, runs, failed, outcomes agree)."""
    plain_s = 0.0
    keys_plain, keys_traced = [], []
    events = looks = configs = 0
    stale = []
    failed = 0
    start = perf_counter()
    i = 0
    while keep_going(i, start, args, 1):  # each run costs twice; no gate
        inp = inputs[i]
        t0 = perf_counter()
        out, ok = attempt(gf, inp, i)
        plain_s += perf_counter() - t0
        keys_plain.append(run_key(out))
        with tracer.installed(), tracer.run(i):
            out, ok_traced = attempt(gf, inp, i)
        keys_traced.append(run_key(out))
        failed += not (ok and ok_traced)
        if out is not None:
            events += out.events_used
            n_configs, n_looks, n_stale = configs_and_staleness(inp, out)
            configs += n_configs
            looks += n_looks
            stale.extend(n_stale)
        i += 1

    tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    same = keys_plain == keys_traced
    gate = min(gate, i)
    metrics = layer_metrics(tracer, events, looks, configs, stale, plain_s)
    notes = [
        f"per-layer metrics over {i} traced runs",
        f"plan calls {tracer.totals.get('algorithm.plan', [0])[0]} against "
        f"{configs} distinct configurations looked at",
        f"digest of the first {gate} runs: untraced "
        f"{digest(keys_plain[:gate])}, traced {digest(keys_traced[:gate])}",
        f"traced and untraced outcomes {'agree' if same else 'DIFFER'} "
        f"on all {i} runs",
    ]
    return metrics, notes, i, failed, same


def layer_metrics(tracer, events, looks, configs, stale, plain_s) -> dict:
    """Per-layer metrics from the traced totals. A metric whose spans were
    never recorded (a wrapped name is gone) is left out with a warning."""
    totals, buckets, counts = tracer.totals, tracer.buckets, tracer.counts
    out = {}

    def mean_us(total, calls):
        return 1e6 * total / calls if calls else 0.0

    def calls(name):
        return totals[name][0]

    def total(name):
        return totals[name][1]

    def per_call_us(name):
        return mean_us(total(name), calls(name))

    def bucket_us(name, key):
        calls(name)  # absent, not zero, when the span was never recorded
        return mean_us(*reversed(buckets.get((name, key), [0, 0.0])))

    def put(name, unit, value):
        try:
            out[name] = (value(), unit)
        except KeyError as exc:
            print(f"warning: {name} absent: no {exc} spans", file=sys.stderr)

    def run_s():
        return total("run")

    def sched_self():
        return totals["scheduler.run"][2]

    frames, plan = "canonical.frames", "algorithm.plan"
    put("canonical.frames_calls", "count", lambda: calls(frames))
    put("canonical.frames_us", "us", lambda: per_call_us(frames))
    put("canonical.share", "ratio", lambda: total(frames) / run_s())
    put("canonical.area_mean", "cells",
        lambda: counts["canonical.area"] / calls(frames))
    put("canonical.multi_frame_ratio", "ratio",
        lambda: counts["canonical.multi_frame"] / calls(frames))
    for b in ("area_lt128", "area_128_511", "area_ge512"):
        put(f"canonical.frames_us.{b}", "us", lambda b=b: bucket_us(frames, b))

    put("algorithm.plan_calls", "count", lambda: calls(plan))
    put("algorithm.plan_us", "us", lambda: per_call_us(plan))
    put("algorithm.plan_self_us", "us",
        lambda: mean_us(totals[plan][2], calls(plan)))
    for b in ("k_le6", "k7_12", "k_gt12"):
        put(f"algorithm.plan_us.{b}", "us", lambda b=b: bucket_us(plan, b))
    put("algorithm.frame_coords_us", "us/plan",
        lambda: mean_us(total("algorithm.frame_coords"), calls(plan)))
    if not any(name.startswith("algorithm.rule.") for name in totals):
        print("warning: algorithm.rule.* absent: no rule spans",
              file=sys.stderr)
    else:
        for p in ("P1", "P2", "P3", "P4", "P5", "P6", "P7"):
            n, t = totals.get(f"algorithm.rule.{p}", [0, 0.0])[:2]
            out[f"algorithm.rule.{p}_us"] = (mean_us(t, n), "us")
            out[f"algorithm.rule.{p}_calls"] = (n, "count")
        n4 = totals.get("algorithm.rule.P4", [0])[0]
        cells = counts.get("algorithm.p4_cells", 0)
        out["algorithm.p4_cells"] = (cells / n4 if n4 else 0.0, "cells")

    put("conditions.evaluate_us", "us",
        lambda: per_call_us("conditions.evaluate"))
    put("conditions.classify_us", "us",
        lambda: per_call_us("conditions.classify"))
    put("conditions.share", "ratio",
        lambda: (total("conditions.evaluate") + total("conditions.classify"))
        / run_s())

    put("scheduler.self_s", "s", sched_self)
    put("scheduler.self_us_per_event", "us/event",
        lambda: 1e6 * sched_self() / events)
    put("scheduler.share", "ratio", lambda: sched_self() / run_s())
    put("scheduler.plan_cache_hit_ratio", "ratio",
        lambda: (looks - calls(plan)) / looks)
    put("scheduler.plans_per_config", "ratio", lambda: calls(plan) / configs)
    put("scheduler.staleness_mean", "events",
        lambda: statistics.fmean(stale) if stale else 0.0)
    put("scheduler.staleness_max", "events", lambda: max(stale, default=0))

    put("verify.collision_us_per_event", "us/event",
        lambda: 1e6 * total("verify.collision") / events)
    put("verify.transitions_us_per_event", "us/event",
        lambda: 1e6 * total("verify.transitions") / events)
    put("verify.formed_us", "us", lambda: per_call_us("verify.formed"))
    put("geometry.similar_us", "us", lambda: per_call_us("geometry.similar"))
    put("verify.share", "ratio",
        lambda: (total("verify.collision") + total("verify.transitions")
                 + total("verify.formed")) / run_s())

    put("target.canonicalize_us", "us",
        lambda: per_call_us("target.canonicalize"))
    put("trace_overhead_ratio", "ratio", lambda: run_s() / plain_s)
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measure at least this long (default 40)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--runs", type=int, default=None,
                    help="run exactly this many runs instead of timing")
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].seed
    if args.runs is not None and args.runs < 1:
        ap.error("--runs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    gate = wl.gate if args.runs is None else min(wl.gate, args.runs)
    try:
        if args.trace:
            gf, inputs, tracer = traced_setup(wl, args.seed, gate)
        else:
            gf, inputs, setup_times = setup(wl, args.seed, gate, SETUP_REPEATS)
    except ImportError as exc:
        print(f"cannot import gridform from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    if args.trace:
        metrics, notes, attempted, failed, same = measure_traced(
            gf, inputs, tracer, args, gate)
    else:
        metrics, notes, attempted, failed = measure(gf, inputs, wl, args, gate)
        same = True
        # Timed again after the loop, so that the median spans more of the
        # host's fast and slow periods than back-to-back set-ups would.
        setup_times += setup(wl, args.seed, gate, SETUP_REPEATS)[2]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        notes.append(f"setup_s is the median of {len(setup_times)} set-ups: "
                     + " ".join(f"{t:.4f}" for t in setup_times))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for line in notes:
        print("  " + line)
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
