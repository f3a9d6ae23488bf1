"""Span tracer for the traced benchmark run.

The tracer replaces public functions of the gridform modules with wrappers
that record one span per call: name, start, end, parent span and run id.
Spans are appended to an in-memory list; when a simulated run ends they are
folded into per-name totals (calls, total time, self time) and the spans of
the first few runs are kept to be written out when the benchmark ends.

A wrapped name that a module no longer has is skipped with a warning, so the
metrics that depend on it are reported absent instead of crashing the run.
``installed()`` puts every original attribute back on exit and checks that
it did, so no untraced number is ever taken with a wrapper in place.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter

KEEP_RUNS = 3  # runs whose raw spans are written out


def _area_bucket(area: int) -> str:
    if area < 128:
        return "area_lt128"
    if area < 512:
        return "area_128_511"
    return "area_ge512"


def _k_bucket(k: int) -> str:
    if k <= 6:
        return "k_le6"
    if k <= 12:
        return "k7_12"
    return "k_gt12"


def _note_frames(tracer, args, result, dur):
    xs = [p[0] for p in args[0]]
    ys = [p[1] for p in args[0]]
    area = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
    tracer.bucket("canonical.frames", _area_bucket(area), dur)
    tracer.count("canonical.area", area)
    tracer.count("canonical.multi_frame", len(result) > 1)


def _note_plan(tracer, args, result, dur):
    tracer.bucket("algorithm.plan", _k_bucket(len(args[0])), dur)


def _rule_name(args):
    return "algorithm.rule." + args[2]


def _note_rule(tracer, args, result, dur):
    if args[2] == "P4":
        cv = args[1]
        # phase 4 walks a snake path over (m - 1) rows and n // 2 columns
        tracer.count("algorithm.p4_cells", (cv.m - 1) * (cv.n // 2))


# (module, attribute, span name or function of the call's arguments, note).
# Each wrapper sits on the name a caller looks up, so ``algorithm.X`` times
# X as called from the algorithm module and nowhere else.
WRAPS = [
    ("scheduler", "run", "scheduler.run", None),
    ("scheduler", "plan_moves", "algorithm.plan", _note_plan),
    ("algorithm", "canonical_frames", "canonical.frames", _note_frames),
    ("algorithm", "to_frame_coords", "algorithm.frame_coords", None),
    ("algorithm", "from_frame_coords", "algorithm.frame_coords", None),
    ("algorithm", "evaluate_conditions", "conditions.evaluate", None),
    ("algorithm", "classify_phase", "conditions.classify", None),
    ("algorithm", "phase_moves", _rule_name, _note_rule),
    ("verify", "check_collision_free", "verify.collision", None),
    ("verify", "check_phase_transitions", "verify.transitions", None),
    ("verify", "check_formed", "verify.formed", None),
    ("verify", "similar", "geometry.similar", None),
    ("target", "canonicalize_target", "target.canonicalize", None),
]


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules      # short name -> module object
        self.spans: list = []       # (name, start, end, parent, run) this run
        self.kept: list = []        # span lists of the first KEEP_RUNS runs
        self.totals: dict = {}      # name -> [calls, total_s, self_s]
        self.buckets: dict = {}     # (name, bucket) -> [calls, total_s]
        self.counts: dict = {}      # counter name -> sum
        self.warned: set = set()    # warnings already printed
        self.run_id = None
        self._stack: list = []      # [span index, child time] of open spans
        for short, attr, _, _ in WRAPS:
            if not hasattr(modules.get(short), attr):
                print(f"warning: gridform.{short}.{attr} not found, "
                      "so not traced", file=sys.stderr)

    def bucket(self, name: str, key: str, dur: float):
        entry = self.buckets.setdefault((name, key), [0, 0.0])
        entry[0] += 1
        entry[1] += dur

    def count(self, name: str, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame, parent: int, start: float, end: float):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.spans[frame[0]] = (name, start, end, parent, self.run_id)
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - frame[1]
        return dur

    def _wrap(self, fn, attr, name, note):
        def traced(*args, **kwargs):
            frame, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span = self._guarded(name, args) if callable(name) else name
                dur = self._close(span or attr, frame, parent, start, end)
            if note is not None:
                self._guarded(note, self, args, result, dur)
            return result

        return traced

    def _guarded(self, fn, *args):
        """Call a naming or note function, which reads the wrapped call's
        arguments; a changed signature costs a warning, not the run."""
        try:
            return fn(*args)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            message = f"warning: {fn.__name__}: {exc!r}"
            if message not in self.warned:
                self.warned.add(message)
                print(message, file=sys.stderr)
            return None

    @contextmanager
    def installed(self):
        """Wrap every WRAPS entry that exists; restore all on exit."""
        saved = []
        try:
            for short, attr, name, note in WRAPS:
                module = self.modules.get(short)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr,
                            self._wrap(original, attr, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            for module, attr, original in saved:
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} not restored")

    @contextmanager
    def run(self, run_id, root: str = "run"):
        """Root span of one simulated run; folds its spans when it ends."""
        self.run_id = run_id
        frame, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(root, frame, parent, start, perf_counter())
            if len(self.kept) < KEEP_RUNS:
                self.kept.append(self.spans)
            self.spans = []
            self.run_id = None

    def write(self, path):
        """Write the kept spans as JSON Lines, one span per line. ``id`` and
        ``parent`` index the spans of the same run (-1: no parent)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for spans in self.kept:
                for idx, (name, start, end, parent, run) in enumerate(spans):
                    fh.write(json.dumps({
                        "run": run, "id": idx, "parent": parent, "name": name,
                        "start": start, "end": end,
                    }) + "\n")
