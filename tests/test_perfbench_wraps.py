"""The benchmark tracer wraps gridform functions by name, and a name it
cannot find is only skipped with a warning. Pin every wrapped name here, so
renaming or deleting one fails the tests instead of silently dropping the
per-layer metrics built on it."""

import importlib
import random
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> dict:
    # execute the source in a fresh namespace: nothing is imported as a
    # package and no bytecode is written next to the benchmark
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_every_wrapped_name_exists():
    wraps = load_tracer()["WRAPS"]
    assert wraps
    missing = [f"gridform.{short}.{attr}" for short, attr, _, _ in wraps
               if not hasattr(importlib.import_module(f"gridform.{short}"),
                              attr)]
    assert missing == []


# every span a BENCHMARK.json per-layer metric is computed from
SPANS = ["scheduler.run", "algorithm.plan", "canonical.frames",
         "algorithm.frame_coords", "conditions.evaluate",
         "conditions.classify", "algorithm.rule.P4", "verify.collision",
         "verify.transitions", "verify.formed", "geometry.similar",
         "target.canonicalize"]


def test_traced_runs_record_every_per_layer_span():
    """A wrapped name that still exists but is no longer called (a call
    rerouted around it) records no span, and its metrics read absent."""
    names = ("sampling", "scheduler", "target", "verify", "algorithm")
    modules = {name: importlib.import_module(f"gridform.{name}")
               for name in names}
    sampling, scheduler, target, verify, _ = modules.values()
    tracer = load_tracer()["Tracer"](modules)
    rng = random.Random(3)
    with tracer.installed():
        for i in range(6):  # as perfbench/run.py draws and checks a run
            k = rng.randint(3, 8)
            with tracer.run(i):
                config = sampling.random_asymmetric_config(k, 8, rng)
                pattern = target.canonicalize_target(
                    sampling.random_points(k, 8, rng))
                kind = ("random", "round_robin", "max_stale")[i % 3]
                out = scheduler.run(config, pattern,
                                    scheduler.make_adversary(kind, 4 * k, i),
                                    max_events=100_000)
                assert out.kind == "FORMED"
                assert verify.check_collision_free(out.trace).passed
                assert verify.check_phase_transitions(out.trace).passed
                assert verify.check_formed(out.final, pattern).passed
    assert [name for name in SPANS if name not in tracer.totals] == []
    # every plan decodes its image through the wrapped to_frame_coords
    plans = tracer.totals["algorithm.plan"][0]
    assert tracer.totals["algorithm.frame_coords"][0] >= plans > 0


def test_multi_frame_count_reads_the_frame_list():
    """``canonical.multi_frame_ratio`` counts ``len(result) > 1`` of each
    ``canonical_frames`` result, so the result must stay a list of frames."""
    from gridform.canonical import canonical_frames

    tracer = load_tracer()
    counter = tracer["Tracer"]({})
    for c, multi in [({(0, 0), (1, 0)}, 1),  # symmetric
                     ({(0, 0), (1, 0), (3, 0)}, 0)]:  # asymmetric
        counter.counts.clear()
        tracer["_note_frames"](counter, (c,), canonical_frames(c), 0.0)
        assert counter.counts["canonical.multi_frame"] == multi
