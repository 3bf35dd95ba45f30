"""Spans around the calls into each contact-mf layer, and the per-layer
metrics computed from them.

Run as a script, it executes one contact-mf command with every function in
TARGETS wrapped where its callers look it up, and writes the spans to a
JSON file when the command ends:

    python3 bench/tracing.py --spans spans.json --run-id r1 -- survival --d 4

A span is [id, parent id, name, start, end, run id, value]: ids are
"<pid>:<n>", the parent is the innermost span open in the same process at
the call, times are time.perf_counter() (one monotonic clock shared by all
processes), and value is a count read off the call (events, walks, classes)
or null.  `survival` runs its cells in forked pool workers; the wrapper
around cli._survival_cell appends each worker's spans to <spans>.<pid>, and
the parent merges those files, so the traced command keeps its process
layout.

Nothing inside src/ changes: the wrappers are installed from here.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# (module the caller looks the name up in, attribute, span name, value reader).
# A dotted attribute wraps a method on a class of that module; the reader
# turns the call's result into the span's count.
TARGETS = [
    ("contact", "estimate_survival", "contact.estimate_survival", None),
    ("contact", "run_trial", "contact.run_trial", lambda r: r.event_count),
    ("contact", "duality_check", "contact.duality_check", None),
    ("bcpp", "run_coupled", "bcpp.run_coupled", lambda r: r),
    ("bcpp", "first_moment_check", "bcpp.first_moment_check", None),
    ("bcpp", "BcppField.__init__", "bcpp.BcppField.__init__", None),
    ("walk", "hitting_mc", "walk.hitting_mc", None),   # reader: _walks_on_miss
    ("walk", "hitting_harmonic", "walk.hitting_harmonic", None),
    ("walk", "class_neighbor_table", "lattice.class_neighbor_table", lambda r: len(r[0])),
    ("moments", "class_neighbor_table", "lattice.class_neighbor_table", lambda r: len(r[0])),
    ("moments", "CorrelationGenerator.__init__", "moments.CorrelationGenerator.__init__", None),
    ("moments", "CorrelationGenerator.apply", "moments.CorrelationGenerator.apply", None),
    ("moments", "build_stationary", "moments.build_stationary", None),
    ("moments", "verify_stationary", "moments.verify_stationary", None),
    ("moments", "evolve_correlations", "moments.evolve_correlations", None),
    ("moments", "second_moment_bound_check", "moments.second_moment_bound_check", None),
    ("moments", "second_moment_survival_bound", "analytics.second_moment_survival_bound", None),
    ("analytics", "combined_survival_bound", "analytics.combined_survival_bound", None),
    ("analytics", "dominating_walk_survival", "analytics.dominating_walk_survival", None),
    ("analytics", "second_moment_survival_bound", "analytics.second_moment_survival_bound", None),
    ("analytics", "reach_probability", "analytics.reach_probability", None),
    ("contact", "threshold_error_bound", "analytics.threshold_error_bound", None),
    ("cli", "stream_key", "rng.stream_key", None),
    ("cli", "substream", "rng.substream", None),
    ("contact", "substream", "rng.substream", None),
    ("bcpp", "substream", "rng.substream", None),
    ("walk", "np_substream", "rng.np_substream", None),
]


class Tracer:
    """In-memory span recorder for one process (and its forked workers)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[str] = []

    def wrap(self, fn, name: str, reader=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{os.getpid()}:{len(self.spans)}"
            span = [sid, self.stack[-1] if self.stack else None, name, 0.0, 0.0, self.run_id, None]
            self.spans.append(span)
            self.stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            if reader is not None:
                span[6] = reader(result)
            return result
        return traced


def _walks_on_miss(cached):
    """hitting_mc is lru_cached: a call that hits the cache walks nothing."""
    seen = [cached.cache_info().misses]

    def reader(result) -> int:
        misses = cached.cache_info().misses
        fresh, seen[0] = misses > seen[0], misses
        return result.n_walks if fresh else 0
    return reader


def install(tracer: Tracer, spans_path: Path) -> None:
    for module_name, attr, name, reader in TARGETS:
        module = importlib.import_module(f"contact_mf.{module_name}")
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        fn = getattr(holder, leaf)
        if name == "walk.hitting_mc":
            reader = _walks_on_miss(fn)
        setattr(holder, leaf, tracer.wrap(fn, name, reader))

    from contact_mf import cli

    cell = cli._survival_cell
    parent_pid = os.getpid()

    @functools.wraps(cell)
    def shipped_cell(payload):
        if os.getpid() == parent_pid:
            return cell(payload)
        mark = len(tracer.spans)
        result = cell(payload)
        with open(f"{spans_path}.{os.getpid()}", "a") as fh:
            for span in tracer.spans[mark:]:
                fh.write(json.dumps(span) + "\n")
        return result

    # same __module__/__qualname__, so the pool pickles it by reference
    cli._survival_cell = shipped_cell


def run(argv: list[str], spans_path: Path, run_id: str) -> int:
    tracer = Tracer(run_id)
    install(tracer, spans_path)
    from contact_mf import cli

    try:
        return cli.main(argv)
    finally:
        spans = list(tracer.spans)
        for part in sorted(spans_path.parent.glob(spans_path.name + ".*")):
            with open(part) as fh:
                spans.extend(json.loads(line) for line in fh)
            part.unlink()
        with open(spans_path, "w") as fh:
            json.dump(spans, fh)


# ---------------------------------------------------------------------------
# per-layer metrics, named as in BENCHMARK.json
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command whose wall time was wall_s.

    A layer's time is the summed duration of its spans that no other span
    of the same layer encloses, so nested calls (analytics calling itself,
    a generator built inside the bound check) are not counted twice.
    """
    by_id = {s[0]: s for s in spans}

    def ancestors(span):
        parent = by_id.get(span[1])
        while parent is not None:
            yield parent
            parent = by_id.get(parent[1])

    def outer(prefix: str) -> list[list]:
        return [
            s for s in spans if s[2].startswith(prefix)
            and not any(a[2].startswith(prefix) for a in ancestors(s))
        ]

    def busy(prefix: str) -> float:
        return sum((s[4] - s[3] for s in outer(prefix)), 0.0)

    def calls(name: str) -> list[list]:
        return [s for s in spans if s[2] == name]

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    events = sum(s[6] for s in calls("contact.run_trial"))
    run_trial_s = busy("contact.run_trial")
    coupled = sum(s[6] for s in calls("bcpp.run_coupled"))
    coupled_s = busy("bcpp.run_coupled")
    walks = sum(s[6] for s in calls("walk.hitting_mc"))
    mc_s = busy("walk.hitting_mc")
    tables = calls("lattice.class_neighbor_table")
    evolve_s = busy("moments.evolve_correlations")
    rk4_applies = sum(
        1 for s in calls("moments.CorrelationGenerator.apply")
        if any(a[2] == "moments.evolve_correlations" for a in ancestors(s))
    )
    rk4_steps = rk4_applies // 4
    top = [(s[3], s[4]) for s in spans if by_id.get(s[1]) is None]
    return {
        "contact.trials": len(calls("contact.run_trial")),
        "contact.events": events,
        "contact.run_trial_s": run_trial_s,
        "contact.events_per_s": ratio(events, run_trial_s),
        "contact.duality_s": busy("contact.duality_check"),
        "bcpp.coupled_events": coupled,
        "bcpp.coupled_s": coupled_s,
        "bcpp.coupled_events_per_s": ratio(coupled, coupled_s),
        "bcpp.first_moment_s": busy("bcpp.first_moment_check"),
        "bcpp.field_init_s": busy("bcpp.BcppField.__init__"),
        "walk.walks": walks,
        "walk.hitting_mc_s": mc_s,
        "walk.walks_per_s": ratio(walks, mc_s),
        "walk.hitting_harmonic_s": busy("walk.hitting_harmonic"),
        "lattice.class_table_calls": len(tables),
        "lattice.class_table_s": busy("lattice.class_neighbor_table"),
        "lattice.classes": max((s[6] for s in tables), default=0),
        "moments.generator_s": busy("moments.CorrelationGenerator.__init__"),
        "moments.build_stationary_s": busy("moments.build_stationary"),
        "moments.evolve_s": evolve_s,
        "moments.rk4_steps": rk4_steps,
        "moments.rk4_step_ms": 1000.0 * ratio(evolve_s, rk4_steps),
        "moments.bound_check_s": busy("moments.second_moment_bound_check"),
        "analytics.bound_s": busy("analytics."),
        "rng.substreams": sum(1 for s in spans if s[2].startswith("rng.")),
        "rng.substream_s": busy("rng."),
        "cli.self_s": wall_s - _covered(top),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return run(argv, args.spans, args.run_id)


if __name__ == "__main__":
    sys.exit(main())
