"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory, and the command fails (exit 2, no result) without it.

A run builds the workload from the seed (set-up), then repeats its fixed
list of operations, timing each one, until ``--seconds`` have passed; the
first pass always completes.  ``wall_s`` is the sum over operations of each
operation's median time, so a burst of load from elsewhere on the machine
moves a few samples rather than the result.  Every output is checked: the
first pass by the workload's checks, later passes by exact equality with the
first.  ``--trace 1`` adds one traced pass after the untraced ones and prints
the per-layer metrics instead; its spans are written to ``.bench_out/``.

The last line of stdout is the JSON result; lines before it give every
metric by name with its unit, and the deterministic counts.  The exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SETUP_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["growth", "fk", "dichotomy", "campaign"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name, seed):
    """Import the program and build the workload: what ``setup_s`` times."""
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    return wl, perf_counter() - t0


def scaled_setup(raw):
    """(raw, scaled) set-up seconds, scaled by a kernel timed right after.

    The kernel's first timings in a fresh process run cold, so one is discarded.
    """
    from calibrate import NOMINAL_S, kernel

    kernel()
    return raw, raw * NOMINAL_S / kernel()


def setup_samples(args, first):
    """(raw, scaled) set-up times of this process and of fresh interpreters."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(tuple(float(v) for v in done.stdout.split()[-2:]))
    return samples


class Measurement:
    """Per-operation times, first-pass summaries and failures of one run."""

    def __init__(self, wl, clock):
        self.wl = wl
        self.clock = clock
        self.times = []
        self.raw = []
        self.first = []
        self.digests = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.derived = None

    def record(self, i, summary):
        self.attempted += 1
        if i == len(self.first):
            self.first.append(summary)
            self.digests.append(_digest(summary))
            problems = self.wl.check(summary)
        elif _digest(summary) != self.digests[i]:
            problems = [f"output differs from the first pass: {summary}"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.problems += [f"op {i}: {p}" for p in problems]

    def close_first_pass(self):
        self.attempted += 1
        problems = self.wl.check_all(self.first)
        if problems:
            self.failed += 1
            self.problems += problems
        self.derived = self.wl.derived(self.first)

    def timed(self, i):
        out, raw, scaled = self.clock.timed(self.wl.run, i)
        if i == len(self.times):
            self.times.append([])
            self.raw.append([])
        self.times[i].append(scaled)
        self.raw[i].append(raw)
        self.record(i, self.wl.summarize(i, out))

    def run(self, seconds):
        wl = self.wl
        deadline = perf_counter() + seconds
        wl.start_pass()
        while wl.more(self.first):
            self.timed(len(self.first))
        self.close_first_pass()
        while perf_counter() < deadline:
            wl.start_pass()
            for i in range(len(self.first)):
                if perf_counter() >= deadline:
                    break
                self.timed(i)

    def wall_s(self, raw=False):
        """Sum over operations of each one's median time, scaled unless ``raw``."""
        return sum(statistics.median(t) for t in (self.raw if raw else self.times))


def _digest(summary):
    import workloads

    return workloads.digest(summary)


def traced_op(tracer, wl, i):
    idx = tracer.open("bench.op")
    try:
        return wl.run(i)
    finally:
        tracer.close(idx)


def traced_pass(wl, m, path):
    """One more pass with spans on: (per-layer metrics, problems, traced counts)."""
    from tracing import Tracer

    tracer = Tracer()
    summaries, times = [], []
    wl.start_pass()
    tracer.instrument()
    try:
        for i in range(len(m.first)):
            tracer.request = i
            out, _, scaled = m.clock.timed(traced_op, tracer, wl, i)
            times.append(scaled)
            summaries.append(wl.summarize(i, out))
    finally:
        tracer.restore()
    problems = [f"traced op {i}: output differs from untraced" for i, s in enumerate(summaries)
                if _digest(s) != m.digests[i]]
    derived = wl.derived(summaries)
    if derived != m.derived:
        problems.append(f"traced counts {derived} != untraced {m.derived}")
    tracer.write(path)
    t = tracer.layer_times()
    counts = dict(tracer.counts, **{"branching.events": tracer.engine_events()})
    counts.update((f"{name}.calls", row[0]) for name, row in t.items() if name != "bench.op")
    counts["environment.points_queried"] = (
        counts.get("environment.is_blocked.calls", 0) + counts.get("environment.is_blocked_many.points", 0)
    )
    for key in sorted(set(derived) & set(counts)):
        if derived[key] != counts[key]:
            problems.append(f"{key}: traced {counts[key]} != from outputs {derived[key]}")
    layers = layer_metrics(t, counts, derived)
    layers["trace.overhead_frac"] = sum(times) / m.wall_s() - 1.0
    return layers, problems, counts


def layer_metrics(t, c, derived):
    """Per-layer metrics from span times ``t`` and counts ``c``; idle layers read 0."""

    def calls(name):
        return c.get(f"{name}.calls", 0)

    def incl(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    engine_s = incl("branching.run_bbm") + incl("branching.dichotomy_experiment")
    out = {
        "branching.run_bbm.calls": calls("branching.run_bbm"),
        "branching.run_bbm.self_s": self_s("branching.run_bbm"),
        "branching.run_bbm.us_per_call": ratio(self_s("branching.run_bbm"), calls("branching.run_bbm"), 1e6),
        "branching.events": c.get("branching.events", 0),
        "branching.us_per_event": ratio(engine_s, c.get("branching.events", 0), 1e6),
        "branching.rejected_frac": ratio(c.get("branching.rejected", 0), c.get("branching.events", 0)),
        "branching.truncated_runs": derived.get("branching.truncated_runs", 0),
        "branching.dichotomy_experiment.self_s": self_s("branching.dichotomy_experiment"),
        "branching.pruned_subtrees": derived.get("branching.pruned_subtrees", 0),
        "branching.leak_bound_total": derived.get("branching.leak_bound_total", 0.0),
        "environment.is_blocked.calls": calls("environment.is_blocked"),
        "environment.is_blocked.self_s": self_s("environment.is_blocked"),
        "environment.is_blocked.us_per_call":
            ratio(self_s("environment.is_blocked"), calls("environment.is_blocked"), 1e6),
        "environment.is_blocked_many.calls": calls("environment.is_blocked_many"),
        "environment.is_blocked_many.points": c.get("environment.is_blocked_many.points", 0),
        "environment.is_blocked_many.self_s": self_s("environment.is_blocked_many"),
        "environment.is_blocked_many.ns_per_point":
            ratio(self_s("environment.is_blocked_many"), c.get("environment.is_blocked_many.points", 0), 1e9),
        "environment.realize_box.calls": calls("environment.realize_box"),
        "environment.realize_box.points": c.get("environment.realize_box.points", 0),
        "environment.realize_box.self_s": self_s("environment.realize_box"),
        "environment.fields_created": c.get("environment.fields_created", 0),
        "environment.cells_realised": c.get("environment.cells_realised", 0),
        "environment.blocked_frac": ratio(c.get("environment.points_blocked", 0), c.get("environment.points_queried", 0)),
        "feynman_kac.sample_free_times.calls": calls("feynman_kac.sample_free_times"),
        "feynman_kac.sample_free_times.self_s": self_s("feynman_kac.sample_free_times"),
        "feynman_kac.sample_free_times.path_steps": c.get("feynman_kac.sample_free_times.path_steps", 0),
        "feynman_kac.sample_free_times.ns_per_path_step":
            ratio(incl("feynman_kac.sample_free_times"), c.get("feynman_kac.sample_free_times.path_steps", 0), 1e9),
        "seeds.derive_seed.calls": calls("seeds.derive_seed"),
        "seeds.derive_seed.self_s": self_s("seeds.derive_seed"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.out_bytes": derived.get("cli.out_bytes", 0),
    }
    return out


def unit(name):
    """Unit of a metric, read from the last part of its name."""
    last = name.rsplit(".", 1)[-1]
    if last.startswith("us_per_"):
        return "us"
    if last.startswith("ns_per_"):
        return "ns"
    for suffix, u in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_frac", "frac"), ("_bytes", "bytes")):
        if last.endswith(suffix):
            return u
    if last == "leak_bound_total":
        return "particles"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    try:
        wl, setup_first = setup(args.workload, args.seed)
    except ImportError as e:
        print(f"cannot import the program from this checkout: {e}", file=sys.stderr)
        return 2
    first = scaled_setup(setup_first)
    if args.setup_only:
        print(*first)
        return 0
    samples = setup_samples(args, first)

    from calibrate import Clock

    m = Measurement(wl, Clock())
    m.run(args.seconds)
    wall = m.wall_s()
    end_to_end = {
        "setup_s": statistics.median(s[1] for s in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": wall,
    }
    shown = dict(end_to_end, failed_frac=m.failed / m.attempted,
                 raw_setup_s=statistics.median(s[0] for s in samples), raw_wall_s=m.wall_s(raw=True))
    if "final_particles" in m.derived:
        shown["particles_per_s"] = m.derived["final_particles"] / wall
    metrics = end_to_end
    if args.trace:
        import workloads

        workloads.OUT.mkdir(exist_ok=True)
        spans = workloads.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, problems, counts = traced_pass(wl, m, spans)
        m.attempted += 1
        if problems:
            m.failed += 1
            m.problems += problems
        shown = dict(metrics)
        print("traced counts " + json.dumps(dict(sorted(counts.items()))))

    fewest = min(len(t) for t in m.times)
    print(f"workload {args.workload} seed {args.seed}: {len(m.times)} ops, >= {fewest} timed samples each")
    print("counts " + json.dumps(m.derived, sort_keys=True))
    print("digest " + _digest(m.digests))
    for name, value in shown.items():
        print(f"{name} {value:.6g} {unit(name)}")
    for p in m.problems:
        print(f"FAILED {p}", file=sys.stderr)
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
