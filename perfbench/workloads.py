"""The benchmark's four workloads, built from the mildbbm sources of this checkout.

A workload is a fixed list of operations made from the seed.  ``run(i)`` is
the timed call into the program; ``summarize`` reduces its output to a small
dict (untimed) that ``checks`` validates and ``derived`` turns into
deterministic counts.  Every operation gets the same inputs on every pass,
so repeated passes must reproduce each summary exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import mildbbm  # noqa: E402

if Path(mildbbm.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"mildbbm was imported from {mildbbm.__file__}, not from {SRC}")

from mildbbm import branching, cli, environment, feynman_kac  # noqa: E402
from mildbbm.analysis import ModelConstants  # noqa: E402

import checks  # noqa: E402

OUT = ROOT / ".bench_out"


def sub_seed(seed, *labels) -> int:
    """Input seed for one part of a workload, independent of the program's own hashing."""
    text = "/".join(str(p) for p in ("perfbench", seed) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Workload:
    """Defaults for a workload whose operations are fixed by ``self.ops``."""

    def start_pass(self):
        pass

    def more(self, summaries):
        return len(summaries) < len(self.ops)

    def check_all(self, summaries):
        return []


class Growth(Workload):
    """Replicates of ``run_bbm`` on one shared field, fresh for each pass.

    The replicate list grows on the first pass until the engine events
    (branches plus rejected candidates) add up to ``event_budget``.  A fixed
    replicate count would not do: the population at time t has a
    coefficient of variation near 1 per replicate, and the rejected share
    depends on the field, so the work of a fixed count moves with the seed.
    """

    name = "growth"
    check = staticmethod(checks.growth)

    def __init__(self, seed, event_budget=100_000, t_max=8.0):
        self.seed = seed
        self.budget = event_budget
        self.mc = ModelConstants(d=2, nu=0.5, beta=1.0, a=0.3)
        self.obs = tuple(t_max * k / 4.0 for k in range(1, 5))
        self.ball = branching.Ball("origin_unit", (0.0, 0.0), 1.0)
        self.t_max = t_max
        self.configs = []
        self.field = None

    def _config(self, i):
        while len(self.configs) <= i:
            self.configs.append(
                branching.SimConfig(
                    mc=self.mc, t_max=self.t_max, obs_times=self.obs,
                    seed=sub_seed(self.seed, "run", len(self.configs)), balls=(self.ball,),
                )
            )
        return self.configs[i]

    def start_pass(self):
        self.field = environment.ObstacleField(2, 0.5, 0.3, sub_seed(self.seed, "field"))

    def more(self, summaries):
        events = sum(s["branch_records"] + s["rejected_records"] for s in summaries if not s["truncated"])
        return events < self.budget

    def run(self, i):
        config = self._config(i)
        try:
            return branching.run_bbm(config, self.field)
        except branching.ParticleCapExceeded:
            return None

    def summarize(self, i, out):
        if out is None:
            return {"truncated": True}
        curve, log = out
        kinds = [r.kind for r in log]
        return {
            "truncated": False,
            "counts": curve.counts.tolist(),
            "local_counts": {k: v.tolist() for k, v in curve.local_counts.items()},
            "radial_max": curve.radial_max.tolist(),
            "logged_counts": [branching.population_at(log, t) for t in curve.times],
            "branch_records": kinds.count("branch"),
            "rejected_records": kinds.count("candidate-rejected"),
        }

    def derived(self, summaries):
        ok = [s for s in summaries if not s["truncated"]]
        return {
            "branching.run_bbm.calls": len(summaries),
            "branching.truncated_runs": len(summaries) - len(ok),
            "branching.events": sum(s["branch_records"] + s["rejected_records"] for s in ok),
            "branching.rejected": sum(s["rejected_records"] for s in ok),
            "environment.cells_realised": len(self.field.realized_cells),
            "final_particles": sum(s["counts"][-1] for s in ok),
        }


class Fk(Workload):
    """``estimate_annealed_mass`` one environment at a time (the shape of gate 9)."""

    name = "fk"
    check = staticmethod(checks.fk)

    def __init__(self, seed, n_envs=4, n_paths=512, t=10.0, dt=1e-3):
        self.ops = [sub_seed(seed, "env", e) for e in range(n_envs)]
        self.n_paths, self.t, self.dt = n_paths, t, dt

    def run(self, i):
        return feynman_kac.estimate_annealed_mass(
            1, 1.0, 0.3, 1.0, self.t, self.dt, self.n_paths, 1, self.ops[i]
        )

    def summarize(self, i, est):
        return {"estimate": est.point_estimate, "std_error": est.std_error, "beta": 1.0, "t": est.t}

    def derived(self, summaries):
        return {
            "feynman_kac.sample_free_times.calls": len(summaries),
            "feynman_kac.sample_free_times.path_steps":
                len(summaries) * self.n_paths * int(round(self.t / self.dt)),
            "environment.fields_created": len(summaries),
        }


class Dichotomy(Workload):
    """``dichotomy_experiment`` in chunks of runs, each chunk with its own seed."""

    name = "dichotomy"
    check = staticmethod(checks.dichotomy)

    def __init__(self, seed, chunks=60, runs_per_chunk=25, t_max=8.0):
        self.ops = [sub_seed(seed, "chunk", j) for j in range(chunks)]
        self.runs, self.t_max = runs_per_chunk, t_max

    def run(self, i):
        return branching.dichotomy_experiment(
            1.0, 0.8, 0.5, 0.3, self.t_max, self.runs, seed=self.ops[i], prune_tol=1e-8
        )

    def summarize(self, i, report):
        keys = ("truncated_runs", "pruned_subtrees", "leak_bound_total",
                "survival_fraction", "median_local_counts")
        return {k: report[k] for k in keys}

    def check_all(self, summaries):
        return checks.dichotomy_total(summaries)

    def derived(self, summaries):
        return {
            "branching.dichotomy_experiment.calls": len(summaries),
            "branching.truncated_runs": sum(s["truncated_runs"] for s in summaries),
            "branching.pruned_subtrees": sum(s["pruned_subtrees"] for s in summaries),
            "branching.leak_bound_total": sum(s["leak_bound_total"] for s in summaries),
            "environment.fields_created": len(summaries) * self.runs,
        }


class Campaign(Workload):
    """``mildbbm fk-compare`` in-process, several campaigns per pass, each with its own seed.

    The campaign's field sets its mean population, so one campaign per pass
    would tie the work to one field; several shorter ones average it out
    and give each timing less time for the machine's speed to change under it.
    """

    name = "campaign"
    check = staticmethod(checks.campaign)

    def __init__(self, seed, campaigns=4, runs=400, n_paths=800):
        self.out = OUT / f"campaign-{os.getpid()}"
        self.ops = [
            ["fk-compare", "--seed", str(sub_seed(seed, "campaign", c)), "--out", str(self.out),
             "--runs", str(runs), "--n-paths", str(n_paths), "--workers", "1"]
            for c in range(campaigns)
        ]
        self.runs, self.n_paths = runs, n_paths

    def run(self, i):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.ops[i])

    def summarize(self, i, exit_code):
        report = None
        path = self.out / "fk_report.json"
        if path.exists():
            report = json.loads(path.read_text())
        files = sorted(self.out.iterdir()) if self.out.exists() else []
        out_bytes = sum(p.stat().st_size for p in files)
        contents = digest([p.read_text() for p in files])
        shutil.rmtree(self.out, ignore_errors=True)
        return {"exit_code": exit_code, "runs": self.runs, "report": report,
                "out_bytes": out_bytes, "out_digest": contents}

    def derived(self, summaries):
        reports = [s["report"] or {"truncated_runs": 0, "halving_pass": None} for s in summaries]
        n_steps = int(round(4.0 / 1e-3))  # CLI default t_max / dt; dt-halving adds 2 * n_steps
        return {
            "cli.main.calls": len(summaries),
            "branching.run_bbm.calls": self.runs * len(summaries),
            "branching.truncated_runs": sum(r["truncated_runs"] for r in reports),
            "cli.out_bytes": sum(s["out_bytes"] for s in summaries),
            "feynman_kac.sample_free_times.calls": 2 * len(summaries),
            "feynman_kac.sample_free_times.path_steps": self.n_paths * 3 * n_steps * len(summaries),
            "halving_gate_failures": sum(r["halving_pass"] is False for r in reports),
        }


WORKLOADS = {w.name: w for w in (Growth, Fk, Dichotomy, Campaign)}
