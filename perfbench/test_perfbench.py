"""Tests of the benchmark itself: its checks can fail, its counts repeat.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from calibrate import Clock
from tracing import Tracer

SMALL = {
    "growth": lambda seed: workloads.Growth(seed, event_budget=300, t_max=4.0),
    "fk": lambda seed: workloads.Fk(seed, n_envs=2, n_paths=32, t=2.0, dt=1e-2),
    "dichotomy": lambda seed: workloads.Dichotomy(seed, chunks=2, runs_per_chunk=3, t_max=3.0),
    "campaign": lambda seed: workloads.Campaign(seed, campaigns=2, runs=40, n_paths=40),
}


def first_pass(name, seed=3):
    m = run.Measurement(SMALL[name](seed), Clock())
    m.run(0.0)
    return m


@pytest.fixture(scope="module")
def passes():
    return {name: first_pass(name) for name in SMALL}


def test_small_workloads_pass_their_checks(passes):
    for name, m in passes.items():
        assert m.problems == [], name
        assert m.failed == 0 and m.attempted == len(m.first) + 1


GROWTH_CORRUPTIONS = [
    lambda s: s.update(truncated=True),
    lambda s: s["counts"].__setitem__(0, 0),
    lambda s: s["counts"].__setitem__(-1, s["counts"][-2] - 1),
    lambda s: s["local_counts"]["origin_unit"].__setitem__(-1, s["counts"][-1] + 1),
    lambda s: s["radial_max"].__setitem__(-1, s["radial_max"][-2] / 2),
    lambda s: s["logged_counts"].__setitem__(-1, s["logged_counts"][-1] + 1),
    lambda s: s.update(branch_records=s["branch_records"] + 1),
]
FK_CORRUPTIONS = [
    lambda s: s.update(estimate=0.5),
    lambda s: s.update(estimate=2.0 * 2.718281828 ** (s["beta"] * s["t"])),
    lambda s: s.update(estimate=2.718281828459045 ** (s["beta"] * s["t"])),
    lambda s: s.update(std_error=0.0),
]
DICHOTOMY_CORRUPTIONS = [
    lambda s: s.update(truncated_runs=1),
    lambda s: s.update(leak_bound_total=1.0),
]
CAMPAIGN_CORRUPTIONS = [
    lambda s: s.update(exit_code=2),
    lambda s: s.update(report=None),
    lambda s: s.update(runs=s["runs"] + 1),
    lambda s: s["report"].update(truncated_runs=1, branch_runs=s["report"]["branch_runs"] - 1),
    lambda s: s["report"].update(diff=6.0 * s["report"]["combined_se"]),
]


@pytest.mark.parametrize(
    "name, corrupt",
    [("growth", c) for c in GROWTH_CORRUPTIONS]
    + [("fk", c) for c in FK_CORRUPTIONS]
    + [("dichotomy", c) for c in DICHOTOMY_CORRUPTIONS]
    + [("campaign", c) for c in CAMPAIGN_CORRUPTIONS],
)
def test_each_check_fails_on_a_corrupted_output(passes, name, corrupt):
    m = passes[name]
    good = m.first[-1]
    assert m.wl.check(good) == []
    bad = copy.deepcopy(good)
    corrupt(bad)
    assert m.wl.check(bad), f"{name}: corrupted summary passed {bad}"


def test_summed_leak_bound_check_can_fail(passes):
    summaries = copy.deepcopy(passes["dichotomy"].first)
    assert checks.dichotomy_total(summaries) == []
    for s in summaries:
        s["leak_bound_total"] = 0.6
    assert checks.dichotomy_total(summaries)


def test_a_repeat_that_differs_counts_as_failed(passes):
    m = copy.deepcopy(passes["dichotomy"])
    altered = dict(m.first[0], pruned_subtrees=m.first[0]["pruned_subtrees"] + 1)
    m.record(0, altered)
    assert m.failed == 1


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    small = SMALL["dichotomy"]

    def corrupted(seed):
        wl = small(seed)
        wl.check = lambda s: ["corrupted"]
        return wl

    monkeypatch.setitem(workloads.WORKLOADS, "dichotomy", corrupted)
    monkeypatch.setattr(run, "setup_samples", lambda args, first: [first])
    rc = run.main(["--workload", "dichotomy", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_pass_repeats_untraced_outputs_and_counts(passes, name, tmp_path):
    m = passes[name]
    layers, problems, counts = run.traced_pass(m.wl, m, tmp_path / "spans.jsonl")
    assert problems == []
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    again = first_pass(name)
    assert again.digests == m.digests and again.derived == m.derived
    _, _, counts_again = run.traced_pass(again.wl, again, tmp_path / "spans2.jsonl")
    assert counts_again == counts


def test_traced_counts_match_the_growth_log(passes, tmp_path):
    m = passes["growth"]
    layers, problems, counts = run.traced_pass(m.wl, m, tmp_path / "spans.jsonl")
    assert counts["branching.events"] == m.derived["branching.events"] > 0
    assert layers["environment.is_blocked.calls"] == m.derived["branching.events"]
    assert layers["feynman_kac.sample_free_times.calls"] == 0


def test_self_time_subtracts_direct_children():
    t = Tracer()
    t.name = ["outer", "inner", "leaf", "inner"]
    t.start = [0.0, 2.0, 3.0, 6.0]
    t.end = [10.0, 5.0, 4.0, 7.0]
    t.parent = [-1, 0, 1, 0]
    t.req = [0, 0, 0, 0]
    times = t.layer_times()
    assert times["outer"] == [1, 10.0, 6.0]
    assert times["inner"] == [2, 4.0, 3.0]
    assert times["leaf"] == [1, 1.0, 1.0]


def test_restore_puts_every_original_back():
    from mildbbm import branching, cli, environment

    before = (branching.run_bbm, cli.run_bbm, environment.ObstacleField.is_blocked)
    t = Tracer()
    t.instrument()
    assert cli.run_bbm is branching.run_bbm is not before[0]
    t.restore()
    assert (branching.run_bbm, cli.run_bbm, environment.ObstacleField.is_blocked) == before


def test_fails_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{here.name}/run.py", "--workload", "growth", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
