"""Output checks, one function per workload, over the summaries it produces.

Each check returns a list of problems; an empty list means the output is
correct.  The summaries are plain dicts so that tests can corrupt them.
"""

from __future__ import annotations

import math


def _non_decreasing(xs):
    return all(b >= a for a, b in zip(xs, xs[1:]))


def growth(s):
    """One replicate of ``run_bbm``."""
    if s["truncated"]:
        return ["run truncated by the particle cap"]
    problems = []
    counts = s["counts"]
    if min(counts) < 1:
        problems.append(f"count below 1: {counts}")
    if not _non_decreasing(counts):
        problems.append(f"counts decrease: {counts}")
    for name, local in s["local_counts"].items():
        if any(lc > c for lc, c in zip(local, counts)):
            problems.append(f"local count {name} exceeds the total: {local} > {counts}")
    if not _non_decreasing(s["radial_max"]):
        problems.append(f"radial_max decreases: {s['radial_max']}")
    if s["logged_counts"] != counts:
        problems.append(f"population_at(log, t) {s['logged_counts']} != counts {counts}")
    if s["branch_records"] != counts[-1] - 1:
        problems.append(f"{s['branch_records']} branch records for {counts[-1]} final particles")
    return problems


def fk(s):
    """One environment's ``estimate_annealed_mass``."""
    problems = []
    est, cap = s["estimate"], math.exp(s["beta"] * s["t"])
    if not 1.0 <= est <= cap:
        problems.append(f"estimate {est} outside [1, e^(beta t) = {cap}]")
    if not s["std_error"] > 0:
        problems.append(f"standard error {s['std_error']} is not positive")
    if not (est > 0 and s["beta"] * s["t"] - math.log(est) > 0):
        problems.append(f"no slowdown: beta t - log(estimate) <= 0 for estimate {est}")
    return problems


def dichotomy(s):
    """One chunk of ``dichotomy_experiment`` runs."""
    problems = []
    if s["truncated_runs"] != 0:
        problems.append(f"{s['truncated_runs']} runs truncated by the particle cap")
    if not s["leak_bound_total"] < 1:
        problems.append(f"leak bound {s['leak_bound_total']} is not below one particle")
    return problems


def dichotomy_total(summaries):
    """The whole experiment: the summed leak bound stays below one particle."""
    total = sum(s["leak_bound_total"] for s in summaries)
    return [] if total < 1 else [f"summed leak bound {total} is not below one particle"]


def campaign(s):
    """One ``mildbbm fk-compare`` campaign.

    The campaign's own dt-halving gate is recorded, not checked: a new random
    stream fails its 2-SE level about one time in twenty.
    """
    if s["exit_code"] not in (0, 1):
        return [f"fk-compare exited with {s['exit_code']}"]
    report = s["report"]
    if report is None:
        return ["fk_report.json was not written"]
    problems = []
    if report["branch_runs"] + report["truncated_runs"] != s["runs"]:
        problems.append(
            f"{report['branch_runs']} + {report['truncated_runs']} runs reported, {s['runs']} requested"
        )
    if report["truncated_runs"]:
        problems.append(f"{report['truncated_runs']} runs truncated by the particle cap")
    if not report["diff"] <= 5.0 * report["combined_se"]:
        problems.append(f"|diff| {report['diff']} exceeds 5 combined SE ({report['combined_se']})")
    return problems
