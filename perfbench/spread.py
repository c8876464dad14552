"""Run every workload (or the listed ones) over seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1                       # every workload once
    python3 perfbench/spread.py --workload growth --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload growth --seeds 7 7 7 7 7

Runs ``run.py`` once per workload and listed seed, one after the other.
Prints one line per workload and metric (median, unit, quartile spread)
and then one JSON object: per workload and metric the values, their
median, quartiles and the distance between the quartiles as a share of the
median.  Metrics printed only on run.py's human-readable lines
(``failed_frac``, ``raw_wall_s``, ``particles_per_s``, ...) are included.
Exits with the first failing run's exit code, after printing its output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["growth", "fk", "dichotomy", "campaign"]


def spread(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr_frac": 0.0, "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    iqr_frac = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": iqr_frac, "values": values}


def run_seeds(workload, seeds, seconds, trace):
    """(values, units) per metric over the seeds, or the failing run's exit code."""
    values, units = {}, {}
    for seed in seeds:
        cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        metrics = json.loads(lines[-1])["metrics"]
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3 and parts[0] not in metrics:
                try:
                    values.setdefault(parts[0], []).append(float(parts[1]))
                except ValueError:
                    continue
                units[parts[0]] = parts[2]
    return values, units


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    out = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        got = run_seeds(workload, args.seeds, args.seconds, args.trace)
        if isinstance(got, int):
            return got
        values, units = got
        out["workloads"][workload] = {k: dict(spread(v), unit=units[k]) for k, v in values.items()}
        for name, s in out["workloads"][workload].items():
            print(f"{workload} {name} {s['median']:.6g} {s['unit']} iqr_frac={s['iqr_frac']}")
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
