"""Campaign runner: environment dumps, growth curves, and validation gates.

Subcommands
-----------
gen-env         realise obstacle points in a box, dump fixture + summary
growth-curve    replicate obstacle runs; per-replicate and aggregated CSVs
                plus the predicted quenched/annealed overlay curves
mrca-test       pair-coalescence law versus simulated pairs (KS gate)
fk-compare      branching-run mean population versus the path-functional
                estimate on one fixed environment (combined-SE gate)
dichotomy       drifted local growth/extinction experiment, labels checked
                against the beta = b^2/2 crossover
clearing-stats  largest grid clearing versus the predicted clearing radius
                across seeds (fraction gate)

growth-curve and fk-compare step their runs in batches of 64 run indices
(``run_batch``), one batch per task; run i keeps its seed
hash(master seed, "run", i), so outputs depend neither on the batches nor
on the worker count.

Configuration comes from an optional JSON file (--config) overridden by
flags; statistical gate levels live in the config under "gates" and are
never hard-coded.  The environment variable MILDBBM_SEED overrides the
master seed (flags still win).  The particle cap defaults to 2M for every
command but dichotomy, which keeps dichotomy_experiment's own cap unless
the config or --cap sets one.  Every output file carries a header with
the run's config hash and master seed.

Exit codes
----------
0  pass
1  statistical gate failed, or (growth-curve, fk-compare, dichotomy) some
   runs hit the particle cap
2  configuration error: the config is checked when it is loaded, by
   building the model constants, a simulation config and the obstacle
   field it describes
3  campaign invalidated by particle-cap truncation (growth-curve,
   fk-compare and dichotomy: every run hit the cap)
4  internal fault or i/o failure; the traceback goes to stderr
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .analysis import ModelConstants, clearing_radius, predicted_log_mass
from .branching import (
    Ball,
    SimConfig,
    dichotomy_experiment,
    run_batch,
    run_bbm,  # noqa: F401  not called here; perfbench's tracer test reads cli.run_bbm
)
from .environment import ObstacleField, largest_clearing, save_points, write_header
from .feynman_kac import estimate_quenched_mass, write_estimates_csv
from .genealogy import MrcaLaw, mrca_cdf, sample_pair_mrca, simulate_yule_tree
from .seeds import derive_seed

SEED_ENV_VAR = "MILDBBM_SEED"

_GATE_DEFAULTS = {
    "alpha": 0.01,          # significance for KS/chi-square style gates
    "ks_gate": 0.01,        # absolute KS distance gate for mrca-test
    "se_gate": 3.0,         # combined-SE multiple for fk-compare
    "surv_gate": 0.05,      # survival fraction separating extinct-like
    "clearing_frac": 0.95,  # fraction of seeds that must reach the radius
}

_DEFAULTS = {
    "d": 1,
    "nu": 1.0,
    "a": 0.1,
    "beta": 1.0,
    "drift": 0.0,
    "t_max": 4.0,
    "obs": None,
    "cap": 2_000_000,
    "seed": 1,
    "replicates": 8,
    "workers": 1,
    "out": "out",
    "cell_size": None,
    # command extras
    "box_length": 1000.0,
    "resolution": 0.5,
    "ell": 10_000.0,
    "n_seeds": 100,
    "pairs": 20_000,
    "n_paths": 4000,
    "dt": 1e-3,
    "runs": 4000,
    "n_envs": 8,
    "prune_tol": 1e-8,
    "ball_radius": 1.0,
    "empty_env": False,
    "dt_halving": True,
}

# per-command changes to _DEFAULTS; a cap of None leaves dichotomy_experiment
# its own particle_cap, which is sized for its pruned runs
_COMMAND_DEFAULTS = {"dichotomy": {"cap": None}}


class ConfigError(ValueError):
    pass


def _load_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    cfg.update(_COMMAND_DEFAULTS.get(args.command, {}))
    cfg["gates"] = dict(_GATE_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        gates = file_cfg.pop("gates", {})
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
        cfg["gates"].update(gates)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    for key, val in vars(args).items():
        if key in cfg and val is not None:
            cfg[key] = val
    if cfg["obs"] is not None:
        if isinstance(cfg["obs"], str):
            cfg["obs"] = tuple(float(v) for v in cfg["obs"].split(","))
        else:
            cfg["obs"] = tuple(float(v) for v in cfg["obs"])
    _validate(cfg)
    return cfg


def _validate(cfg):
    """Raise ConfigError unless every object a campaign builds from cfg can be built."""
    try:
        mc = ModelConstants(cfg["d"], cfg["nu"], cfg["beta"], cfg["a"])
        SimConfig(
            mc=mc,
            t_max=cfg["t_max"],
            obs_times=cfg["obs"] if cfg["obs"] is not None else (cfg["t_max"],),
            drift=cfg["drift"],
            particle_cap=_DEFAULTS["cap"] if cfg["cap"] is None else cfg["cap"],
            seed=cfg["seed"],
        ).drift_vector
        ObstacleField(cfg["d"], cfg["nu"], cfg["a"], cfg["seed"], cfg["cell_size"])
        clearing_radius(cfg["ell"], mc)
        for name in ("dt", "resolution", "ball_radius"):
            if not cfg[name] > 0:
                raise ValueError(f"{name} must be positive, got {cfg[name]}")
        counts = (("replicates", 1), ("workers", 1), ("runs", 1), ("pairs", 1), ("n_seeds", 1), ("n_paths", 2))
        for name, least in counts:
            if int(cfg[name]) != cfg[name] or cfg[name] < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {cfg[name]}")
        if not cfg["box_length"] >= 0 or not cfg["prune_tol"] >= 0:
            raise ValueError("box_length and prune_tol must be >= 0")
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _spec_hash(cfg: dict) -> str:
    # workers and output directory affect scheduling and placement only,
    # never results, so they stay out of the campaign's identity
    payload = {k: v for k, v in cfg.items() if k not in ("out", "workers")}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _header(cfg) -> str:
    return f"spec_sha256={_spec_hash(cfg)} master_seed={cfg['seed']}"


def _write_report(cfg, name: str, report: dict) -> str:
    os.makedirs(cfg["out"], exist_ok=True)
    report = dict(report)
    report["spec_sha256"] = _spec_hash(cfg)
    report["master_seed"] = cfg["seed"]
    path = os.path.join(cfg["out"], name)
    with open(path, "w") as fh:
        json.dump(_finite(report), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _finite(obj):
    """obj with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# -- campaign runs ---------------------------------------------------------------


def _campaign_field(cfg) -> ObstacleField:
    if cfg["empty_env"]:
        return ObstacleField.from_points([], a=cfg["a"], d=cfg["d"])
    return ObstacleField(cfg["d"], cfg["nu"], cfg["a"], cfg["seed"], cfg["cell_size"])


# runs stepped as one batch, one batch per task, in growth-curve and fk-compare
_BLOCK = 64
# engine work counts that the growth-curve and fk-compare reports total
_WORK_COUNTS = ("events", "rejected", "rounds")


def _run_block(sim, cfg, field, runs):
    """Curves (None for a run that hit the particle cap) and work counts of
    the campaign runs ``runs`` of ``sim``, stepped as one batch."""
    seeds = [derive_seed(cfg["seed"], "run", i) for i in runs]
    curves, _, stats = run_batch(sim, [field] * len(seeds), seeds)
    return [None if cut else c for c, cut in zip(curves, stats["truncated"])], {key: stats[key] for key in _WORK_COUNTS}


# state of one pool worker process, set once by its initializer
_worker = {}


def _init_worker(sim, cfg):
    _worker.update(sim=sim, cfg=cfg, field=_campaign_field(cfg))


def _run_in_worker(runs):
    return _run_block(_worker["sim"], _worker["cfg"], _worker["field"], runs)


def _replicates(cfg, sim, n, field=None):
    """Curves of the campaign's runs 0 .. n-1 of ``sim`` (None where
    truncated) and their work counts summed.

    The runs go in blocks of ``_BLOCK``, one :func:`_run_block` task each.
    Run i draws from seed hash(master seed, "run", i), so the results
    depend neither on the blocks nor on the workers.  Cells are realised on
    first touch and never change, so one field serves every run of a
    process: the caller's ``field`` (or a new one) in process, one per
    worker process when ``cfg["workers"] > 1``.
    """
    blocks = [range(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    if cfg["workers"] == 1:
        field = field if field is not None else _campaign_field(cfg)
        done = [_run_block(sim, cfg, field, runs) for runs in blocks]
    else:
        ctx = multiprocessing.get_context("spawn")
        workers = min(cfg["workers"], len(blocks))
        with ProcessPoolExecutor(workers, ctx, initializer=_init_worker, initargs=(sim, cfg)) as pool:
            done = list(pool.map(_run_in_worker, blocks))
    work = {key: sum(w[key] for _, w in done) for key in _WORK_COUNTS}
    return [c for curves, _ in done for c in curves], work


def _fmt(x) -> str:
    return f"{x:.12g}"


# -- gen-env -------------------------------------------------------------------


def cmd_gen_env(cfg) -> int:
    d = cfg["d"]
    L = float(cfg["box_length"])
    field = ObstacleField(d, cfg["nu"], cfg["a"], cfg["seed"], cfg["cell_size"])
    if L > 0:
        pts = field.realize_box([-L / 2.0] * d, [L / 2.0] * d)
    else:
        pts = np.empty((0, d))
    os.makedirs(cfg["out"], exist_ok=True)
    points_path = os.path.join(cfg["out"], "points.txt")
    save_points(points_path, pts, header=_header(cfg))
    summary = {
        "field": field.spec_record(),
        "box_length": L,
        "count": int(len(pts)),
        "density_estimate": float(len(pts) / L**d) if L > 0 else None,
    }
    if L > 0 and len(pts):
        cl = largest_clearing(field, L / 2.0, max(L / 2000.0, cfg["resolution"]))
        summary["largest_clearing"] = {"center": list(cl.center), "radius": cl.radius}
    _write_report(cfg, "env_summary.json", summary)
    print(f"gen-env: {summary['count']} points in box of length {L} -> {points_path}")
    return 0


# -- growth-curve --------------------------------------------------------------


def cmd_growth_curve(cfg) -> int:
    if cfg["obs"] is None:
        t = cfg["t_max"]
        cfg["obs"] = tuple(t * k / 4.0 for k in range(1, 5))
    mc = ModelConstants(cfg["d"], cfg["nu"], cfg["beta"], cfg["a"])
    sim = SimConfig(
        mc=mc,
        t_max=cfg["t_max"],
        obs_times=cfg["obs"],
        drift=cfg["drift"],
        particle_cap=cfg["cap"],
        balls=(Ball("origin_unit", (0.0,) * cfg["d"], 1.0),),
    )
    results, work = _replicates(cfg, sim, cfg["replicates"])
    os.makedirs(cfg["out"], exist_ok=True)
    header = _header(cfg)
    curves = []
    truncated = 0
    for i, curve in enumerate(results):
        if curve is None:
            truncated += 1
            continue
        curve.to_csv(os.path.join(cfg["out"], f"replicate_{i:04d}.csv"), header=header)
        curves.append(curve)
    if not curves:
        print("growth-curve: every replicate hit the particle cap; campaign invalid", file=sys.stderr)
        return 3

    ts = np.asarray(cfg["obs"])
    counts = np.stack([c.counts for c in curves])
    rates = np.stack([c.rates for c in curves])
    d = cfg["d"]
    beta = cfg["beta"]
    agg_path = os.path.join(cfg["out"], "aggregated.csv")
    with open(agg_path, "w") as fh:
        write_header(fh, header)
        fh.write("t,mean_count,median_count,mean_r_t,median_r_t,slowdown_diagnostic\n")
        for k, t in enumerate(ts):
            mean_rt = float(np.nanmean(rates[:, k]))
            diag = (math.log(t)) ** (2.0 / d) * (mean_rt - beta) if t > 1 else float("nan")
            fh.write(
                f"{_fmt(t)},{_fmt(counts[:, k].mean())},{_fmt(np.median(counts[:, k]))},"
                f"{_fmt(mean_rt)},{_fmt(float(np.nanmedian(rates[:, k])))},{_fmt(diag)}\n"
            )
    pred_path = os.path.join(cfg["out"], "predicted.csv")
    with open(pred_path, "w") as fh:
        write_header(fh, header)
        fh.write("t,predicted_log_mass_quenched,predicted_log_mass_annealed\n")
        for t in ts:
            q = predicted_log_mass(mc, t, "quenched") if t > 1 else float("nan")
            an = predicted_log_mass(mc, t, "annealed") if t > 0 else float("nan")
            fh.write(f"{_fmt(t)},{_fmt(q)},{_fmt(an)}\n")
    _write_report(
        cfg,
        "growth_summary.json",
        {"replicates": cfg["replicates"], "truncated": truncated, "usable": len(curves), **work},
    )
    print(f"growth-curve: {len(curves)} usable replicates ({truncated} truncated) -> {agg_path}")
    # the truncated replicates are the heaviest, so the survivors' mean is biased low
    return 1 if truncated else 0


# -- mrca-test -----------------------------------------------------------------


def cmd_mrca_test(cfg) -> int:
    import random

    beta, t, n = cfg["beta"], cfg["t_max"], cfg["pairs"]
    law = MrcaLaw(t=t, beta=beta)
    rng = random.Random(derive_seed(cfg["seed"], "mrca"))
    samples = np.empty(n)
    for k in range(n):
        tree = simulate_yule_tree(beta, t, rng, min_leaves=2)
        samples[k], _ = sample_pair_mrca(tree, rng)
    samples.sort()
    grid = np.arange(1, n + 1) / n
    cdf_vals = np.asarray([mrca_cdf(law, u) for u in samples])
    ks = float(np.max(np.maximum(np.abs(grid - cdf_vals), np.abs(grid - 1.0 / n - cdf_vals))))
    gate = cfg["gates"]["ks_gate"]
    passed = ks < gate
    report = {
        "beta": beta,
        "t": t,
        "pairs": n,
        "ks_stat": ks,
        "ks_gate": gate,
        "pass": bool(passed),
    }
    path = _write_report(cfg, "mrca_report.json", report)
    print(f"mrca-test: KS={ks:.5f} gate={gate} {'PASS' if passed else 'FAIL'} -> {path}")
    return 0 if passed else 1


# -- fk-compare ----------------------------------------------------------------


def cmd_fk_compare(cfg) -> int:
    field = _campaign_field(cfg)
    mc = ModelConstants(cfg["d"], cfg["nu"], cfg["beta"], cfg["a"])
    sim = SimConfig(
        mc=mc, t_max=cfg["t_max"], obs_times=(cfg["t_max"],), drift=cfg["drift"], particle_cap=cfg["cap"]
    )
    curves, work = _replicates(cfg, sim, cfg["runs"], field)
    sizes = np.asarray([c.counts[-1] for c in curves if c is not None], dtype=float)
    truncated = cfg["runs"] - len(sizes)
    if len(sizes) == 0:
        print("fk-compare: every branching run hit the particle cap", file=sys.stderr)
        return 3
    branch_mean = float(sizes.mean())
    branch_se = float(sizes.std(ddof=1) / math.sqrt(len(sizes)))

    est = estimate_quenched_mass(
        field, cfg["beta"], cfg["t_max"], cfg["dt"], cfg["n_paths"], derive_seed(cfg["seed"], "fk"), cfg["drift"]
    )
    combined_se = math.hypot(branch_se, est.std_error)
    diff = abs(branch_mean - est.point_estimate)
    gate = cfg["gates"]["se_gate"]
    # the truncated runs are the heaviest, so the survivors' mean is biased low
    passed = (diff <= gate * combined_se or diff == 0.0) and truncated == 0
    halving_shift = None
    halving_pass = None
    if cfg["dt_halving"]:
        est_half = estimate_quenched_mass(
            field,
            cfg["beta"],
            cfg["t_max"],
            cfg["dt"] / 2.0,
            cfg["n_paths"],
            derive_seed(cfg["seed"], "fk-half"),
            cfg["drift"],
        )
        halving_shift = abs(est_half.point_estimate - est.point_estimate)
        halving_se = math.hypot(est.std_error, est_half.std_error)
        halving_pass = halving_shift < 2.0 * halving_se
        passed = passed and halving_pass
    os.makedirs(cfg["out"], exist_ok=True)
    write_estimates_csv(os.path.join(cfg["out"], "fk_estimates.csv"), [est], header=_header(cfg))
    report = {
        "branch_mean": branch_mean,
        "branch_se": branch_se,
        "branch_runs": int(len(sizes)),
        "truncated_runs": int(truncated),
        "fk_estimate": est.point_estimate,
        "fk_se": est.std_error,
        "diff": diff,
        "combined_se": combined_se,
        "se_gate": gate,
        "halving_shift": halving_shift,
        "halving_pass": halving_pass,
        "pass": bool(passed),
        **work,
    }
    path = _write_report(cfg, "fk_report.json", report)
    print(
        f"fk-compare: branching {branch_mean:.4f}±{branch_se:.4f} vs FK "
        f"{est.point_estimate:.4f}±{est.std_error:.4f} "
        f"({'PASS' if passed else 'FAIL'}) -> {path}"
    )
    if truncated and truncated == cfg["runs"]:
        return 3
    return 0 if passed else 1


# -- dichotomy -----------------------------------------------------------------


def cmd_dichotomy(cfg) -> int:
    cap = {} if cfg["cap"] is None else {"particle_cap": cfg["cap"]}
    report = dichotomy_experiment(
        cfg["drift"],
        cfg["beta"],
        cfg["nu"],
        cfg["a"],
        cfg["t_max"],
        cfg["runs"],
        d=cfg["d"],
        seed=cfg["seed"],
        obs_times=cfg["obs"],
        ball_radius=cfg["ball_radius"],
        prune_tol=cfg["prune_tol"],
        cell_size=cfg["cell_size"],
        surv_gate=cfg["gates"]["surv_gate"],
        **cap,
    )
    label = report["observed_label"]
    passed = label == report["predicted_regime"] and report["truncated_runs"] == 0
    report["pass"] = bool(passed)
    path = _write_report(cfg, "dichotomy_report.json", report)
    print(
        f"dichotomy: predicted={report['predicted_regime']} observed={label} "
        f"survival={report['survival_fraction']:.3f} slope={report['slope']} "
        f"({'PASS' if passed else 'FAIL'}) -> {path}"
    )
    if report["truncated_runs"] == cfg["runs"]:
        return 3
    return 0 if passed else 1


# -- clearing-stats ------------------------------------------------------------


def cmd_clearing_stats(cfg) -> int:
    mc = ModelConstants(cfg["d"], cfg["nu"], cfg["beta"], cfg["a"])
    target = clearing_radius(cfg["ell"], mc)
    radii = []
    for k in range(cfg["n_seeds"]):
        field = ObstacleField(cfg["d"], cfg["nu"], cfg["a"], derive_seed(cfg["seed"], "clearing", k), cfg["cell_size"])
        cl = largest_clearing(field, cfg["ell"], cfg["resolution"])
        radii.append(cl.radius)
    radii = np.asarray(radii)
    frac = float((radii >= target).mean())
    gate = cfg["gates"]["clearing_frac"]
    passed = frac >= gate
    report = {
        "ell": cfg["ell"],
        "resolution": cfg["resolution"],
        "n_seeds": cfg["n_seeds"],
        "predicted_radius": target,
        "fraction_reaching": frac,
        "gate": gate,
        "median_radius": float(np.median(radii)),
        "min_radius": float(radii.min()),
        "pass": bool(passed),
    }
    path = _write_report(cfg, "clearing_report.json", report)
    print(
        f"clearing-stats: {frac:.2f} of seeds reach radius {target:.4f} "
        f"({'PASS' if passed else 'FAIL'}) -> {path}"
    )
    return 0 if passed else 1


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildbbm",
        description="Experiment campaigns for branching Brownian motion among blocking obstacles",
        epilog=f"The environment variable {SEED_ENV_VAR} overrides the master seed.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--d", type=int)
        p.add_argument("--nu", type=float)
        p.add_argument("--a", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--drift", type=float)
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--obs", help="comma-separated observation times")
        p.add_argument("--cap", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--replicates", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--out")
        p.add_argument("--cell-size", dest="cell_size", type=float)

    p = sub.add_parser("gen-env", help="realise and dump obstacle points in a box")
    add_common(p)
    p.add_argument("--box-length", dest="box_length", type=float)
    p.add_argument("--resolution", type=float)
    p.set_defaults(func=cmd_gen_env)

    p = sub.add_parser("growth-curve", help="replicate runs plus predicted overlays")
    add_common(p)
    p.set_defaults(func=cmd_growth_curve)

    p = sub.add_parser("mrca-test", help="pair-coalescence law validation (KS gate)")
    add_common(p)
    p.add_argument("--pairs", type=int)
    p.set_defaults(func=cmd_mrca_test)

    p = sub.add_parser("fk-compare", help="branching mean vs path-functional estimate")
    add_common(p)
    p.add_argument("--runs", type=int)
    p.add_argument("--n-paths", dest="n_paths", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--empty-env", dest="empty_env", action="store_true", default=None)
    p.add_argument("--no-dt-halving", dest="dt_halving", action="store_false", default=None)
    p.set_defaults(func=cmd_fk_compare)

    p = sub.add_parser("dichotomy", help="drifted local growth/extinction experiment")
    add_common(p)
    p.add_argument("--runs", type=int)
    p.add_argument("--prune-tol", dest="prune_tol", type=float)
    p.add_argument("--ball-radius", dest="ball_radius", type=float)
    p.set_defaults(func=cmd_dichotomy)

    p = sub.add_parser("clearing-stats", help="largest clearing vs predicted radius")
    add_common(p)
    p.add_argument("--ell", type=float)
    p.add_argument("--resolution", type=float)
    p.add_argument("--n-seeds", dest="n_seeds", type=int)
    p.set_defaults(func=cmd_clearing_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg)
    except Exception:
        traceback.print_exc()
        print("internal fault or i/o failure (traceback above)", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
