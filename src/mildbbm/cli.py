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
never hard-coded.  Each subcommand takes the flags and config keys it
reads, and the gate it reads, as one table (``_COMMANDS``) lists them;
any other flag, key or gate exits 2.  The environment variable
MILDBBM_SEED overrides the master seed (flags still win).  The particle
cap defaults to 2M for every command but dichotomy, which keeps
dichotomy_experiment's own cap unless the config or --cap sets one.
Every output file carries a header with the run's config hash and master
seed.

Exit codes
----------
0  pass
1  statistical gate failed, or (growth-curve, fk-compare, dichotomy) some
   runs hit the particle cap
2  configuration error: a flag, config key or gate key the subcommand
   does not read, or a config that fails the check made when it is
   loaded, by building the model constants, a simulation config and the
   obstacle field it describes
3  campaign invalidated by particle-cap truncation (growth-curve,
   fk-compare and dichotomy: every run hit the cap)
4  internal fault or i/o failure; the traceback goes to stderr
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import traceback

import numpy as np

from .analysis import ModelConstants, clearing_radius, predicted_log_mass
from .branching import (
    Ball,
    SimConfig,
    dichotomy_experiment,
    run_batch,
    run_bbm,  # noqa: F401  not called here; perfbench's tracer test reads cli.run_bbm
)
from .environment import ObstacleField, largest_clearing, save_points, write_table
from .feynman_kac import estimate_quenched_mass, write_estimates_csv
from .genealogy import MrcaLaw, mrca_cdf, sample_pair_mrca, simulate_yule_tree
from .seeds import derive_seed

SEED_ENV_VAR = "MILDBBM_SEED"

_GATE_DEFAULTS = {
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
    _, _, gate, keys = _COMMANDS[args.command]
    cfg = dict(_DEFAULTS)
    cfg.update(_COMMAND_DEFAULTS.get(args.command, {}))
    cfg["gates"] = dict(_GATE_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        if not isinstance(file_cfg, dict) or not isinstance(file_cfg.get("gates", {}), dict):
            raise ConfigError(f"config {args.config} and its gates must be JSON objects")
        gates = file_cfg.pop("gates", {})
        unknown = sorted(set(file_cfg) - set(keys)) + [f"gates.{k}" for k in sorted(set(gates) - {gate})]
        if unknown:
            raise ConfigError(f"{args.command} reads no config keys {unknown}")
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
    _validate(cfg)
    return cfg


def _validate(cfg):
    """Raise ConfigError unless every object a campaign builds from cfg can be
    built; parses the observation times into a tuple of floats."""
    try:
        # bool is an int subclass, and a float seed would reach the field
        # truncated but derive_seed as text
        if type(cfg["seed"]) is not int:
            raise ValueError(f"seed must be an integer, got {cfg['seed']!r}")
        if cfg["cap"] is not None and (type(cfg["cap"]) is not int or cfg["cap"] < 1):
            raise ValueError(f"cap must be an integer >= 1, got {cfg['cap']!r}")
        if not isinstance(cfg["out"], str):
            raise ValueError(f"out must be a path, got {cfg['out']!r}")
        if isinstance(cfg["obs"], str):
            cfg["obs"] = cfg["obs"].split(",")
        if cfg["obs"] is not None:
            cfg["obs"] = tuple(float(v) for v in cfg["obs"])
        mc = ModelConstants(cfg["d"], cfg["nu"], cfg["beta"], cfg["a"])
        SimConfig(
            mc=mc,
            t_max=cfg["t_max"],
            obs_times=cfg["obs"] if cfg["obs"] is not None else (cfg["t_max"],),
            drift=cfg["drift"],
            particle_cap=_DEFAULTS["cap"] if cfg["cap"] is None else cfg["cap"],
            seed=cfg["seed"],
        )
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
        if not isinstance(cfg["empty_env"], bool) or not isinstance(cfg["dt_halving"], bool):
            raise ValueError("empty_env and dt_halving must be true or false")
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
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("spawn")
        workers = min(cfg["workers"], len(blocks))
        with ProcessPoolExecutor(workers, ctx, initializer=_init_worker, initargs=(sim, cfg)) as pool:
            done = list(pool.map(_run_in_worker, blocks))
    work = {key: sum(w[key] for _, w in done) for key in _WORK_COUNTS}
    return [c for curves, _ in done for c in curves], work


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
    nan = float("nan")
    agg, predicted = [], []
    for k, t in enumerate(ts):
        rate = rates[:, k]
        # every rate at t = 0 is NaN, and nanmean and nanmedian warn of that
        mean_rt, median_rt = (float(np.nanmean(rate)), np.nanmedian(rate)) if t > 0 else (nan, nan)
        diag = math.log(t) ** (2.0 / cfg["d"]) * (mean_rt - cfg["beta"]) if t > 1 else nan
        agg.append((t, counts[:, k].mean(), np.median(counts[:, k]), mean_rt, median_rt, diag))
        q = predicted_log_mass(mc, t, "quenched") if t > 1 else nan
        an = predicted_log_mass(mc, t, "annealed") if t > 0 else nan
        predicted.append((t, q, an))
    agg_path = os.path.join(cfg["out"], "aggregated.csv")
    agg_names = ["t", "mean_count", "median_count", "mean_r_t", "median_r_t", "slowdown_diagnostic"]
    write_table(agg_path, agg_names, agg, header)
    pred_names = ["t", "predicted_log_mass_quenched", "predicted_log_mass_annealed"]
    write_table(os.path.join(cfg["out"], "predicted.csv"), pred_names, predicted, header)
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


# the config keys the commands share, in the order their flags are listed
_FIELD = ("d", "nu", "a", "cell_size", "seed", "out")
_RUN = (*_FIELD, "beta", "drift", "t_max", "cap")

# command -> (runner, help, the gate it reads, the config keys it reads); a
# command's flags are its keys, and it refuses every other flag, key and gate
_COMMANDS = {
    "gen-env": (cmd_gen_env, "realise and dump obstacle points in a box", None,
                (*_FIELD, "box_length", "resolution")),
    "growth-curve": (cmd_growth_curve, "replicate runs plus predicted overlays", None,
                     (*_RUN, "obs", "replicates", "workers")),
    "mrca-test": (cmd_mrca_test, "pair-coalescence law validation (KS gate)", "ks_gate",
                  ("beta", "t_max", "seed", "out", "pairs")),
    "fk-compare": (cmd_fk_compare, "branching mean vs path-functional estimate", "se_gate",
                   (*_RUN, "runs", "workers", "n_paths", "dt", "empty_env", "dt_halving")),
    "dichotomy": (cmd_dichotomy, "drifted local growth/extinction experiment", "surv_gate",
                  (*_RUN, "obs", "runs", "prune_tol", "ball_radius")),
    "clearing-stats": (cmd_clearing_stats, "largest clearing vs predicted radius", "clearing_frac",
                       (*_FIELD, "ell", "resolution", "n_seeds")),
}

# flags that are not "--key" taking a value of the type of the key's default
_FLAGS = {
    "obs": ("--obs", {"help": "comma-separated observation times"}),
    "cell_size": ("--cell-size", {"type": float}),
    "empty_env": ("--empty-env", {"action": "store_true", "default": None}),
    "dt_halving": ("--no-dt-halving", {"action": "store_false", "default": None}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildbbm",
        description="Experiment campaigns for branching Brownian motion among blocking obstacles",
        epilog=f"The environment variable {SEED_ENV_VAR} overrides the master seed.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, _, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for key in keys:
            flag, kwargs = _FLAGS.get(key, ("--" + key.replace("_", "-"), {"type": type(_DEFAULTS[key])}))
            p.add_argument(flag, dest=key, **kwargs)
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
        return _COMMANDS[args.command][0](cfg)
    except Exception:
        traceback.print_exc()
        print("internal fault or i/o failure (traceback above)", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
