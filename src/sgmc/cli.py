"""Command-line harness: run configured sampling experiments and compare the
resulting samples against a closed-form posterior or the Metropolis oracle.

Exit codes: 0 success, 2 configuration error, 3 numeric chain failure
(partial outputs are kept).  Configuration comes from ``--demo`` presets
and/or a JSON config file; any same-named flag overrides both.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import io as sample_io
from .core import RandomKey
from .diagnostics import diagnostics_summary
from .errors import ChainError, ConfigurationError, check_kwargs, check_type, parameters
from .models import get_model, rwmh_oracle, synth_data_generate
from .scheduler import init_scheduler
from .solver import (KNOBS, SAMPLER_NAMES, SETTINGS, STEP_SIZE_DECAY, build_sampler,
                     make_solver, run_mcmc)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    """Validated run description; mirrors the JSON config layout."""

    model: str = "gaussian_mean"
    model_args: dict = field(default_factory=dict)      # constructor kwargs
    true_params: dict = field(default_factory=dict)     # data-generating values
    n_obs: int = 200
    sampler: str = "sgld"
    sampler_args: dict = field(default_factory=dict)    # per-sampler knobs
    step_size_first: float | None = 0.01
    step_size_last: float | None = 0.0005
    step_size_decay: float = STEP_SIZE_DECAY
    target_accept: float | None = None
    step_size_init: float | None = None
    iterations: int = 10000
    burn_in: int = parameters(init_scheduler)["burn_in"].default
    selections: int | None = None
    batch_size: int = 32
    batch_strategy: str = parameters(make_solver)["batch_strategy"].default
    temperature: float = parameters(init_scheduler)["temperature"].default
    seed: int = 0
    chains: int = parameters(run_mcmc)["chains"].default
    output: str = "runs/latest"
    format: str = "jsonl"

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()
        ).hexdigest()[:16]

DEMOS = {
    # RunConfig's conjugate normal-location target, sampled with plain SGLD
    "gaussian": {
        "true_params": {"mu": 0.5},
        "iterations": 100000,
        "burn_in": 20000,
        "selections": 8000,
        "batch_strategy": "shuffle_in_epochs",
        "seed": 42,
    },
    # 4-weight regression with learned noise scale, pSGLD
    "regression": {
        "model": "linreg_sigma",
        "model_args": {"n_weights": 4},
        "true_params": {"w": [0.5, -1.0, 2.0, 0.25], "sigma": 0.25, "x_scale": 2.0},
        "n_obs": 256,
        "sampler": "psgld",
        "step_size_first": 0.05,
        "step_size_last": 0.001,
        "burn_in": 2000,
        "selections": 1000,
        "batch_size": 128,
        "batch_strategy": "shuffle_in_epochs",
        "seed": 7,
    },
    # bimodal target, replica-exchange SGLD against a tau=10 companion chain
    "mixture": {
        "model": "mixture_1d",
        "model_args": {"width": 0.7},
        "n_obs": 1,
        "sampler": "resgld",
        "sampler_args": {"tau_high": 10.0, "swap_interval": 50, "correction": 1.0,
                         "hot_step_factor": 100.0},
        "step_size_first": 3e-4,
        "step_size_last": 1.5e-4,
        "iterations": 100000,
        "burn_in": 10000,
        "selections": 9000,
        "batch_size": 1,
        "seed": 3,
    },
}


def load_config(demo: str | None, config_path: str | None, overrides: dict) -> RunConfig:
    merged: dict = {}
    if demo is not None:
        if demo not in DEMOS:
            raise ConfigurationError(f"unknown demo {demo!r}", field="demo")
        merged.update(DEMOS[demo])
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        check_type("config", loaded, (dict,))
        merged.update(loaded)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    check_kwargs("the run configuration", RunConfig, merged)
    cfg = RunConfig(**merged)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig):
    """Run-level checks; the sampler, model, schedule and chain driver check their own."""
    if cfg.format not in ("jsonl", "csv"):
        raise ConfigurationError(f"unknown format {cfg.format!r}", field="format")
    for key in cfg.sampler_args:  # a setting here would bypass its own field's rules
        if not any(key in knobs for knobs in KNOBS.values()):
            raise ConfigurationError("no sampler takes this knob", field=key)


def _model_and_data(cfg: RunConfig):
    """The run's model and dataset: ``compare`` scores the data that ``run`` sampled."""
    model = get_model(cfg.model, **cfg.model_args)
    return model, synth_data_generate(model, RandomKey(cfg.seed).child(0), cfg.n_obs,
                                      cfg.true_params or None)


def _chain_summary(result) -> dict:
    variables = {}
    store = result["store"]
    flat = store.stacked()
    for j, name in enumerate(sample_io.flat_column_names(store.layout)):
        col = flat[:, j]
        # partial stores from failed chains can hold absurd magnitudes: no figures then
        usable = col.shape[0] >= 2 and np.all(np.isfinite(col)) \
            and np.abs(col).max() < 1e100
        if usable:
            variables[name] = diagnostics_summary(col)
        else:
            variables[name] = {"mean": None, "std": None, "ess": None}
    return {
        "chain_id": result["chain_id"],
        "status": result["status"],
        "sample_count": result["sample_count"],
        "acceptance_rate": result["acceptance_rate"],
        "runtime_s": result["runtime"],
        "gradient_evaluations": result["gradient_evaluations"],
        "variables": variables,
    }


def _under_a_directory(path: Path) -> Path:
    """``path``, refused naming ``output`` before any sampling if it lies under a file."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigurationError(f"{existing} is not a directory", field="output")
    return path


def write_outputs(cfg: RunConfig, results: list[dict], out_dir: Path,
                  wall_time: float, error: dict | None = None) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        store = result["store"]
        path = out_dir / f"samples_chain{store.chain_id}.{cfg.format}"
        sample_io.finalize_results(store, cfg.format, path)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "config_digest": cfg.digest(),
        "sampler": cfg.sampler,
        "model": cfg.model,
        "seed": cfg.seed,
        "wall_time_s": wall_time,
        "chains": [_chain_summary(r) for r in results],
    }
    if error is not None:
        summary["error"] = error
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return out_dir / "summary.json"


def run_command(args) -> int:
    overrides = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    try:
        cfg = load_config(args.demo, args.config, overrides)
        model, dataset = _model_and_data(cfg)
        settings = {k: v for k, v in vars(cfg).items() if k in SETTINGS}
        bundle_cfg = {**settings, **cfg.sampler_args, "model": model, "dataset": dataset}
        bundle = build_sampler(cfg.sampler, bundle_cfg)
    except (OSError, ValueError) as exc:  # a ConfigurationError keeps its field
        raise exc if isinstance(exc, ConfigurationError) else ConfigurationError(str(exc))
    out_dir = _under_a_directory(Path(cfg.output))
    started = time.perf_counter()
    try:  # a ConfigurationError here refuses the run before any chain runs
        results = bundle.run(chains=cfg.chains)
    except ChainError as exc:
        write_outputs(cfg, exc.results, out_dir, time.perf_counter() - started,
                      error={"message": str(exc), "iteration": exc.iteration})
        print(f"chain failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    summary_path = write_outputs(cfg, results, out_dir, time.perf_counter() - started)
    total = sum(r["sample_count"] for r in results)
    print(f"collected {total} samples across {cfg.chains} chain(s) -> {summary_path}")
    return EXIT_OK


def _load_run(run_dir: Path):
    """The run's config, its variable names and the flat samples of every chain
    whose status is "ok", pooled in chain order.  Config fields that ``RunConfig``
    no longer declares, kept by runs of older versions, are dropped."""
    with open(run_dir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    cfg = RunConfig(**{k: v for k, v in summary["config"].items()
                       if k in RunConfig.__dataclass_fields__})
    reader = sample_io.read_jsonl if cfg.format == "jsonl" else sample_io.read_csv_samples
    chains = [c for c in summary["chains"] if c.get("status", "ok") == "ok"]
    names, flat, start = [], np.empty((0, 0)), 0
    for chain in chains:
        cid, count = chain["chain_id"], chain["sample_count"]
        iterations, variables = reader(run_dir / f"samples_chain{cid}.{cfg.format}")
        if len(iterations) != count:
            raise ValueError(f"chain {cid} has {len(iterations)} rows in its file, not {count}")
        if variables:  # an empty JSON Lines file names no variables
            if not names:  # the pooled matrix, sized from summary.json
                flat = np.empty((sum(c["sample_count"] for c in chains),
                                 sum(v.shape[1] for v in variables.values())))
            names = list(variables)
            np.concatenate(list(variables.values()), axis=1, out=flat[start:start + count])
            start += count
    return cfg, names, flat


def _column_stats(columns: list[str], mat: np.ndarray) -> dict[str, tuple[float, float]]:
    return {name: (float(mat[:, j].mean()), float(mat[:, j].std(ddof=1)))
            for j, name in enumerate(columns)}


def compare_command(args) -> int:
    if args.oracle_steps < 2:  # the oracle's std needs two kept samples
        raise ConfigurationError("need at least two oracle steps", field="oracle_steps")
    run_dir = Path(args.run)
    try:
        cfg, names, flat = _load_run(run_dir)
    except (OSError, TypeError, ValueError) as exc:  # ValueError: unreadable samples
        raise ConfigurationError(f"cannot load run artifacts: {exc}") from exc
    if flat.shape[0] < 2:
        raise ConfigurationError("need at least two samples from chains with status ok")
    model, dataset = _model_and_data(cfg)
    model_names = [name for name, _ in model.layout]
    columns = sample_io.flat_column_names(model.layout)
    if names != model_names or flat.shape[1] != len(columns):
        raise ConfigurationError(f"variable mismatch: run has {names}, model has {model_names}")
    sampler_stats = _column_stats(columns, flat)
    out_path = Path(args.output) if args.output else run_dir / "compare_report.json"
    _under_a_directory(out_path.parent)

    if args.reference == "analytic":
        if model.analytic_posterior is None:
            raise ConfigurationError(f"model {cfg.model!r} has no analytic posterior",
                                     field="reference")
        ref = model.analytic_posterior(dataset)
        mean, std = (np.concatenate([np.ravel(ref[key][name]) for name in model_names])
                     for key in ("mean", "std"))
        ref_stats = dict(zip(columns, zip(mean.tolist(), std.tolist())))
    else:
        scale = np.array([max(std, 1e-6) for _, std in sampler_stats.values()])
        scale = scale * 2.4 / np.sqrt(scale.shape[0])
        oracle = rwmh_oracle(model, dataset, model.init, scale,
                             steps=args.oracle_steps, key=RandomKey(cfg.seed).child(9))
        ref_stats = _column_stats(columns, oracle["samples"])

    report = {"schema_version": SCHEMA_VERSION, "reference": args.reference,
              "run": str(run_dir), "variables": {}}
    print(f"{'variable':<16}{'mean(run)':>12}{'mean(ref)':>12}"
          f"{'|dmean|/std':>14}{'std ratio':>12}")
    for name in ref_stats:
        m_s, s_s = sampler_stats[name]
        m_r, s_r = ref_stats[name]
        denom = s_r if s_r > 0 else 1.0
        disc = abs(m_s - m_r) / denom
        ratio = s_s / denom
        report["variables"][name] = {
            "mean_sampler": m_s, "std_sampler": s_s,
            "mean_reference": m_r, "std_reference": s_r,
            "mean_discrepancy": disc, "std_ratio": ratio,
        }
        print(f"{name:<16}{m_s:>12.5f}{m_r:>12.5f}{disc:>14.4f}{ratio:>12.4f}")
    report["max_mean_discrepancy"] = max(
        v["mean_discrepancy"] for v in report["variables"].values())
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"report -> {out_path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, so the subcommand functions are bound at the first call."""
    parser = argparse.ArgumentParser(prog="sgmc",
                                     description="stochastic-gradient MCMC harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sampling experiment")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--demo", choices=sorted(DEMOS), help="preset experiment")
    run.add_argument("--sampler", choices=SAMPLER_NAMES)
    run.add_argument("--model")
    run.add_argument("--iterations", type=int)
    run.add_argument("--burn-in", dest="burn_in", type=int)
    run.add_argument("--selections", type=int)
    run.add_argument("--batch-size", dest="batch_size", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--chains", type=int)
    run.add_argument("--output")
    run.add_argument("--format", choices=("jsonl", "csv"))
    run.set_defaults(fn=run_command)

    cmp_ = sub.add_parser("compare", help="compare a run against a reference")
    cmp_.add_argument("--run", required=True, help="run output directory")
    cmp_.add_argument("--reference", choices=("analytic", "rwmh"), default="rwmh")
    cmp_.add_argument("--oracle-steps", dest="oracle_steps", type=int, default=200000)
    cmp_.add_argument("--output", help="report path (default: <run>/compare_report.json)")
    cmp_.set_defaults(fn=compare_command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
