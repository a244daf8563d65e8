"""The benchmark's workloads and the output checks of each sampler run.

Every sampler run is an ``sgmc run`` executed in-process through
``sgmc.cli.main``; its figures come from the wall clock around that call,
from ``summary.json`` and from the sample files read back with
``sgmc.io.read_*``.  One probe on ``sgmc.cli.write_outputs`` records when
sampling ended, which splits set-up from the rest of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# cli_presets runs the three --demo presets with iterations, burn-in and
# selections divided by this one factor
PRESET_SCALE = 20


@dataclass(frozen=True)
class Run:
    """One sampler run: CLI arguments plus the output check it must pass."""

    name: str
    args: tuple = ()          # extra `sgmc run` flags
    config: dict | None = None  # JSON config passed with --config
    iterations: int = 0
    burn_in: int = 0
    selections: int | None = None
    chains: int = 1
    format: str = "jsonl"
    check: str = "accept"     # "analytic" | "std_normal" | "accept"
    accept_band: tuple = (0.0, 1.0)
    std_band: tuple = (0.5, 2.0)  # chain sd over posterior sd ("analytic" check)
    roundtrip: bool = False   # timed read-back counts as its own operation

    @property
    def kept(self) -> int:
        return self.selections if self.selections is not None else self.iterations - self.burn_in


def _preset(name, iterations, burn_in, selections, **kw) -> Run:
    it, bi, sel = (v // PRESET_SCALE for v in (iterations, burn_in, selections))
    args = ("--demo", name, "--iterations", str(it), "--burn-in", str(bi),
            "--selections", str(sel), "--chains", str(kw.get("chains", 1)))
    return Run(name, args, None, it, bi, sel, **kw)


def _config_run(name, config, **kw) -> Run:
    return Run(name, (), config, config["iterations"], config["burn_in"],
               config.get("selections"), **kw)


def _large_n_batching():
    # gaussian_mean at N=1e5: step sizes scale like 1/N (SGLD) and 1/sqrt(N) (SGHMC)
    base = {"model": "gaussian_mean", "true_params": {"mu": 0.5}, "n_obs": 100_000,
            "batch_size": 32, "iterations": 500, "burn_in": 100, "selections": None}
    # mini-batch noise widens these chains about 15x (SGLD) and 65x (SGHMC)
    # beyond the posterior; the sd bands allow a factor of two either way
    samplers = {
        "sgld": ({"step_size_first": 2e-5, "step_size_last": 2e-6}, (7.0, 30.0)),
        "sghmc": ({"step_size_first": 2e-3, "step_size_last": 1e-3,
                   "sampler_args": {"friction": 50.0}}, (30.0, 140.0)),
    }
    return [
        _config_run(f"{sampler}_{strategy}",
                    dict(base, sampler=sampler, batch_strategy=strategy, **extra),
                    check="analytic", std_band=band)
        for sampler, (extra, band) in samplers.items()
        for strategy in ("draw_replacement", "shuffle", "shuffle_in_epochs")
    ]


def _metropolis_large_n():
    # the data-generating weights sit near the initial point (the origin), so
    # the short chains start inside the posterior and ESS measures mixing,
    # not the transient
    base = {"model": "logreg_2d", "true_params": {"w": [0.02, -0.03]}, "n_obs": 100_000,
            "batch_size": 32, "batch_strategy": "draw_replacement",
            "iterations": 300, "burn_in": 100, "selections": None,
            "target_accept": 0.65, "step_size_init": 0.005,
            "step_size_first": None, "step_size_last": None}
    return [
        _config_run("amagold", dict(base, sampler="amagold",
                                    sampler_args={"leapfrog_steps": 5}),
                    accept_band=(0.35, 0.9)),
        _config_run("sggmc", dict(base, sampler="sggmc", sampler_args={"obabo_steps": 5}),
                    accept_band=(0.35, 0.9)),
    ]


def _wide_output():
    config = {"model": "std_normal", "model_args": {"dim": 200}, "n_obs": 1,
              "batch_size": 1, "sampler": "sgld", "iterations": 3000, "burn_in": 300,
              "selections": None, "step_size_first": 0.5, "step_size_last": 0.2}
    return [_config_run(f"wide_{fmt}", config, format=fmt, check="std_normal",
                        roundtrip=True)
            for fmt in ("jsonl", "csv")]


WORKLOADS = {
    "cli_presets": [
        _preset("gaussian", 100_000, 20_000, 8_000, check="analytic", std_band=(0.7, 1.35)),
        _preset("regression", 10_000, 2_000, 1_000, chains=2, accept_band=(1.0, 1.0)),
        _preset("mixture", 100_000, 10_000, 9_000, accept_band=(0.05, 0.95)),
    ],
    "large_n_batching": _large_n_batching(),
    "metropolis_large_n": _metropolis_large_n(),
    "wide_output": _wide_output(),
}


def _sampler_sweep():
    # all six samplers on the 1-D gaussian_mean target (N=200, b=32): the
    # traced run's per-sampler cost per iteration, and its source of layer
    # timings that the workload itself does not exercise
    base = {"model": "gaussian_mean", "n_obs": 200, "batch_size": 32,
            "iterations": 400, "burn_in": 100, "selections": None,
            "step_size_first": 0.01, "step_size_last": 0.005}
    extra = {"sgld": {}, "psgld": {}, "sghmc": {"friction": 10.0},
             "amagold": {"leapfrog_steps": 5}, "sggmc": {"obabo_steps": 5},
             "resgld": {"tau_high": 10.0, "swap_interval": 50}}
    return [_config_run(f"sweep_{name}", dict(base, sampler=name, sampler_args=args))
            for name, args in extra.items()]


SAMPLER_SWEEP = _sampler_sweep()


@dataclass
class RunRecord:
    """Measured figures and check outcome of one sampler run."""

    run: Run
    total_s: float = 0.0
    setup_s: float = 0.0
    loop_s: float = 0.0
    read_s: float = 0.0
    ess: float = 0.0
    grads: int = 0
    sampler: str = ""
    summary: dict = field(default_factory=dict)
    digest: str = ""
    bytes_written: int = 0
    errors: list = field(default_factory=list)
    setup_probe: bool = True
    samples: list = field(default_factory=list)  # (iterations, flat) per chain

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def iterations(self) -> int:
        """Sampler iterations over all chains (rounds / pair steps count once)."""
        return self.run.iterations * self.run.chains

    @property
    def wall_s(self) -> float:
        return self.total_s - self.setup_s + self.read_s

    def accept_counts(self):
        """(accepted, proposed) MH rounds or reSGLD swaps; None for accept-all."""
        sampler = self.summary.get("sampler")
        if sampler in ("amagold", "sggmc"):
            proposed = self.run.iterations
        elif sampler == "resgld":
            args = self.summary.get("config", {}).get("sampler_args", {})
            proposed = self.run.iterations // int(args.get("swap_interval", 50))
        else:
            return None
        chains = self.summary.get("chains", [])
        accepted = sum(round(c["acceptance_rate"] * proposed) for c in chains)
        return accepted, proposed * len(chains)


@contextlib.contextmanager
def write_probe(cli, marks: list):
    """Record the time each call of ``cli.write_outputs`` starts."""
    original = getattr(cli, "write_outputs", None)
    if original is None:
        yield False
        return

    def probed(*args, **kwargs):
        marks.append(time.perf_counter())
        return original(*args, **kwargs)

    cli.write_outputs = probed
    try:
        yield True
    finally:
        cli.write_outputs = original


def _reader(sgmc_io, fmt):
    return sgmc_io.read_jsonl if fmt == "jsonl" else sgmc_io.read_csv_samples


def execute(sgmc, run: Run, seed: int, work: Path) -> RunRecord:
    """Run ``run`` through ``sgmc.cli.main``, time it and check its outputs."""
    rec = RunRecord(run)
    out = work / f"{run.name}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["run", *run.args, "--seed", str(seed), "--output", str(out),
            "--format", run.format]
    if run.config is not None:
        cfg_path = work / f"{run.name}.json"
        if not cfg_path.exists():
            cfg_path.write_text(json.dumps(run.config))
        argv += ["--config", str(cfg_path)]
    marks: list = []
    code = None
    with write_probe(sgmc.cli, marks) as probed, contextlib.redirect_stdout(sys.stderr):
        start = time.perf_counter()
        try:
            code = sgmc.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            rec.errors.append(f"{run.name}: sgmc run raised {exc!r}")
        end = time.perf_counter()
    rec.total_s = end - start
    rec.setup_probe = probed and bool(marks)
    if code != 0:
        rec.errors.append(f"{run.name}: sgmc run exited with {code}")
    try:
        _check_run(sgmc, rec, out)
        if rec.ok:
            # chains of one run either follow each other or overlap in threads
            rec.loop_s = min(sum(c["runtime_s"] for c in rec.summary["chains"]),
                             rec.summary["wall_time_s"])
            sampling_end = marks[0] if rec.setup_probe else end
            rec.setup_s = max(0.0, sampling_end - start - rec.loop_s)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        rec.errors.append(f"{run.name}: unreadable outputs ({exc!r})")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rec


def _check_run(sgmc, rec: RunRecord, out: Path):
    run = rec.run
    if not rec.ok:
        return
    summary = json.loads((out / "summary.json").read_text())
    rec.summary = summary
    rec.sampler = summary["sampler"]
    chains = summary["chains"]
    errors = rec.errors
    if len(chains) != run.chains:
        errors.append(f"{run.name}: {len(chains)} chains in summary, expected {run.chains}")
        return
    digest = hashlib.sha256()
    samples = []
    for c in chains:
        path = out / f"samples_chain{c['chain_id']}.{run.format}"
        data = path.read_bytes()
        digest.update(data)
        rec.bytes_written += len(data)
        started = time.perf_counter()
        iters, variables = _reader(sgmc.io, run.format)(path)
        if run.roundtrip:
            rec.read_s += time.perf_counter() - started
        flat = np.column_stack([np.asarray(v).reshape(len(iters), -1)
                                for v in variables.values()])
        samples.append((iters, flat))
        if c["sample_count"] != run.kept or flat.shape[0] != run.kept:
            errors.append(f"{run.name}: chain {c['chain_id']} kept {c['sample_count']} "
                          f"samples ({flat.shape[0]} in file), expected {run.kept}")
        if not np.all(np.isfinite(flat)):
            errors.append(f"{run.name}: non-finite samples in chain {c['chain_id']}")
        if iters.size and (np.any(np.diff(iters) <= 0) or iters[0] < run.burn_in
                           or iters[-1] >= run.iterations):
            errors.append(f"{run.name}: sample iterations out of order or range")
        ess = [v["ess"] for v in c["variables"].values()]
        if any(e is None or not e > 0 for e in ess):
            errors.append(f"{run.name}: missing ESS in chain {c['chain_id']}")
            return
    rec.digest = digest.hexdigest()
    rec.samples = samples
    rec.ess = sum(min(v["ess"] for v in c["variables"].values()) for c in chains)
    rec.grads = sum(int(c["gradient_evaluations"]) for c in chains)
    if errors:
        return
    if run.check == "analytic":
        _check_analytic(sgmc, rec, out)
    elif run.check == "std_normal":
        _check_std_normal(rec)
    else:
        lo, hi = run.accept_band
        for c in chains:
            if not lo <= c["acceptance_rate"] <= hi:
                errors.append(f"{run.name}: acceptance {c['acceptance_rate']:.3f} "
                              f"outside [{lo}, {hi}]")


def _check_analytic(sgmc, rec: RunRecord, out: Path):
    """Posterior mean and spread against the model's closed-form posterior.

    SG-MCMC chains are over-dispersed by mini-batch noise, so the mean must lie
    within six Monte Carlo standard errors (chain spread / sqrt(ESS)) plus
    three posterior standard deviations, and the ratio of chain to posterior
    spread must lie in the run's ``std_band``.
    """
    report_path = out / "compare_report.json"
    with contextlib.redirect_stdout(sys.stderr):
        code = sgmc.cli.main(["compare", "--run", str(out), "--reference", "analytic",
                              "--output", str(report_path)])
    if code != 0:
        rec.errors.append(f"{rec.run.name}: sgmc compare exited with {code}")
        return
    report = json.loads(report_path.read_text())
    variables = rec.summary["chains"][0]["variables"]
    lo, hi = rec.run.std_band
    for name, v in report["variables"].items():
        ess = variables[name]["ess"]
        limit = 6.0 * v["std_ratio"] / math.sqrt(ess) + 3.0
        if not (v["mean_discrepancy"] <= limit and lo <= v["std_ratio"] <= hi):
            rec.errors.append(
                f"{rec.run.name}: {name} mean off by {v['mean_discrepancy']:.2f} posterior "
                f"sd (limit {limit:.2f}), std ratio {v['std_ratio']:.2f}")


def _check_std_normal(rec: RunRecord):
    """Every coordinate of the standard-normal target: mean 0, spread near 1."""
    _, flat = rec.samples[0]
    ess = np.array([v["ess"] for v in rec.summary["chains"][0]["variables"].values()])
    mean, std = flat.mean(axis=0), flat.std(axis=0, ddof=1)
    z = np.abs(mean) / (std / np.sqrt(ess))
    if not (z.max() <= 6.0 and 0.8 <= std.mean() <= 1.25):
        rec.errors.append(f"{rec.run.name}: std_normal moments off (max |z| "
                          f"{z.max():.2f}, mean sd {std.mean():.3f})")


def check_pass(records: list[RunRecord]):
    """Checks across the runs of one pass: the jsonl and csv round trips of
    the same seed must read back identical samples."""
    trips = [r for r in records if r.run.roundtrip and r.ok]
    for a, b in zip(trips, trips[1:]):
        same = len(a.samples) == len(b.samples) and all(
            np.array_equal(ia, ib) and np.array_equal(fa, fb)
            for (ia, fa), (ib, fb) in zip(a.samples, b.samples))
        if not same:
            b.errors.append(f"{b.run.name}: read-back differs from {a.run.name}")
