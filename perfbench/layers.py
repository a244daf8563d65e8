"""Per-layer metrics of the traced run, named ``<module>.<metric>``.

Layer figures come from the spans of the traced pass; figures per sampler
run (cost per iteration, acceptance, gradient evaluations, parallel
efficiency) come from the ``summary.json`` of the untraced pass of the same
seed.  A share is a layer's self time inside the chain loops divided by the
traced sampling time (the summed duration of the chain-loop spans).
"""

from __future__ import annotations

import bisect

from .stats import percentile, tail_percentile
from .trace import self_times

SAMPLERS = ("sgld", "psgld", "sghmc", "amagold", "sggmc", "resgld")
STRATEGIES = ("draw_replacement", "shuffle", "shuffle_in_epochs")
SWEEP_N = (1_000, 10_000, 100_000, 1_000_000)

CHAIN = "_run_chain"
STEP_NAMES = ("sgmc_update", "amagold_round", "sggmc_round", "resgld_step")
INTEGRATOR_STEPS = ("langevin_step", "sghmc_step")
TRAJECTORIES = ("reversible_leapfrog_trajectory", "obabo_trajectory")
# log-likelihood evaluations below these spans feed a decision; all others
# are computed and thrown away
VALUE_CONSUMERS = ("full_value", "resgld_swap")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("core.key_draws_per_iter", "1/iter", "lower"),
     ("core.generator_us_p50", "us", "lower"),
     ("core.self_share", "fraction", "lower"),
     ("data.next_batch_us_p50", "us", "lower"),
     ("data.next_batch_us_p99", "us", "lower"),
     ("data.self_share", "fraction", "lower"),
     ("data.bytes_gathered_per_iter", "B/iter", "lower")]
    + [(f"data.batch_us.{s}.n{n}", "us", "lower") for s in STRATEGIES for n in SWEEP_N]
    + [("potential.minibatch_us_p50", "us", "lower"),
       ("potential.value_discard_ratio", "fraction", "lower"),
       ("potential.full_ms_p50", "ms", "lower"),
       ("potential.full_calls_per_iter", "1/iter", "lower"),
       ("potential.self_share", "fraction", "lower"),
       ("models.rows_evaluated_per_iter", "rows/iter", "lower"),
       ("models.self_share", "fraction", "lower"),
       ("adaption.calls_per_iter", "1/iter", "lower"),
       ("adaption.self_share", "fraction", "lower"),
       ("integrator.step_us_p50", "us", "lower"),
       ("integrator.trajectory_self_us_p50", "us", "lower"),
       ("integrator.self_share", "fraction", "lower"),
       ("scheduler.next_us_p50", "us", "lower"),
       ("scheduler.self_share", "fraction", "lower"),
       ("scheduler.plan_s", "s", "lower"),
       ("solver.step_us_p50", "us", "lower"),
       ("solver.step_us_p99", "us", "lower"),
       ("solver.self_share", "fraction", "lower")]
    + [(f"solver.{s}.us_per_iter", "us", "lower") for s in SAMPLERS]
    + [("solver.accept_rate", "fraction", "higher"),
       ("solver.grad_evals_per_iter", "1/iter", "lower"),
       ("solver.parallel_efficiency", "fraction", "higher"),
       ("io.collect_us_p50", "us", "lower"),
       ("io.write_s", "s", "lower"),
       ("io.write_mb_per_s", "MiB/s", "higher"),
       ("io.read_s", "s", "lower"),
       ("io.read_mb_per_s", "MiB/s", "higher"),
       ("io.bytes_written", "B", "lower"),
       ("diagnostics.ess_s", "s", "lower"),
       ("cli.summary_s", "s", "lower"),
       ("cli.setup_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower"),
       ("trace.unattributed_share", "fraction", "lower")]
)

# timings that need the layer to be called: when the workload never calls it,
# the traced sampler sweep supplies the figure
SWEEP_FALLBACK = {"potential.full_ms_p50", "integrator.step_us_p50",
                  "integrator.trajectory_self_us_p50", "solver.accept_rate",
                  *(f"solver.{s}.us_per_iter" for s in SAMPLERS)}


def _tail(values):
    q = tail_percentile(len(values))
    return percentile(values, min(q, 99)) if q is not None else None


class SpanIndex:
    """Spans of one traced pass with self times and chain membership."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.self_time = self_times(spans)
        self.children = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)
        self.chains = [s for s in spans if s.name == CHAIN]
        self.sampling_s = sum(s.duration for s in self.chains)
        self.in_chain = [s for s in spans if s.name != CHAIN and self._under_chain(s)]

    def ancestors(self, span):
        while span.parent is not None:
            span = self.by_id[span.parent]
            yield span

    def _under_chain(self, span) -> bool:
        return any(a.name == CHAIN for a in self.ancestors(span))

    def named(self, *names, sampling_only=False):
        pool = self.in_chain if sampling_only else self.spans
        return [s for s in pool if s.name in names]

    def share(self, layer):
        if not self.sampling_s:
            return None
        busy = sum(self.self_time[s.sid] for s in self.in_chain if s.layer == layer)
        return busy / self.sampling_s


def _p50_us(spans, scale=1e6):
    return percentile([s.duration * scale for s in spans], 50) if spans else None


def _ratio(num, den):
    return num / den if den else None


def span_metrics(index: SpanIndex, iterations: int):
    """Layer metrics computed from one traced pass; None where not exercised.
    Returns (metrics, bases) where bases holds the counts behind ratios."""
    m, bases = {}, {}
    per_iter = lambda n: _ratio(n, iterations)  # noqa: E731

    keys = index.named("generator", sampling_only=True)
    m["core.key_draws_per_iter"] = per_iter(len(keys))
    m["core.generator_us_p50"] = _p50_us(index.named("generator"))

    batches = index.named("next_batch")
    m["data.next_batch_us_p50"] = _p50_us(batches)
    durations = [s.duration * 1e6 for s in batches]
    m["data.next_batch_us_p99"] = _tail(durations) if durations else None
    bases["data.next_batch_us_p99"] = {"n": len(durations),
                                       "percentile": tail_percentile(len(durations))}
    gathered = [s for s in index.named("next_batch", "sequential_batches", sampling_only=True)
                if "exhausted" not in s.counts]
    if gathered and all("bytes" in s.counts for s in gathered):
        m["data.bytes_gathered_per_iter"] = per_iter(sum(s.counts["bytes"] for s in gathered))
        bases["data.bytes_gathered_per_iter"] = "computed from batch array sizes"

    m["potential.minibatch_us_p50"] = _p50_us(index.named("minibatch_value_grad"))
    loglik = index.named("batch_log_likelihood", sampling_only=True)
    if index.named("batch_log_likelihood", "batch_score"):
        discarded = sum(1 for s in loglik if not any(
            a.name in VALUE_CONSUMERS for a in index.ancestors(s)))
        m["potential.value_discard_ratio"] = discarded / len(loglik) if loglik else 0.0
        bases["potential.value_discard_ratio"] = {"discarded": discarded,
                                                  "computed": len(loglik)}
    full = index.named("full_value")
    m["potential.full_ms_p50"] = _p50_us(full, 1e3)
    m["potential.full_calls_per_iter"] = per_iter(len(index.named("full_value",
                                                                  sampling_only=True)))
    models = index.named("batch_log_likelihood", "batch_score", sampling_only=True)
    if models and all("rows" in s.counts for s in models):
        m["models.rows_evaluated_per_iter"] = per_iter(sum(s.counts["rows"] for s in models))
    adaption = [s for s in index.in_chain if s.layer == "adaption"]
    m["adaption.calls_per_iter"] = per_iter(len(adaption))

    m["integrator.step_us_p50"] = _p50_us(index.named(*INTEGRATOR_STEPS))
    trajectories = index.named(*TRAJECTORIES)
    m["integrator.trajectory_self_us_p50"] = (
        percentile([index.self_time[s.sid] * 1e6 for s in trajectories], 50)
        if trajectories else None)

    m["scheduler.next_us_p50"] = _p50_us(index.named("scheduler_next"))
    plans = index.named("init_scheduler")
    m["scheduler.plan_s"] = sum(s.duration for s in plans) if plans else None

    steps = [s for s in index.named(*STEP_NAMES)
             if not any(a.name in STEP_NAMES for a in index.ancestors(s))]
    step_us = [s.duration * 1e6 for s in steps]
    m["solver.step_us_p50"] = percentile(step_us, 50) if step_us else None
    m["solver.step_us_p99"] = _tail(step_us) if step_us else None
    bases["solver.step_us_p99"] = {"n": len(step_us),
                                   "percentile": tail_percentile(len(step_us))}

    for name, _, _ in PER_LAYER:
        if name.endswith(".self_share"):
            m[name] = index.share(name.split(".")[0])
    m["trace.unattributed_share"] = _ratio(
        sum(index.self_time[s.sid] for s in index.chains), index.sampling_s)

    m["io.collect_us_p50"] = _p50_us(index.named("collect_sample"))
    file_writes = [s for s in index.named("finalize_results")
                   if s.counts.get("format") in ("jsonl", "csv")]
    m["io.write_s"] = sum(s.duration for s in file_writes) if file_writes else None
    reads = index.named("read_jsonl", "read_csv_samples")
    m["io.read_s"] = sum(s.duration for s in reads) if reads else None
    if reads and all("bytes" in s.counts for s in reads):
        m["io.read_mb_per_s"] = _ratio(sum(s.counts["bytes"] for s in reads) / 2**20,
                                       m["io.read_s"])
    ess = [s for s in index.spans if s.layer == "diagnostics"]
    m["diagnostics.ess_s"] = sum(s.duration for s in ess) if ess else None
    outputs = index.named("write_outputs")
    if outputs:
        m["cli.summary_s"] = sum(
            s.duration - sum(c.duration for c in index.children.get(s.sid, ())
                             if c.name == "finalize_results")
            for s in outputs)
    m["cli.setup_s"] = _cli_setup(index)
    return m, bases


def _cli_setup(index: SpanIndex):
    """Summed time from each `sgmc run` call to its first scheduler step."""
    firsts = sorted(s.start for s in index.named("scheduler_next"))
    total, seen = 0.0, False
    for main in index.named("main"):
        i = bisect.bisect_left(firsts, main.start)
        if i < len(firsts) and firsts[i] <= main.end:
            total += firsts[i] - main.start
            seen = True
    return total if seen else None


def record_metrics(records):
    """Per-sampler figures from the untraced summaries."""
    m, bases = {}, {}
    for sampler in SAMPLERS:
        runs = [r for r in records if r.ok and r.sampler == sampler]
        if runs:
            runtime = sum(c["runtime_s"] for r in runs for c in r.summary["chains"])
            m[f"solver.{sampler}.us_per_iter"] = runtime / sum(r.iterations for r in runs) * 1e6
    counts = [r.accept_counts() for r in records if r.ok]
    counts = [c for c in counts if c is not None]
    if counts:
        accepted, proposed = sum(c[0] for c in counts), sum(c[1] for c in counts)
        m["solver.accept_rate"] = _ratio(accepted, proposed)
        bases["solver.accept_rate"] = {"accepted": accepted, "proposed": proposed}
    ok = [r for r in records if r.ok]
    if ok:
        grads, iters = sum(r.grads for r in ok), sum(r.iterations for r in ok)
        m["solver.grad_evals_per_iter"] = _ratio(grads, iters)
        bases["solver.grad_evals_per_iter"] = {"gradient_evaluations": grads,
                                               "iterations": iters}
        multi = [r for r in ok if r.run.chains > 1] or ok
        busy = sum(c["runtime_s"] for r in multi for c in r.summary["chains"])
        wall = sum(r.run.chains * r.summary["wall_time_s"] for r in multi)
        m["solver.parallel_efficiency"] = _ratio(busy, wall)
        bases["solver.parallel_efficiency"] = {"chain_runtime_s": busy,
                                               "chains_x_wall_s": wall}
        m["io.bytes_written"] = sum(r.bytes_written for r in ok)
    return m, bases
