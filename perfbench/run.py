"""End-to-end and per-layer benchmark of the sgmc package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload cli_presets --seed 1 --seconds 25 --trace 0

The benchmark imports ``sgmc`` from ``src/`` of the checkout and runs the
chosen workload in this process: a closed loop of ``sgmc run`` calls through
``sgmc.cli.main``, one sampler run at a time, repeated in passes until
``--seconds`` have been measured.  Pass ``p`` uses sampler seed
``1000 * seed + p``, so the seed fixes every input.  Each run's outputs are
checked; any failed check makes the result incorrect and the exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
pass twice untraced and twice with spans recorded at every layer boundary,
requires all four to write byte-identical sample files, and reports the
per-layer metrics, together with a sweep of all six samplers and of
``sgmc.data.next_batch`` over dataset sizes; it is a fixed amount of work and
ignores ``--seconds``.  The benchmark's own tests:
``python3 -m pytest perfbench/tests``.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
JSON report with the environment, percentiles, ratio bases and digests.
Run outputs go to ``perfbench/.work`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.stats import check_metric_name, geomean, median, timing_summary  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import SAMPLER_SWEEP, WORKLOADS, check_pass, execute  # noqa: E402

DEFAULT_SEED = 1
# end-to-end metrics of the result line (name -> unit), each with a bound in
# BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MiB"}
# printed in the report only: from seed to seed the ESS of these short chains
# spreads by up to a quarter (metropolis_large_n), the largest bound a metric
# may have, and failed_ratio is 0 whenever the result is correct
REPORT_ONLY = {"ess_per_s": "1/s", "ess_per_grad": "1/eval", "failed_ratio": "fraction"}
SWEEP_BATCH = 32
SWEEP_CALLS = 21  # timed next_batch calls per (strategy, N): a median with 10 beyond it


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no sgmc sources)."""


def load_sgmc():
    src = ROOT / "src"
    if not (src / "sgmc" / "__init__.py").is_file():
        raise SetupError(f"no sgmc package under {src}")
    sys.path.insert(0, str(src))
    import sgmc
    import sgmc.cli
    import sgmc.io

    if Path(sgmc.__file__).resolve().parent != (src / "sgmc").resolve():
        raise SetupError(f"imported sgmc from {sgmc.__file__}, not from {src}")
    return sgmc


def git_commit():
    """Commit of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(sgmc) -> dict:
    import numpy

    return {
        "logical_cores": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "sgmc": getattr(sgmc, "__version__", None),
        "commit": git_commit(),
    }


def pass_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def run_pass(sgmc, runs, seed, work):
    records = [execute(sgmc, run, seed, work) for run in runs]
    check_pass(records)
    for rec in records:
        rec.samples = []
    return records


def pass_digest(records) -> str:
    return hashlib.sha256("".join(r.digest for r in records).encode()).hexdigest()


def count_ops(records):
    attempted = sum(1 + r.run.roundtrip for r in records)
    failed = sum((1 + r.run.roundtrip) for r in records if not r.ok)
    return attempted, failed


def measure_end_to_end(sgmc, runs, args, work):
    started = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(sgmc, runs, pass_seed(args.seed, len(passes)), work))
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 0.5) / len(passes) > args.seconds:
            break  # the next pass would end more than half a pass late
    records = [r for p in passes for r in p]
    good = [p for p in passes if all(r.ok for r in p)]
    per_pass = {
        "setup_s": [sum(r.setup_s for r in p) for p in good],
        "wall_s": [sum(r.wall_s for r in p) for p in good],
        "iters_per_s": [sum(r.iterations for r in p) / sum(r.loop_s for r in p)
                        for p in good],
    }
    ok = [r for r in records if r.ok]
    values = {name: median(v) for name, v in per_pass.items() if v}
    if ok:
        values["ess_per_s"] = geomean(r.ess / r.loop_s for r in ok)
        values["ess_per_grad"] = geomean(r.ess / r.grads for r in ok)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = count_ops(records)
    values["failed_ratio"] = failed / attempted
    details = {name: timing_summary(v) for name, v in per_pass.items()}
    report = {
        "passes": len(passes),
        "measured_s": time.perf_counter() - started,
        "end_to_end": {name: {"value": values.get(name), "unit": unit}
                       for name, unit in {**END_TO_END, **REPORT_ONLY}.items()},
        "timings_per_pass": details,
        "per_pass": per_pass,
        "bases": {"failed_ratio": {"failed": failed, "attempted": attempted},
                  "ess_per_s": {"sampler_runs": len(ok)},
                  "ess_per_grad": {"sampler_runs": len(ok),
                                   "gradient_evaluations": sum(r.grads for r in ok)}},
        "setup_boundary": ("sgmc.cli.write_outputs entry"
                           if all(r.setup_probe for r in ok)
                           else "unavailable: set-up includes output writing"),
        "sample_digest_pass0": pass_digest(passes[0]),
        "errors": [e for r in records for e in r.errors],
    }
    metrics = {check_metric_name(name): {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in END_TO_END.items()}
    return records, metrics, report


def batch_sweep(sgmc, seed):
    """Median microseconds per ``next_batch`` call for each strategy and N."""
    import numpy as np

    data, core = sgmc.data, sgmc.core
    out, unavailable = {}, []
    rng = np.random.default_rng(seed)
    for n in layers.SWEEP_N:
        dataset = data.load_in_memory(arrays={"y": rng.standard_normal(n)})
        for strategy in layers.STRATEGIES:
            name = f"data.batch_us.{strategy}.n{n}"
            try:
                spec = data.BatchSpec(SWEEP_BATCH, strategy, core.RandomKey(seed))
                state = data.init_batch_state(dataset, spec)
                _, state = data.next_batch(dataset, spec, state)  # first call warms up
                times = []
                for _ in range(SWEEP_CALLS):
                    t0 = time.perf_counter()
                    _, state = data.next_batch(dataset, spec, state)
                    times.append((time.perf_counter() - t0) * 1e6)
            except (AttributeError, TypeError, ValueError) as exc:
                unavailable.append(f"{name}: {exc!r}")
                continue
            out[name] = median(times)
    return out, unavailable


def measure_layers(sgmc, runs, args, work):
    seed = pass_seed(args.seed, 0)
    records = []

    def plain_and_traced(batch, repeats):
        # alternate untraced and traced passes of one seed; the overhead ratio
        # compares the fastest of each, the metrics use the last traced pass
        plain_s, traced_s, reference = [], [], None
        for _ in range(repeats):
            t0 = time.perf_counter()
            plain = run_pass(sgmc, batch, seed, work)
            plain_s.append(time.perf_counter() - t0)
            with Tracer() as tracer:
                t0 = time.perf_counter()
                traced = run_pass(sgmc, batch, seed, work)
                traced_s.append(time.perf_counter() - t0)
            reference = reference or plain
            for a, b, c in zip(reference, plain, traced):
                for rec in (b, c):
                    if a.ok and rec.ok and a.digest != rec.digest:
                        rec.errors.append(f"{rec.run.name}: samples differ from the first "
                                          f"untraced pass ({rec.digest[:16]} vs "
                                          f"{a.digest[:16]})")
            records.extend(plain + traced)
        index = layers.SpanIndex(tracer.spans)
        found, bases = layers.span_metrics(index, sum(r.iterations for r in traced))
        found_r, bases_r = layers.record_metrics(plain)
        found.update(found_r)
        bases.update(bases_r)
        write_s = found.get("io.write_s")
        if write_s and found.get("io.bytes_written"):
            found["io.write_mb_per_s"] = found["io.bytes_written"] / 2**20 / write_s
        found["trace.overhead_ratio"] = min(traced_s) / min(plain_s)
        bases["trace.overhead_ratio"] = {"traced_s": traced_s, "untraced_s": plain_s}
        return plain, traced, found, bases, tracer.unavailable

    plain, traced, found, bases, missing = plain_and_traced(runs, repeats=2)
    _, _, sweep, _, _ = plain_and_traced(SAMPLER_SWEEP, repeats=1)
    sweep_batches, sweep_missing = batch_sweep(sgmc, seed)
    found.update(sweep_batches)

    metrics, sources, unavailable = {}, {}, list(sweep_missing)
    for name, unit, _ in layers.PER_LAYER:
        check_metric_name(name)
        value = found.get(name)
        if value is None and name in layers.SWEEP_FALLBACK and sweep.get(name) is not None:
            value, sources[name] = sweep[name], "sampler sweep"
        if value is None:
            unavailable.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    attempted, failed = count_ops(records)
    report = {
        "unavailable_hooks": missing,
        "unavailable_metrics": unavailable,
        "from_sampler_sweep": sorted(sources),
        "bases": bases,
        "sample_digest_untraced": pass_digest(plain),
        "sample_digest_traced": pass_digest(traced),
        "failed_ratio": {"failed": failed, "attempted": attempted},
        "errors": [e for r in records for e in r.errors],
    }
    return records, metrics, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        sgmc = load_sgmc()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    work = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        records, metrics, report = measure(sgmc, WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    attempted, failed = count_ops(records)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(sgmc), **report}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
