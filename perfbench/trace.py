"""In-memory span tracing of calls into the sgmc modules.

The traced run replaces the functions listed in :data:`HOOKS` at the module
attributes their callers look up, so every call into a layer becomes a span
(name, layer, start, end, parent span, trace id, thread).  Parent stacks are
per thread; a chain-loop span starts a new trace id, so each chain of a
multi-chain run is its own trace.  A hook whose target no longer exists is
reported as unavailable instead of failing the benchmark.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field

# (module, attribute path, layer, kind).  kind: "call" wraps a function,
# "chain" also starts a new trace id, "generator" makes one span per item,
# "model" wraps the batch evaluators of the density of every returned model.
HOOKS = (
    ("sgmc.cli", "main", "cli", "call"),
    ("sgmc.cli", "write_outputs", "cli", "call"),
    ("sgmc.cli", "get_model", "models", "model"),
    ("sgmc.cli", "synth_data_generate", "models", "call"),
    ("sgmc.cli", "build_sampler", "solver", "call"),
    ("sgmc.cli", "diagnostics_summary", "diagnostics", "call"),
    ("sgmc.solver", "run_mcmc", "solver", "call"),
    ("sgmc.solver", "_run_chain", "solver", "chain"),
    ("sgmc.solver", "init_scheduler", "scheduler", "call"),
    ("sgmc.solver", "scheduler_next", "scheduler", "call"),
    ("sgmc.solver", "sgmc_update", "solver", "call"),
    ("sgmc.solver", "amagold_round", "solver", "call"),
    ("sgmc.solver", "sggmc_round", "solver", "call"),
    ("sgmc.solver", "resgld_step", "solver", "call"),
    ("sgmc.solver", "resgld_swap", "solver", "call"),
    ("sgmc.solver", "next_batch", "data", "call"),
    ("sgmc.solver", "minibatch_value_grad", "potential", "call"),
    ("sgmc.solver", "full_value", "potential", "call"),
    ("sgmc.solver", "langevin_step", "integrator", "call"),
    ("sgmc.solver", "sghmc_step", "integrator", "call"),
    ("sgmc.solver", "reversible_leapfrog_trajectory", "integrator", "call"),
    ("sgmc.solver", "obabo_trajectory", "integrator", "call"),
    ("sgmc.solver", "rmsprop_step", "adaption", "call"),
    ("sgmc.solver", "welford_step", "adaption", "call"),
    ("sgmc.io", "collect_sample", "io", "call"),
    ("sgmc.io", "finalize_results", "io", "call"),
    ("sgmc.io", "read_jsonl", "io", "call"),
    ("sgmc.io", "read_csv_samples", "io", "call"),
    ("sgmc.data", "sequential_batches", "data", "generator"),
    ("sgmc.core", "RandomKey.generator", "core", "call"),
)

MODEL_EVALUATORS = ("batch_log_likelihood", "batch_score")


def _gathered_bytes(batch) -> int:
    return sum(int(a.nbytes) for a in batch.arrays.values())


def _format_arg(args, kwargs):
    fmt = kwargs.get("format", args[1] if len(args) > 1 else "memory")
    return {"format": fmt}


# per-span counters taken from a call's arguments or result; a measure that
# no longer fits the program's types leaves the counter out
MEASURES = {
    "next_batch": lambda args, kwargs, result: {"bytes": _gathered_bytes(result[0])},
    "sequential_batches": lambda args, kwargs, item: {"bytes": _gathered_bytes(item)},
    "batch_log_likelihood": lambda args, kwargs, result: {"rows": int(result.shape[0])},
    "batch_score": lambda args, kwargs, result: {"rows": int(result.shape[0])},
    "finalize_results": lambda args, kwargs, result: _format_arg(args, kwargs),
    "read_jsonl": lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])},
    "read_csv_samples": lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])},
}


@dataclass
class Span:
    sid: int
    parent: int | None
    trace: int
    name: str
    layer: str
    start: float
    end: float
    thread: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``install`` swaps the hooks in, ``remove`` out."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.unavailable: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, new_trace: bool):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        trace = sid if new_trace or parent is None else parent[1]
        stack.append((sid, trace))
        return sid, (parent[0] if parent else None), trace

    def _close(self, sid, parent, trace, name, layer, start, counts):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(Span(sid, parent, trace, name, layer, start, end,
                               threading.get_ident(), counts))

    def _measure(self, name, args, kwargs, result) -> dict:
        fn = MEASURES.get(name)
        if fn is None:
            return {}
        try:
            return fn(args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError, OSError):
            return {}

    def wrap(self, fn, name: str, layer: str, new_trace: bool = False):
        """Return ``fn`` wrapped so that each call records one span."""

        def traced(*args, **kwargs):
            sid, parent, trace = self._open(new_trace)
            start = time.perf_counter()
            counts = {}
            try:
                result = fn(*args, **kwargs)
                counts = self._measure(name, args, kwargs, result)
                return result
            finally:
                self._close(sid, parent, trace, name, layer, start, counts)

        return traced

    def wrap_generator(self, fn, name: str, layer: str):
        """Wrap a generator function so that producing each item is one span."""

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                sid, parent, trace = self._open(False)
                start = time.perf_counter()
                counts = {}
                try:
                    item = next(inner)
                    counts = self._measure(name, args, kwargs, item)
                except StopIteration:
                    counts = {"exhausted": 1}
                    return
                finally:
                    self._close(sid, parent, trace, name, layer, start, counts)
                yield item

        return traced

    def wrap_model_factory(self, fn, name: str, layer: str):
        """Wrap a model factory so its density's batch evaluators are traced."""

        def traced(*args, **kwargs):
            model = fn(*args, **kwargs)
            try:
                density = model.density
                changes = {attr: self.wrap(getattr(density, attr), attr, layer)
                           for attr in MODEL_EVALUATORS
                           if callable(getattr(density, attr, None))}
                return dataclasses.replace(
                    model, density=dataclasses.replace(density, **changes))
            except (AttributeError, TypeError):
                self._mark(f"{name}.density")
                return model

        return traced

    def _mark(self, target: str):
        if target not in self.unavailable:
            self.unavailable.append(target)

    def install(self):
        for module_name, attr_path, layer, kind in self.hooks:
            target = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self._mark(target)
                continue
            if not callable(original):
                self._mark(target)
                continue
            if kind == "generator":
                wrapped = self.wrap_generator(original, attr, layer)
            elif kind == "model":
                wrapped = self.wrap_model_factory(original, attr, layer)
            else:
                wrapped = self.wrap(original, attr, layer, new_trace=(kind == "chain"))
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def remove(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out
