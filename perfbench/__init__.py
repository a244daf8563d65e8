"""Benchmark of the sgmc package: workloads, tracing and per-layer metrics."""
