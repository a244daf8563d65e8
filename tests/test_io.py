import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmc.core import RandomKey, layout_size, make_layout, structure
from sgmc.errors import StoreError
from sgmc.io import (SampleStore, collect_sample, finalize_results,
                     flat_column_names, read_csv_samples, read_jsonl)

from test_core import layouts

LAYOUT = make_layout({"w": (2,), "log_sigma": ()})


def store_with(n, seed=5):
    store = SampleStore(LAYOUT, chain_id=0)
    rng = RandomKey(seed).generator()
    for i in range(n):
        collect_sample(store, rng.standard_normal(3), 10 * i)
    return store


class TestCollect:
    def test_counts(self):
        store = SampleStore(LAYOUT)
        assert store.sample_count == 0
        collect_sample(store, np.arange(3.0), 7)
        assert store.sample_count == 1

    def test_stores_a_copy(self):
        store, flat = SampleStore(LAYOUT), np.arange(3.0)
        collect_sample(store, flat, 0)
        flat[:] = -1.0
        assert np.array_equal(store.stacked()[0], [0.0, 1.0, 2.0])

    def test_layout_drift_rejected(self):
        store = store_with(1)
        for other in (np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(StoreError):
                collect_sample(store, other, 8)
        assert store.sample_count == 1

    def test_thousand_collects_consistent_lengths(self):
        store = store_with(1000)
        assert store.sample_count == 1000
        variables = store.variables()
        assert variables["w"].shape == (1000, 2)
        assert variables["log_sigma"].shape == (1000,)
        assert store.iterations().shape == (1000,)


class TestFinalize:
    def test_jsonl_roundtrip_bit_exact(self, tmp_path):
        store = store_with(50)
        path = finalize_results(store, "jsonl", tmp_path / "s.jsonl")
        iterations, variables = read_jsonl(path)
        assert np.array_equal(iterations, store.iterations())
        flat = np.column_stack([variables["w"], variables["log_sigma"]])
        assert np.array_equal(flat, store.stacked())  # full 64-bit precision

    def test_jsonl_object_shape(self, tmp_path):
        path = finalize_results(store_with(3), "jsonl", tmp_path / "s.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        obj = json.loads(lines[0])
        assert set(obj) == {"iteration", "variables"}
        assert set(obj["variables"]) == {"w", "log_sigma"}

    def test_csv_roundtrip(self, tmp_path):
        store = store_with(20)
        path = finalize_results(store, "csv", tmp_path / "s.csv")
        iterations, variables = read_csv_samples(path)
        assert np.array_equal(iterations, store.iterations())
        flat = np.column_stack([variables["w"], variables["log_sigma"]])
        assert np.array_equal(flat, store.stacked())

    def test_csv_bytes_are_what_csv_writer_writes(self, tmp_path):
        layout = make_layout({"w": (2, 2), "s": ()})
        store = SampleStore(layout)
        values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -2.5, 1.0 / 3.0, 7.0]
        for i in range(2):
            collect_sample(store, np.array(values[5 * i : 5 * i + 5]), i)
        path = finalize_results(store, "csv", tmp_path / "s.csv")
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration"] + flat_column_names(layout))
            for it, row in zip(store.iterations(), store.stacked()):
                writer.writerow([int(it)] + [repr(v) for v in row.tolist()])
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert path.read_text().startswith('iteration,"w[0,0]","w[0,1]"')
        _, variables = read_csv_samples(path)
        flat = np.column_stack([variables["w"], variables["s"]])
        assert np.array_equal(flat, store.stacked(), equal_nan=True)
        assert np.signbit(flat[0, 3])

    def test_empty_csv_has_header_only(self, tmp_path):
        store = SampleStore(LAYOUT)
        path = finalize_results(store, "csv", tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        assert lines == ["iteration,w[0],w[1],log_sigma"]

    def test_output_order_is_collection_order(self, tmp_path):
        store = store_with(10)
        path = finalize_results(store, "jsonl", tmp_path / "s.jsonl")
        iterations, _ = read_jsonl(path)
        assert np.array_equal(iterations, np.arange(10) * 10)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            finalize_results(store_with(1), "parquet", tmp_path / "x")


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), layouts())
@settings(max_examples=25, deadline=None)
def test_jsonl_roundtrip_property(seed, n_samples, layout):
    rng = RandomKey(seed).generator()
    store = SampleStore(layout)
    dim = layout_size(layout)
    for i in range(n_samples):
        collect_sample(store, rng.standard_normal(dim), i)
    with tempfile.TemporaryDirectory() as tmp:
        path = finalize_results(store, "jsonl", Path(tmp) / "s.jsonl")
        iterations, variables = read_jsonl(path)
    assert np.array_equal(iterations, store.iterations())
    flat = np.column_stack(
        [variables[name].reshape(n_samples, -1) for name, _ in layout])
    assert np.array_equal(flat, store.stacked())


def test_flat_column_names_indexing():
    layout = make_layout({"a": (2, 2), "b": ()})
    assert flat_column_names(layout) == ["a[0,0]", "a[0,1]", "a[1,0]", "a[1,1]", "b"]
    # naming matches the flattening order used by structure()
    pv = structure(layout, np.arange(5.0))
    assert pv["a"][0, 1] == 1.0
    assert float(pv["b"]) == 4.0
