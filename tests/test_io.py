import csv
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmc.core import RandomKey, layout_size, make_layout, named
from sgmc.errors import StoreError
from sgmc.io import (SampleStore, collect_sample, finalize_results,
                     flat_column_names, read_csv_samples, read_jsonl)

from test_core import layouts

LAYOUT = make_layout({"w": (2,), "log_sigma": ()})


def store_with(n, seed=5):
    store = SampleStore(LAYOUT, n, chain_id=0)
    rng = RandomKey(seed).generator()
    for i in range(n):
        collect_sample(store, rng.standard_normal(3), 10 * i)
    return store


class TestCollect:
    def test_counts(self):
        store = SampleStore(LAYOUT, 1)
        assert store.sample_count == 0
        collect_sample(store, np.arange(3.0), 7)
        assert store.sample_count == 1

    def test_stores_a_copy(self):
        store, flat = SampleStore(LAYOUT, 1), np.arange(3.0)
        collect_sample(store, flat, 0)
        flat[:] = -1.0
        assert np.array_equal(store.stacked()[0], [0.0, 1.0, 2.0])

    def test_layout_drift_rejected(self):
        store = SampleStore(LAYOUT, 2, chain_id=0)  # room left: only the shape rule refuses
        collect_sample(store, np.arange(3.0), 7)
        for other in (np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(StoreError, match="does not match"):
                collect_sample(store, other, 8)
        assert store.sample_count == 1

    def test_full_store_names_itself(self):
        store = store_with(1)
        with pytest.raises(StoreError, match="full"):
            collect_sample(store, np.zeros(3), 10)
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
        store = SampleStore(layout, 2)
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
        store = SampleStore(LAYOUT, 0)
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


READERS = {"jsonl": read_jsonl, "csv": read_csv_samples}


class TestReadBack:
    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_values_come_back_as_their_shortest_repr_parses(self, tmp_path, fmt):
        special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                   1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
        patterns = RandomKey(9).generator().integers(0, 2**64, 3000, dtype=np.uint64)
        values = np.concatenate([special, patterns.view(np.float64)]).reshape(-1, 3)
        store = SampleStore(LAYOUT, values.shape[0])
        for i, row in enumerate(values):
            collect_sample(store, row, i)
        path = finalize_results(store, fmt, tmp_path / f"s.{fmt}")
        iterations, variables = READERS[fmt](path)
        flat = np.column_stack([variables["w"], variables["log_sigma"]])
        # every NaN payload and sign is written as "nan" and read as the canonical NaN
        expected = np.array([[float(repr(v)) for v in row] for row in values.tolist()])
        assert np.array_equal(iterations, np.arange(values.shape[0]))
        assert np.array_equal(flat.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_no_samples_read_back_empty_without_warning(self, tmp_path, fmt):
        path = finalize_results(SampleStore(LAYOUT, 0), fmt, tmp_path / f"s.{fmt}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iterations, variables = READERS[fmt](path)
        assert iterations.dtype == np.int64 and iterations.shape == (0,)
        assert all(v.shape[0] == 0 for v in variables.values())
        if fmt == "csv":  # the header still names the columns
            assert {k: v.shape for k, v in variables.items()} == {"w": (0, 2), "log_sigma": (0, 1)}

    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_peak_memory_is_at_most_two_and_a_half_returned_sizes(self, tmp_path, fmt):
        layout = make_layout({"x": (100,)})
        store = SampleStore(layout, 2000)
        rng = RandomKey(11).generator()
        for i in range(2000):
            collect_sample(store, rng.standard_normal(100), i)
        path = finalize_results(store, fmt, tmp_path / f"s.{fmt}")
        tracemalloc.start()
        try:
            iterations, variables = READERS[fmt](path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = iterations.nbytes + sum(v.nbytes for v in variables.values())
        assert np.array_equal(variables["x"], store.stacked())
        assert peak <= 2.5 * returned

    @pytest.mark.parametrize("fmt", sorted(READERS))
    @pytest.mark.parametrize("n, dim", [(2000, 100), (2700, 200)])
    def test_peak_memory_is_at_most_one_and_a_half_returned_sizes(self, tmp_path, fmt, n, dim):
        iterations, variables, peak, store = _traced_read_back(tmp_path, fmt, n, dim)
        assert np.array_equal(variables["x"], store.stacked())
        assert peak <= 1.5 * _nbytes(iterations, variables)

    @pytest.mark.parametrize("fmt", sorted(READERS))
    def test_one_column_peaks_at_most_the_returned_bytes_and_256_kib(self, tmp_path, fmt):
        iterations, variables, peak, store = _traced_read_back(tmp_path, fmt, 5000, 1)
        assert np.array_equal(variables["x"], store.stacked())
        assert peak <= _nbytes(iterations, variables) + 256 * 1024

    def test_csv_variables_are_views_of_one_table(self, tmp_path):
        path = finalize_results(store_with(40), "csv", tmp_path / "s.csv")
        _, variables = read_csv_samples(path)
        w, log_sigma = variables["w"], variables["log_sigma"]
        assert w.base is not None and w.base is log_sigma.base
        assert np.shares_memory(w, w.base) and np.shares_memory(log_sigma, w.base)

    def test_csv_variable_with_split_columns_reads_back(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("iteration,a[0],b,a[1]\r\n0,1.0,2.0,3.0\r\n5,4.0,5.0,6.0\r\n")
        iterations, variables = read_csv_samples(path)
        assert np.array_equal(iterations, [0, 5])
        assert np.array_equal(variables["a"], [[1.0, 3.0], [4.0, 6.0]])
        assert np.array_equal(variables["b"], [[2.0], [5.0]])

    def test_jsonl_last_line_without_newline_is_read(self, tmp_path):
        path = finalize_results(store_with(3), "jsonl", tmp_path / "s.jsonl")
        path.write_text(path.read_text().rstrip("\n"))
        iterations, variables = read_jsonl(path)
        assert np.array_equal(iterations, [0, 10, 20])
        assert np.array_equal(variables["w"], store_with(3).variables()["w"])

    def test_jsonl_variable_added_midway_is_refused_naming_line_and_variable(self, tmp_path):
        path = _jsonl(tmp_path, [{"a": [1.0]}] * 64 + [{"a": [1.0], "b": [2.0, 3.0]}] * 10)
        with pytest.raises(ValueError, match=r":65: variable 'b' differs from line 1"):
            read_jsonl(path)

    def test_jsonl_row_of_another_width_is_refused_naming_line_and_variable(self, tmp_path):
        path = _jsonl(tmp_path, [{"a": [1.0, 2.0], "b": [0.5]}] * 3 + [{"a": [1.0], "b": [0.5]}])
        with pytest.raises(ValueError, match=r":4: variable 'a' differs from line 1"):
            read_jsonl(path)


def _jsonl(tmp_path, rows):
    path = tmp_path / "s.jsonl"
    path.write_text("".join(json.dumps({"iteration": i, "variables": row}) + "\n"
                            for i, row in enumerate(rows)))
    return path


def _traced_read_back(tmp_path, fmt, n, dim):
    store = SampleStore(make_layout({"x": (dim,)}), n)
    rng = RandomKey(11).generator()
    for i in range(n):
        collect_sample(store, rng.standard_normal(dim), i)
    path = finalize_results(store, fmt, tmp_path / f"s.{fmt}")
    tracemalloc.start()
    try:
        iterations, variables = READERS[fmt](path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return iterations, variables, peak, store


def _nbytes(iterations, variables):
    return iterations.nbytes + sum(v.nbytes for v in variables.values())


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), layouts())
@settings(max_examples=25, deadline=None)
def test_jsonl_roundtrip_property(seed, n_samples, layout):
    rng = RandomKey(seed).generator()
    store = SampleStore(layout, n_samples)
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
    # naming matches the flattening order used by named()
    views = named(layout, np.arange(5.0))
    assert views["a"][0, 1] == 1.0
    assert float(views["b"]) == 4.0
