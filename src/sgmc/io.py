"""Sample collection and serialization.

One store per chain, allocated up front and written in place in collection
order; it serializes to JSON Lines or CSV.  Both formats round-trip at full
float64 precision (shortest-round-trip float formatting), and reads back in
about twice the memory of the arrays it returns (JSON Lines in row chunks).
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import Layout, layout_size, layout_slices, named
from .errors import StoreError

READ_CHUNK_ROWS = 64  # parsed rows read_jsonl holds before converting them to float64


def flat_column_names(layout: Layout) -> list[str]:
    """Flattened column labels: ``name`` for scalars, ``name[i,j,...]`` otherwise."""
    names = []
    for name, shape in layout:
        if shape == ():
            names.append(name)
            continue
        for idx in np.ndindex(*shape):
            names.append(f"{name}[{','.join(str(i) for i in idx)}]")
    return names


@dataclass
class SampleStore:
    """The flattened samples of a single chain, in a ``(capacity, dim)`` array
    allocated up front; ``sample_count`` rows of it are written."""

    layout: Layout
    capacity: int  # the number of samples the chain keeps
    chain_id: int = 0

    def __post_init__(self):
        self.sample_count = 0
        self._rows = np.empty((self.capacity, layout_size(self.layout)))
        self._iterations = np.empty(self.capacity, dtype=np.int64)

    def iterations(self) -> np.ndarray:
        """Read-only view of the written rows' iteration indices."""
        return _read_only(self._iterations[:self.sample_count])

    def stacked(self) -> np.ndarray:
        """Read-only view of the written rows, ``(sample_count, dim)``."""
        return _read_only(self._rows[:self.sample_count])

    def variables(self) -> dict[str, np.ndarray]:
        """Per-variable read-only arrays with the sample axis leading."""
        return named(self.layout, self.stacked())


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def collect_sample(store: SampleStore, flat, iteration: int) -> SampleStore:
    """Copy the flat sample into the next row; its length must match the store's layout."""
    if store.sample_count == store.capacity:
        raise StoreError(f"store is full: it holds {store.capacity} samples")
    if np.shape(flat) != store._rows.shape[1:]:
        raise StoreError(f"sample of shape {np.shape(flat)} does not match {store.layout}")
    store._rows[store.sample_count] = flat
    store._iterations[store.sample_count] = iteration
    store.sample_count += 1
    return store


def finalize_results(store: SampleStore, format: str, path):
    """Write the store to ``path`` as a ``jsonl`` or ``csv`` file.

    jsonl:  one object per sample {"iteration": t, "variables": {name: flat list}}
    csv:    header ``iteration`` + flattened variable columns.
    """
    slices = layout_slices(store.layout)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for it, row in zip(store.iterations().tolist(), store.stacked()):
                obj = {
                    "iteration": it,
                    "variables": {name: row[sl].tolist() for name, (sl, _) in slices.items()},
                }
                fh.write(json.dumps(obj) + "\n")
        return path
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["iteration"] + flat_column_names(store.layout))
            # the bytes csv.writer gives: a float repr never needs quoting
            for it, row in zip(store.iterations().tolist(), store.stacked()):
                fh.write(f"{it},{','.join(map(repr, row.tolist()))}\r\n")
        return path
    raise ValueError(f"unknown output format {format!r}")


def read_jsonl(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Parse a samples.jsonl file back into (iterations, {name: flat matrix})."""
    iterations, chunks = [], {}
    with open(path, encoding="utf-8") as fh:
        while rows := [json.loads(line) for line in itertools.islice(fh, READ_CHUNK_ROWS)]:
            iterations.extend(obj["iteration"] for obj in rows)
            for name in rows[0]["variables"]:
                chunks.setdefault(name, []).append(
                    np.asarray([obj["variables"][name] for obj in rows], dtype=np.float64))
    return (
        np.asarray(iterations, dtype=np.int64),
        {name: np.concatenate(parts) for name, parts in chunks.items()},
    )


def read_csv_samples(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Parse a samples.csv file back into (iterations, {name: flat matrix})."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
        first = next(fh, None)  # np.loadtxt warns on a header-only file
        table = (np.empty((0, len(header))) if first is None else
                 np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2))
    # group flattened columns "name[...]" back under "name", preserving order
    groups: dict[str, list[int]] = {}
    for j, col in enumerate(header[1:], start=1):
        base = col.split("[", 1)[0]
        groups.setdefault(base, []).append(j)
    return table[:, 0].astype(np.int64), {name: table[:, cols] for name, cols in groups.items()}
