"""Sample collection and serialization.

One store per chain; samples append in collection order and serialize to
JSON Lines or CSV.  Both formats round-trip at full float64 precision
(shortest-round-trip float formatting).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .core import Layout, layout_size, layout_slices
from .errors import StoreError


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
    """Append-only store of flattened samples for a single chain."""

    layout: Layout
    chain_id: int = 0
    _rows: list[np.ndarray] = field(default_factory=list)
    _iterations: list[int] = field(default_factory=list)
    width: int = field(init=False, repr=False)  # length of one flat sample

    def __post_init__(self):
        self.width = layout_size(self.layout)

    @property
    def sample_count(self) -> int:
        return len(self._rows)

    def iterations(self) -> np.ndarray:
        return np.asarray(self._iterations, dtype=np.int64)

    def stacked(self) -> np.ndarray:
        if not self._rows:
            return np.empty((0, self.width))
        return np.stack(self._rows)

    def variables(self) -> dict[str, np.ndarray]:
        """Per-variable arrays with the sample axis leading."""
        flat = self.stacked()
        out = {}
        for name, (sl, shape) in layout_slices(self.layout).items():
            out[name] = flat[:, sl].reshape((flat.shape[0],) + shape)
        return out


def collect_sample(store: SampleStore, flat, iteration: int) -> SampleStore:
    """Append a copy of the flat sample; its length must match the store's layout."""
    row = np.array(flat, dtype=np.float64)
    if row.shape != (store.width,):
        raise StoreError(f"sample of shape {row.shape} does not match layout {store.layout}")
    store._rows.append(row)
    store._iterations.append(int(iteration))
    return store


def finalize_results(store: SampleStore, format: str, path):
    """Write the store to ``path`` as a ``jsonl`` or ``csv`` file.

    jsonl:  one object per sample {"iteration": t, "variables": {name: flat list}}
    csv:    header ``iteration`` + flattened variable columns.
    """
    slices = layout_slices(store.layout)
    if format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for it, row in zip(store._iterations, store._rows):
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
            for it, row in zip(store._iterations, store._rows):
                fh.write(f"{it},{','.join(map(repr, row.tolist()))}\r\n")
        return path
    raise ValueError(f"unknown output format {format!r}")


def read_jsonl(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Parse a samples.jsonl file back into (iterations, {name: flat matrix})."""
    iterations, columns = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            iterations.append(obj["iteration"])
            for name, vals in obj["variables"].items():
                columns.setdefault(name, []).append(vals)
    return (
        np.asarray(iterations, dtype=np.int64),
        {name: np.asarray(vals, dtype=np.float64) for name, vals in columns.items()},
    )


def read_csv_samples(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Parse a samples.csv file back into (iterations, {name: flat matrix})."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [np.array(row, dtype=np.float64) for row in reader]
    table = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, len(header)))
    # group flattened columns "name[...]" back under "name", preserving order
    groups: dict[str, list[int]] = {}
    for j, col in enumerate(header[1:], start=1):
        base = col.split("[", 1)[0]
        groups.setdefault(base, []).append(j)
    iterations = table[:, 0].astype(np.int64) if rows else np.empty(0, dtype=np.int64)
    return iterations, {name: table[:, cols] for name, cols in groups.items()}
