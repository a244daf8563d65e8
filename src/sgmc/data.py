"""In-memory datasets and mini-batch streams.

A Dataset is a dict of arrays sharing a leading observation axis of length N.
Batches come in three flavours: i.i.d. draws with replacement, epoch-wise
shuffling (tail batch padded and masked out), and continuous shuffling where
an epoch's tail is merged into the next permutation so every batch is full.
Consumers must honour the mask; pad rows are zeros and carry no information.
Whole-dataset quantities (the exact potential) read ``Dataset.arrays``
directly, with no batching.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .core import RandomKey
from .errors import IngestionError

STRATEGIES = ("draw_replacement", "shuffle", "shuffle_in_epochs")


@dataclass(frozen=True)
class Dataset:
    arrays: dict[str, np.ndarray]
    size: int  # N, shared leading-axis length

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]


@dataclass(frozen=True)
class MiniBatch:
    """A slice of the dataset: ``n`` rows, validity mask and the full size N.

    ``indices`` records the source rows (pad rows point at row 0 with
    ``mask == False``); it exists for bookkeeping and tests, consumers only
    need ``arrays`` and ``mask``.
    """

    arrays: dict[str, np.ndarray]
    mask: np.ndarray
    full_size: int
    indices: np.ndarray

    @property
    def size(self) -> int:
        return self.mask.shape[0]

    @property
    def n_effective(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class BatchSpec:
    size: int
    strategy: str = "draw_replacement"
    key: RandomKey = RandomKey(0)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown batching strategy {self.strategy!r}")
        if self.size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass(frozen=True)
class BatchState:
    """Cursor of one batch stream; value-semantic, one per chain."""

    counter: int = 0  # permutations / draws consumed, drives key derivation
    position: int = 0
    pending: tuple[int, ...] = ()  # leftover indices ("shuffle" only)


def load_in_memory(arrays=None, csv_path=None, columns=None) -> Dataset:
    """Build a Dataset from named arrays, or from a CSV file with a header.

    ``columns`` maps array name -> list of CSV column names; columns of one
    group are stacked into a (N, len(group)) array (a single column yields a
    1-D array).  Cells must parse as floats.
    """
    if (arrays is None) == (csv_path is None):
        raise ValueError("provide exactly one of arrays= or csv_path=")
    if arrays is not None:
        out = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        if not out:
            raise ValueError("dataset needs at least one array")
        sizes = {k: v.shape[0] if v.ndim else 0 for k, v in out.items()}
        n = next(iter(sizes.values()))
        if n < 1:
            raise ValueError("dataset needs at least one observation")
        ragged = {k: s for k, s in sizes.items() if s != n}
        if ragged:
            raise ValueError(f"leading axes disagree: {sizes}")
        return Dataset(out, n)

    if columns is None:
        raise ValueError("CSV loading requires a columns= mapping")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError("CSV file is empty (header row required)") from None
        col_index = {name: i for i, name in enumerate(header)}
        for group in columns.values():
            for col in group:
                if col not in col_index:
                    raise IngestionError(f"column {col!r} not in header", column=col)
        rows = []
        for row_no, row in enumerate(reader, start=2):  # 1-based incl. header
            parsed = []
            for name, group in columns.items():
                for col in group:
                    if col_index[col] >= len(row):
                        raise IngestionError("row is shorter than the header",
                                             row=row_no, column=col)
                    cell = row[col_index[col]]
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise IngestionError(
                            f"cannot parse cell {cell!r} as a number",
                            row=row_no,
                            column=col,
                        ) from None
            rows.append(parsed)
    if not rows:
        raise IngestionError("CSV has a header but no data rows")
    table = np.asarray(rows, dtype=np.float64)
    out, offset = {}, 0
    for name, group in columns.items():
        block = table[:, offset : offset + len(group)]
        out[name] = block[:, 0].copy() if len(group) == 1 else block.copy()
        offset += len(group)
    return Dataset(out, table.shape[0])


def init_batch_state(dataset: Dataset, spec: BatchSpec) -> BatchState:
    if spec.size > dataset.size:
        raise ValueError(f"batch size {spec.size} exceeds dataset size {dataset.size}")
    return BatchState()


def _take(dataset: Dataset, idx: np.ndarray, mask: np.ndarray) -> MiniBatch:
    arrays = {}
    for name, arr in dataset.arrays.items():
        rows = arr[idx]
        if not mask.all():
            rows = rows.copy()
            rows[~mask] = 0.0  # pad value; correctness rests on the mask
        arrays[name] = rows
    return MiniBatch(arrays, mask, dataset.size, idx)


def next_batch(dataset: Dataset, spec: BatchSpec, state: BatchState):
    """Draw the next mini-batch; returns ``(batch, next_state)``.

    The sequence is a pure function of ``(dataset, spec, initial state)``.
    """
    n, big_n = spec.size, dataset.size
    if n > big_n:
        raise ValueError(f"batch size {n} exceeds dataset size {big_n}")

    if spec.strategy == "draw_replacement":
        rng = spec.key.child(state.counter).generator()
        idx = rng.integers(0, big_n, size=n)
        batch = _take(dataset, idx, np.ones(n, dtype=bool))
        return batch, replace(state, counter=state.counter + 1)

    if spec.strategy == "shuffle_in_epochs":
        perm = spec.key.child(state.counter).generator().permutation(big_n)
        take = perm[state.position : state.position + n]
        mask = np.ones(n, dtype=bool)
        if take.shape[0] < n:  # epoch tail: pad with masked row-0 entries
            mask[take.shape[0] :] = False
            take = np.concatenate([take, np.zeros(n - take.shape[0], dtype=take.dtype)])
        new_pos = state.position + n
        if new_pos >= big_n:
            nxt = replace(state, counter=state.counter + 1, position=0)
        else:
            nxt = replace(state, position=new_pos)
        return _take(dataset, take, mask), nxt

    # "shuffle": full batches always; epoch tails merge into the next permutation
    pending = list(state.pending)
    counter = state.counter
    while len(pending) < n:
        perm = spec.key.child(counter).generator().permutation(big_n)
        counter += 1
        pending.extend(int(i) for i in perm)
    take = np.asarray(pending[:n], dtype=np.int64)
    nxt = replace(state, counter=counter, pending=tuple(pending[n:]))
    return _take(dataset, take, np.ones(n, dtype=bool)), nxt
