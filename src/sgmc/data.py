"""In-memory datasets and mini-batch streams.

A Dataset is a dict of arrays sharing a leading observation axis of length N.
Batches come in three flavours: i.i.d. draws with replacement, epoch-wise
shuffling (tail batch padded and masked out), and continuous shuffling (the
stream runs on into the next epoch, so every batch is full).  A stream draws in
order from one generator built from ``spec.key`` (shufflings: a permutation per epoch).
Consumers must honour the mask; pad rows are zeros and carry no information.
Whole-dataset quantities (the exact potential) read ``Dataset.arrays``
directly, with no batching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RandomKey

STRATEGIES = ("draw_replacement", "shuffle", "shuffle_in_epochs")


@dataclass(frozen=True)
class Dataset:
    arrays: dict[str, np.ndarray]
    size: int  # N, shared leading-axis length

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]


@dataclass
class MiniBatch:
    """A slice of the dataset: ``n`` rows, validity mask and the full size N.

    ``indices`` records the source rows (pad rows point at row 0 with
    ``mask == False``); it exists for bookkeeping and tests, consumers only
    need ``arrays``, ``mask`` and ``n_effective``, the count of unmasked rows
    (counted from the mask when not given).
    """

    arrays: dict[str, np.ndarray]
    mask: np.ndarray
    full_size: int
    indices: np.ndarray
    n_effective: int | None = None

    def __post_init__(self):
        if self.n_effective is None:
            self.n_effective = int(self.mask.sum())

    @property
    def size(self) -> int:
        return self.mask.shape[0]


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


@dataclass
class BatchState:
    """Cursor of one batch stream, one per chain: ``rng`` is the stream's generator,
    shared by all its states, ``perm`` the read-only permutation of the current
    epoch and ``position`` the offset in it."""

    rng: np.random.Generator
    position: int = 0
    perm: np.ndarray | None = None  # drawn at the epoch's first batch


def load_in_memory(arrays) -> Dataset:
    """Build a Dataset from named arrays sharing a leading observation axis."""
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


def init_batch_state(dataset: Dataset, spec: BatchSpec) -> BatchState:
    if spec.size > dataset.size:
        raise ValueError(f"batch size {spec.size} exceeds dataset size {dataset.size}")
    return BatchState(spec.key.generator())


def _take(dataset: Dataset, idx: np.ndarray, valid: int) -> MiniBatch:
    """Gather rows ``idx``; the rows from ``valid`` on are padding, zeroed and masked."""
    # fancy indexing copies, so padding is zeroed without touching the dataset
    arrays = {name: arr[idx] for name, arr in dataset.arrays.items()}
    mask = np.ones(idx.shape[0], dtype=bool)
    if valid < idx.shape[0]:
        mask[valid:] = False
        for rows in arrays.values():
            rows[valid:] = 0.0  # pad value; correctness rests on the mask
    return MiniBatch(arrays, mask, dataset.size, idx, valid)


def _epoch_permutation(rng: np.random.Generator, big_n: int) -> np.ndarray:
    perm = rng.permutation(big_n)
    perm.flags.writeable = False  # shared by every state of the epoch
    return perm


def next_batch(dataset: Dataset, spec: BatchSpec, state: BatchState):
    """Draw the next mini-batch; returns ``(batch, next_state)``.

    The sequence is a pure function of ``(dataset, spec)`` from :func:`init_batch_state`.
    """
    n, big_n = spec.size, dataset.size
    if n > big_n:
        raise ValueError(f"batch size {n} exceeds dataset size {big_n}")

    if spec.strategy == "draw_replacement":
        return _take(dataset, state.rng.integers(0, big_n, size=n), n), state

    perm = state.perm
    if perm is None:
        perm = _epoch_permutation(state.rng, big_n)
    take = perm[state.position : state.position + n]
    position, valid = state.position + n, n
    if position >= big_n:  # this batch ends the epoch
        position, perm = position - big_n, None
        if spec.strategy == "shuffle_in_epochs":  # pad the tail with masked row 0
            valid = take.shape[0]
            take = np.concatenate([take, np.zeros(n - valid, dtype=take.dtype)])
            position = 0
        elif position:  # "shuffle" runs on into the next epoch (n <= N: at most one)
            perm = _epoch_permutation(state.rng, big_n)
            take = np.concatenate([take, perm[:position]])
    return _take(dataset, take, valid), BatchState(state.rng, position, perm)
