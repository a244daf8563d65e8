"""In-memory datasets and mini-batch streams.

A Dataset is a dict of arrays sharing a leading observation axis of length N.
Batches come in three flavours: i.i.d. draws with replacement, epoch-wise shuffling
(each epoch ends on a short batch of the N mod n rows left), and continuous shuffling
(the stream runs on into the next epoch, so every batch is full).  A stream draws in
order from one generator built from ``spec.key`` (shufflings: a permutation per epoch);
its cursor, a :class:`BatchState`, is a stream like that generator, advanced in place
and never copied.  Every batch served is whole rows; batches of a size share one
read-only all-True mask.  A breach of a batch rule is a ConfigurationError naming its
field.  Only a hand-built MiniBatch masks rows; consumers still honour its mask.
The exact potential reads ``Dataset.arrays`` in fixed row blocks (views), with
no draw and no mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import RandomKey
from .errors import ConfigurationError, check_type

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

    ``indices`` records the source rows; it exists for bookkeeping and tests,
    consumers only need ``arrays``, ``mask`` and ``n_effective``, the count of
    unmasked rows (counted from the mask when not given).  :func:`next_batch`
    serves whole rows; only a hand-built batch masks rows, and consumers honour it.
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
        check_type("batch_size", self.size, (int,))
        if self.size < 1:
            raise ConfigurationError("batch size must be >= 1", field="batch_size")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"unknown batching strategy {self.strategy!r}",
                                     field="batch_strategy")


@dataclass
class BatchState:
    """Cursor of one batch stream, one per chain, advanced in place by
    :func:`next_batch`: ``rng`` is the stream's generator, ``perm`` the read-only
    permutation of the current epoch and ``position`` the offset in it."""

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
        raise ConfigurationError(f"batch size {spec.size} exceeds dataset size {dataset.size}",
                                 field="batch_size")
    return BatchState(spec.key.generator())


@functools.lru_cache(maxsize=None)
def _full_mask(n: int) -> np.ndarray:
    return np.broadcast_to(True, n)  # read-only, shared by every batch of size n


def _take(dataset: Dataset, idx: np.ndarray) -> MiniBatch:
    """Gather rows ``idx``: fancy indexing copies, so a batch shares no memory with the dataset."""
    arrays = {name: arr[idx] for name, arr in dataset.arrays.items()}
    return MiniBatch(arrays, _full_mask(idx.shape[0]), dataset.size, idx, idx.shape[0])


def _epoch_permutation(rng: np.random.Generator, big_n: int) -> np.ndarray:
    perm = rng.permutation(big_n)
    perm.flags.writeable = False  # each batch's ``indices`` is a view of it
    return perm


def next_batch(dataset: Dataset, spec: BatchSpec, state: BatchState):
    """Draw the next mini-batch, advancing ``state`` in place; returns ``(batch, state)``.

    The sequence is a pure function of ``(dataset, spec)`` from :func:`init_batch_state`.
    """
    n, big_n = spec.size, dataset.size
    if n > big_n:
        raise ValueError(f"batch size {n} exceeds dataset size {big_n}")

    if spec.strategy == "draw_replacement":
        return _take(dataset, state.rng.integers(0, big_n, size=n)), state

    if state.perm is None:
        state.perm = _epoch_permutation(state.rng, big_n)
    take = state.perm[state.position : state.position + n]
    state.position += n
    if state.position >= big_n:  # this batch ends the epoch
        state.position, state.perm = state.position - big_n, None
        if spec.strategy == "shuffle_in_epochs":  # the tail is short: N mod n rows
            state.position = 0
        elif state.position:  # "shuffle" runs on into the next epoch (n <= N: at most one)
            state.perm = _epoch_permutation(state.rng, big_n)
            take = np.concatenate([take, state.perm[:state.position]])
    return _take(dataset, take), state
