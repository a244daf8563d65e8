"""Parameter containers and deterministic splittable randomness.

Parameters live in a canonical flat ``float64`` vector; the named structure
(layout) only matters at API boundaries and in output files.  Randomness is
keyed: a :class:`RandomKey` is ``(seed, path)``, hashed into a generator that a
stream builds once and draws from in order, so identical keys reproduce
identical draws and sibling keys are statistically independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError

# layout: ordered ((name, shape), ...) pairs; shape () denotes a scalar slot
Layout = tuple[tuple[str, tuple[int, ...]], ...]


def make_layout(spec) -> Layout:
    """Normalize ``{name: shape}`` or pair-iterable into a canonical Layout."""
    items = spec.items() if hasattr(spec, "items") else spec
    out = []
    for name, shape in items:
        if isinstance(shape, int):
            shape = (shape,)
        out.append((str(name), tuple(int(s) for s in shape)))
    if not out:
        raise LayoutError("layout must be nonempty")
    return tuple(out)


def layout_size(layout: Layout) -> int:
    return int(sum(int(np.prod(shape, dtype=np.int64)) for _, shape in layout))


def layout_slices(layout: Layout) -> dict[str, tuple[slice, tuple[int, ...]]]:
    """Map each name to its (slice, shape) in the flat vector."""
    out, offset = {}, 0
    for name, shape in layout:
        size = int(np.prod(shape, dtype=np.int64))
        out[name] = (slice(offset, offset + size), shape)
        offset += size
    return out


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Named parameter slots backed by one flat real vector.

    Instances are treated as immutable values.
    """

    layout: Layout
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if vals.shape[0] != layout_size(self.layout):
            raise LayoutError(
                f"flat vector has length {vals.shape[0]}, layout expects "
                f"{layout_size(self.layout)}"
            )
        object.__setattr__(self, "values", vals)

    def to_named(self) -> dict[str, np.ndarray]:
        """Structured read-only view ``{name: array}`` of the flat vector."""
        out = {}
        for name, (sl, shape) in layout_slices(self.layout).items():
            arr = self.values[sl].reshape(shape)
            arr.flags.writeable = False
            out[name] = arr
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        return self.to_named()[name]

    def __eq__(self, other):
        return (
            isinstance(other, ParameterVector)
            and self.layout == other.layout
            and np.array_equal(self.values, other.values)
        )

    @property
    def size(self) -> int:
        return self.values.shape[0]


def structure(layout: Layout, vec) -> ParameterVector:
    """A copy of ``vec`` under ``layout``; rejects vectors of the wrong length."""
    return ParameterVector(layout, np.array(vec, dtype=np.float64).reshape(-1))


@dataclass(frozen=True)
class RandomKey:
    """Deterministic splittable random key: a seed plus a path of split indices.

    Consuming a key never mutates it; call :meth:`child` for fresh
    independent streams.  Same ``(seed, path)`` -> same draws, always.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if int(self.seed) < 0:
            raise ValueError("seed must be nonnegative")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "path", tuple(int(p) for p in self.path))

    def child(self, index: int) -> "RandomKey":
        if index < 0:
            raise ValueError("split index must be nonnegative")
        return RandomKey(self.seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        # hash-based stream derivation: SeedSequence mixes (entropy, spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(ss))


def normal_flat(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    """``n`` i.i.d. Normal(0, scale^2) draws from ``rng``; scale 0 -> zeros, no draw."""
    if scale == 0.0:
        return np.zeros(n)
    return rng.standard_normal(n) * scale
