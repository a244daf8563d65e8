"""Parameter layouts and deterministic splittable randomness.

Parameters live in one flat ``float64`` vector everywhere; its layout names the
slots only at API boundaries (:func:`named`) and in output files.  Randomness is
keyed: a :class:`RandomKey` is ``(seed, path)``, hashed into a generator that a
stream builds once and draws from in order, so identical keys reproduce
identical draws and sibling keys are statistically independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_type

# layout: ordered ((name, shape), ...) pairs; shape () denotes a scalar slot
Layout = tuple[tuple[str, tuple[int, ...]], ...]


def make_layout(spec: dict) -> Layout:
    """Normalize ``{name: shape tuple}`` into a canonical Layout."""
    out = []
    for name, shape in spec.items():
        out.append((str(name), tuple(int(s) for s in shape)))
    if not out:
        raise ValueError("layout must be nonempty")
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


def named(layout: Layout, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Read-only views ``{name: array}`` of ``flat``, whose last axis is the flat
    vector; leading axes (such as samples) are kept in front of each shape."""
    if flat.shape[-1] != layout_size(layout):
        raise ValueError(f"flat length {flat.shape[-1]}, layout expects {layout_size(layout)}")
    out = {}
    for name, (sl, shape) in layout_slices(layout).items():
        out[name] = flat[..., sl].reshape(flat.shape[:-1] + shape)
        out[name].flags.writeable = False
    return out


@dataclass(frozen=True)
class RandomKey:
    """Deterministic splittable random key: a seed plus a path of split indices.

    Consuming a key never mutates it; call :meth:`child` for fresh
    independent streams.  Same ``(seed, path)`` -> same draws, always.
    """

    seed: int  # an int >= 0, never converted; else a ConfigurationError naming it
    path: tuple[int, ...] = ()

    def __post_init__(self):
        check_type("seed", self.seed, (int,))
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative", field="seed")
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
