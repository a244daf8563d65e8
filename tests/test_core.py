import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmc.core import RandomKey, layout_size, make_layout, named, normal_flat
from sgmc.errors import ConfigurationError

from conftest import CHI2_99


def layouts():
    shapes = st.one_of(
        st.just(()),
        st.tuples(st.integers(1, 4)),
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    return st.dictionaries(
        st.text("abcdefgh", min_size=1, max_size=4), shapes, min_size=1, max_size=4
    ).map(make_layout)


class TestParameterVector:
    """The flat parameter vector and its named views, :func:`named`."""

    def test_declared_ordering(self, tiny_layout):
        flat = np.array([1.0, 2.0, 0.5])
        views = named(tiny_layout, flat)
        assert list(views) == ["w", "log_sigma"]
        assert np.array_equal(views["w"], [1.0, 2.0]) and float(views["log_sigma"]) == 0.5

    def test_empty_layout_is_refused(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_layout({})

    def test_structure_wrong_length(self, tiny_layout):
        with pytest.raises(ValueError):
            named(tiny_layout, np.zeros(4))

    def test_named_view(self, tiny_layout):
        flat = np.array([1.0, 2.0, 0.5])
        views = named(tiny_layout, flat)
        assert views["w"].shape == (2,)
        assert views["log_sigma"].shape == ()
        assert float(views["log_sigma"]) == 0.5
        assert np.shares_memory(views["w"], flat)  # views, not copies
        with pytest.raises(ValueError):
            views["w"][0] = 9.0  # ... and read-only

    def test_leading_axes_are_kept(self, tiny_layout):
        stacked = np.arange(12.0).reshape(4, 3)
        views = named(tiny_layout, stacked)
        assert views["w"].shape == (4, 2) and views["log_sigma"].shape == (4,)
        assert np.array_equal(views["log_sigma"], stacked[:, 2])

    @given(layouts(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, layout, seed):
        vec = RandomKey(seed).generator().standard_normal(layout_size(layout))
        views = named(layout, vec)
        assert [(name, view.shape) for name, view in views.items()] == list(layout)
        assert np.array_equal(np.concatenate([v.reshape(-1) for v in views.values()]), vec)


class TestGaussianLike:
    """Gaussian draws of :func:`normal_flat`."""

    def test_zero_scale_exact_zeros(self):
        out = normal_flat(RandomKey(7).generator(), 3, 0.0)
        assert np.array_equal(out, np.zeros(3))

    def test_same_key_same_draw(self):
        key = RandomKey(123, (4, 5))
        assert np.array_equal(normal_flat(key.generator(), 3, 2.0),
                              normal_flat(key.generator(), 3, 2.0))

    def test_unit_variance_monte_carlo(self):
        # 10^6 draws: sample variance within 0.01 of 1
        draws = normal_flat(RandomKey(2024).generator(), 1000000, 1.0)
        assert abs(draws.var() - 1.0) < 0.01


def children(key, k):
    return [key.child(i) for i in range(k)]


class TestSplit:
    """Child keys of :meth:`RandomKey.child`."""

    def test_deterministic(self):
        a = children(RandomKey(9, (1,)), 2)
        b = children(RandomKey(9, (1,)), 2)
        assert a == b

    @pytest.mark.parametrize("seed", [2.5, 2.0, -1, True, "3", None])
    def test_seed_other_than_a_nonnegative_int_names_the_field(self, seed):
        # never converted: RandomKey(2.7) is not RandomKey(2)
        with pytest.raises(ConfigurationError) as err:
            RandomKey(seed)
        assert err.value.field == "seed"

    @pytest.mark.parametrize("path", [(2.7,), (1, -1), (True,), ("3",), [2], 2])
    def test_path_other_than_a_tuple_of_nonnegative_ints_names_the_field(self, path):
        # never converted: RandomKey(1, (2.7,)) is not RandomKey(1, (2,))
        with pytest.raises(ConfigurationError) as err:
            RandomKey(1, path)
        assert err.value.field == "path"

    def test_negative_split_index_names_the_path(self):
        with pytest.raises(ConfigurationError) as err:
            RandomKey(1, (3,)).child(-1)
        assert err.value.field == "path"
        assert RandomKey(1, (3,)).child(0) == RandomKey(1, (3, 0))

    def test_consuming_does_not_mutate(self):
        key = RandomKey(5)
        before = (key.seed, key.path)
        normal_flat(key.generator(), 3, 1.0)
        children(key, 4)
        assert (key.seed, key.path) == before

    def test_children_distinct_and_streams_collision_free(self):
        # distinct (parent, child) pairs never produce equal first draws
        seen = set()
        for parent in range(1000):
            for child in children(RandomKey(parent), 100):
                seen.add(int(child.generator().integers(0, 2**63)))
        assert len(seen) == 100000

    def test_sibling_independence_chi_square(self):
        k1, k2 = children(RandomKey(77), 2)
        n = 4096
        x = k1.generator().standard_normal(n)
        y = k2.generator().standard_normal(n)
        # 4x4 contingency table over quartile bins
        qx = np.searchsorted(np.quantile(x, [0.25, 0.5, 0.75]), x)
        qy = np.searchsorted(np.quantile(y, [0.25, 0.5, 0.75]), y)
        table = np.zeros((4, 4))
        np.add.at(table, (qx, qy), 1)
        expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / n
        stat = ((table - expected) ** 2 / expected).sum()
        assert stat < CHI2_99[9]  # independence not rejected at the 1% level
