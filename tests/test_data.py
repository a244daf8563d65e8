import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmc.core import RandomKey
from sgmc.data import STRATEGIES, BatchSpec, init_batch_state, load_in_memory, next_batch
from sgmc.errors import ConfigurationError

from conftest import CHI2_99


def drain(dataset, spec, count):
    state = init_batch_state(dataset, spec)
    batches = []
    for _ in range(count):
        batch, state = next_batch(dataset, spec, state)
        batches.append(batch)
    return batches


class TestLoadInMemory:
    def test_named_arrays(self):
        ds = load_in_memory(arrays={"x": np.zeros((100, 4)), "y": np.zeros(100)})
        assert ds.size == 100

    def test_ragged(self):
        with pytest.raises(ValueError, match="leading axes"):
            load_in_memory(arrays={"x": np.zeros((100, 4)), "y": np.zeros(99)})


class TestNextBatch:
    def test_batch_larger_than_dataset(self):
        ds = load_in_memory(arrays={"y": np.arange(3.0)})
        spec = BatchSpec(2, "shuffle", RandomKey(0))
        with pytest.raises(ValueError):
            init_batch_state(ds, BatchSpec(5, "shuffle", RandomKey(0)))
        with pytest.raises(ValueError):
            next_batch(ds, BatchSpec(5, "shuffle", RandomKey(0)), init_batch_state(ds, spec))

    @pytest.mark.parametrize("size, strategy, field", [
        (0, "shuffle", "batch_size"), (1.0, "shuffle", "batch_size"),
        (2, "bogus", "batch_strategy")])
    def test_bad_spec_names_the_field(self, size, strategy, field):
        with pytest.raises(ConfigurationError) as err:
            BatchSpec(size, strategy)
        assert err.value.field == field

    def test_batch_larger_than_dataset_names_batch_size(self):
        ds = load_in_memory(arrays={"y": np.arange(3.0)})
        with pytest.raises(ConfigurationError) as err:
            init_batch_state(ds, BatchSpec(5, "shuffle", RandomKey(0)))
        assert err.value.field == "batch_size"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_advances_the_state_it_is_given(self, strategy):
        # the cursor is a stream: next_batch moves it forward and hands it back
        ds = load_in_memory(arrays={"y": np.arange(7.0)})
        spec = BatchSpec(3, strategy, RandomKey(2))
        expected = [b.indices.tolist() for b in drain(ds, spec, 5)]
        state = init_batch_state(ds, spec)
        got = []
        for _ in range(5):
            batch, returned = next_batch(ds, spec, state)
            assert returned is state
            got.append(batch.indices.tolist())
        assert got == expected

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_one_row_dataset_batches_like_any_dataset(self, strategy):
        # N = 1: each batch is gathered afresh like any other, and it is row 0, unmasked
        ds = load_in_memory(arrays={"x": np.array([[1.0, 2.0]]), "y": np.array([3.0])})
        spec = BatchSpec(1, strategy, RandomKey(2))
        state = init_batch_state(ds, spec)
        for _ in range(5):
            batch, returned = next_batch(ds, spec, state)
            assert returned is state
            assert batch.indices.tolist() == [0] and batch.mask.tolist() == [True]
            assert batch.n_effective == 1 and batch.full_size == 1
            assert batch.arrays["x"].tolist() == [[1.0, 2.0]]
            assert batch.arrays["y"].tolist() == [3.0]
            batch.arrays["y"][0] = -1.0  # a gathered copy: the dataset keeps its row
        assert ds["y"].tolist() == [3.0]

    def test_full_batches_share_one_read_only_mask(self):
        # N = 7 in batches of 3: each epoch ends on a 1-row batch, with a mask of its own size
        ds = load_in_memory(arrays={"y": np.arange(7.0)})
        full, other, tail, *_, next_tail = drain(
            ds, BatchSpec(3, "shuffle_in_epochs", RandomKey(2)), 6)
        assert full.mask is other.mask and full.mask.tolist() == [True] * 3
        assert tail.mask is next_tail.mask and tail.mask.tolist() == [True]
        for mask in (full.mask, tail.mask):
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = False

    def test_epochs_partition(self):
        ds = load_in_memory(arrays={"y": np.arange(4.0)})
        b1, b2 = drain(ds, BatchSpec(2, "shuffle_in_epochs", RandomKey(3)), 2)
        seen = sorted(np.concatenate([b1.indices, b2.indices]).tolist())
        assert seen == [0, 1, 2, 3]
        assert b1.mask.all() and b2.mask.all()

    def test_epoch_tail_is_the_rows_left(self):
        # the epoch's last batch holds its N mod n rows, whole, and counts only them
        for n_obs, batch in [(5, 2), (61, 7), (60, 8)]:
            ds = load_in_memory(arrays={"x": np.ones((n_obs, 2)),
                                        "y": np.arange(float(n_obs))})
            per_epoch = -(-n_obs // batch)
            tail = drain(ds, BatchSpec(batch, "shuffle_in_epochs", RandomKey(3)), per_epoch)[-1]
            rows = n_obs % batch
            assert tail.size == tail.n_effective == rows
            assert tail.mask.tolist() == [True] * rows and tail.full_size == n_obs
            assert tail.arrays["x"].shape == (rows, 2)
            assert np.array_equal(tail.arrays["y"], tail.indices.astype(float))

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_epoch_multiset_property(self, n_obs, batch, seed):
        batch = min(batch, n_obs)
        ds = load_in_memory(arrays={"y": np.arange(float(n_obs))})
        per_epoch = -(-n_obs // batch)
        batches = drain(ds, BatchSpec(batch, "shuffle_in_epochs", RandomKey(seed)),
                        2 * per_epoch)
        for epoch in (batches[:per_epoch], batches[per_epoch:]):
            seen = sorted(
                int(i) for b in epoch for i in b.indices[b.mask]
            )
            assert seen == list(range(n_obs))

    def test_shuffle_merges_tail_no_padding(self):
        ds = load_in_memory(arrays={"y": np.arange(5.0)})
        batches = drain(ds, BatchSpec(2, "shuffle", RandomKey(4)), 5)
        assert all(b.mask.all() for b in batches)
        # two full permutations consumed over 5 batches of 2
        seen = np.concatenate([b.indices for b in batches])
        counts = np.bincount(seen, minlength=5)
        assert counts.sum() == 10
        assert set(counts.tolist()) == {2}

    def test_draw_replacement_uniform(self):
        ds = load_in_memory(arrays={"y": np.arange(3.0)})
        batches = drain(ds, BatchSpec(1, "draw_replacement", RandomKey(11)), 30000)
        counts = np.bincount([int(b.indices[0]) for b in batches], minlength=3)
        freqs = counts / 30000
        assert np.all(np.abs(freqs - 1 / 3) < 0.02)
        stat = ((counts - 10000.0) ** 2 / 10000.0).sum()
        assert stat < CHI2_99[2]

    def test_deterministic_sequence(self):
        ds = load_in_memory(arrays={"y": np.arange(7.0)})
        spec = BatchSpec(3, "shuffle", RandomKey(21))
        a = [b.indices.tolist() for b in drain(ds, spec, 6)]
        b = [b.indices.tolist() for b in drain(ds, spec, 6)]
        assert a == b

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_shuffles_cut_the_epoch_permutation_stream(self, n_obs, batch, seed):
        batch = min(batch, n_obs)
        key = RandomKey(seed)
        ds = load_in_memory(arrays={"y": np.arange(float(n_obs))})
        rng = key.generator()
        perms = [rng.permutation(n_obs) for _ in range(4)]

        count = 3 * n_obs // batch  # full batches within the first three epochs
        got = drain(ds, BatchSpec(batch, "shuffle", key), count)
        stream = np.concatenate(perms)[: count * batch]
        assert np.array_equal(np.concatenate([b.indices for b in got]), stream)
        assert all(b.mask.all() for b in got)

        # each epoch's permutation cut into blocks of n, the last one short
        expected = [perm[start : start + batch]
                    for perm in perms[:3] for start in range(0, n_obs, batch)]
        got = drain(ds, BatchSpec(batch, "shuffle_in_epochs", key), len(expected))
        for b, indices in zip(got, expected):
            assert np.array_equal(b.indices, indices)
            assert b.mask.all() and b.n_effective == indices.shape[0]

    @pytest.mark.parametrize("strategy", ["shuffle", "shuffle_in_epochs"])
    def test_one_permutation_per_epoch(self, monkeypatch, strategy):
        calls = []
        generator = RandomKey.generator

        def counting(key):
            calls.append(key)
            return generator(key)

        monkeypatch.setattr(RandomKey, "generator", counting)
        ds = load_in_memory(arrays={"y": np.arange(10.0)})
        # 3 epochs of N = 10: ten full batches of 3, or four batches of 3 per epoch
        drain(ds, BatchSpec(3, strategy, RandomKey(5)), 10 if strategy == "shuffle" else 12)
        assert len(calls) == 1  # one stream, built once, draws every epoch's permutation
