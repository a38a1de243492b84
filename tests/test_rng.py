import numpy as np
import pytest
from scipy import stats

from eprbsim.rng import uniform_block

from . import reference


def test_same_stream_is_bit_identical():
    a = uniform_block(1, 0, 1, 1000)
    b = uniform_block(1, 0, 1, 1000)
    assert a.tobytes() == b.tobytes()


def test_distinct_trials_differ():
    a, b = uniform_block(1, 0, 2, 1000).T
    assert a.tobytes() != b.tobytes()
    assert not np.any(a == b)  # avalanche: no aligned collisions


def test_distinct_seeds_differ():
    a = uniform_block(1, 0, 1, 100)
    b = uniform_block(2, 0, 1, 100)
    assert not np.allclose(a, b)


def test_incremental_reads_match_bulk():
    # any split of the trials, and any prefix of the draws, reads the same values
    bulk = uniform_block(99, 0, 10, 10)
    parts = np.concatenate([uniform_block(99, lo, hi, 10)
                            for lo, hi in ((0, 3), (3, 8), (8, 10))], axis=1)
    assert parts.tobytes() == bulk.tobytes()
    assert uniform_block(99, 0, 10, 3).tobytes() == bulk[:3].tobytes()


def test_uniform_block_matches_streams():
    block = uniform_block(5, 10, 20, 6)
    assert block.shape == (6, 10)
    for offset, trial in enumerate(range(10, 20)):
        assert block[:, offset].tolist() == reference.uniforms(5, trial, 6)


def test_values_in_unit_interval():
    u = uniform_block(123, 0, 10**5, 4)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_uniformity_chi_square():
    # 100 draws from each of trials 0..99 under seed 7
    u = uniform_block(7, 0, 100, 100).ravel()
    assert u.size == 10**4
    counts, _ = np.histogram(u, bins=50, range=(0.0, 1.0))
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        uniform_block(1, 10, 5, 4)


@pytest.mark.parametrize("first, last", [(1.5, 3), (True, 3), (0, 2.0), (0, False),
                                         (np.float64(1.0), 3)])
def test_trial_bounds_must_be_integers(first, last):
    with pytest.raises(ValueError, match="must be an integer"):
        uniform_block(1, first, last, 1)


def test_range_must_not_wrap_past_the_last_counter():
    # trials 2**64 and 2**64 + 1 would wrap onto trials 0 and 1 and reuse their draws
    with pytest.raises(ValueError, match="past 2\\*\\*64"):
        uniform_block(1, 2**64 - 3, 2**64 + 2, 1)
    with pytest.raises(ValueError, match="first_trial must be >= 0"):
        uniform_block(1, -1, 2, 1)
    top = uniform_block(1, 2**64 - 3, 2**64, 2)
    assert top.shape == (2, 3)
    assert not np.isin(top, uniform_block(1, 0, 2, 2)).any()


def test_numpy_integers_and_out_buffers():
    ref = uniform_block(4, 10, 30, 3)
    assert np.array_equal(uniform_block(4, np.int64(10), np.uint64(30), 3), ref)
    out, work = np.empty((3, 20)), np.empty((3, 20), dtype=np.uint64)
    assert uniform_block(4, 10, 30, 3, out=out, work=work) is out
    assert out.tobytes() == ref.tobytes()
