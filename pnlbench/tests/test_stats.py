"""The statistics and input draws behind the end-to-end metrics."""

import numpy as np
import pytest

import workloads


def test_p95_leaves_ten_of_two_hundred_beyond_it():
    assert workloads.p95(list(range(1, 201))) == 190
    with pytest.raises(ValueError):
        workloads.p95(list(range(199)))


def test_stratified_draws_one_per_stratum_and_repeat_by_seed():
    p = workloads.stratified(np.random.default_rng(3), 30.0, 35.0, 2000)
    strata = np.floor((p - 30.0) / 5.0 * 2000).astype(int)
    assert np.array_equal(strata, np.arange(2000))
    again = workloads.stratified(np.random.default_rng(3), 30.0, 35.0, 2000)
    assert np.array_equal(p, again)


def test_rounds_run_at_least_once():
    assert list(workloads._rounds(0.0)) == [0]
