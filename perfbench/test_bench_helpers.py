"""Unit tests for the benchmark's own metric helpers."""

import numpy as np
import pytest

from bench_metrics import (
    is_joint,
    measurement_digest,
    percentile,
    reference_time,
    trimmed_mean,
    self_time,
    tail_percentile,
    union_length,
)


@pytest.mark.parametrize(
    "n_ops, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (300, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n_ops, expected):
    assert tail_percentile(n_ops) == expected


def test_tail_value_leaves_ten_ops_beyond():
    for n in range(20, 1200, 7):
        values = list(range(1, n + 1))
        p = tail_percentile(n)
        assert sum(v > percentile(values, p) for v in values) >= 10


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0]
    assert percentile(values, 50.0) == 5.0
    assert percentile(values, 90.0) == 9.0
    assert percentile(values, 100.0) == 10.0


def test_trimmed_mean_drops_a_tenth_at_each_end():
    values = [1.0] * 18 + [0.0, 4000.0]
    assert trimmed_mean(values) == 1.0
    assert trimmed_mean([3.0, 1.0, 2.0]) == 2.0  # n < 10 drops nothing
    with pytest.raises(ValueError):
        trimmed_mean([])


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (1.5, 1.8)]) == 3.0


def test_self_time_subtracts_union_of_children():
    # overlapping children count once; the part of a child outside the
    # span does not count
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.0, 12.0)]
    assert self_time((0.0, 10.0), children) == pytest.approx(10.0 - 3.0 - 1.0 - 1.0)
    assert self_time((0.0, 10.0), []) == 10.0
    assert self_time((0.0, 10.0), [(20.0, 30.0)]) == 10.0


def test_reference_time_skips_probes_and_scales_each_gap():
    # probes at [0, 1] (slowdown 1), [4, 5] (3) and [9, 10] (2); the op runs
    # from 2 to 8 and contains the middle probe
    probes = [(0.0, 1.0, 1.0), (4.0, 5.0, 3.0), (9.0, 10.0, 2.0)]
    busy, ref = reference_time(2.0, 8.0, probes)
    assert busy == pytest.approx(5.0)
    assert ref == pytest.approx(2.0 / 2.0 + 3.0 / 2.5)
    with pytest.raises(ValueError):
        reference_time(0.5, 8.0, probes)
    with pytest.raises(ValueError):
        reference_time(2.0, 9.5, probes)


def test_joint_filter_keeps_nonzero_linear_term():
    from aeroinv.orthant_mvn import QuadraticForm

    prior = QuadraticForm(np.eye(3), np.zeros(3))
    joint = QuadraticForm(np.eye(3), np.array([0.0, 0.0, 1e-300]), 4.0)
    assert not is_joint(prior)
    assert is_joint(joint)


def test_measurement_digest_tracks_values():
    from aeroinv.model_selection import Measurement

    wl = np.linspace(0.6, 3.3, 4)
    a = Measurement(wl, np.ones(4), np.full(4, 0.1), 300)
    b = Measurement(wl, np.ones(4), np.full(4, 0.1), 300)
    c = Measurement(wl, np.ones(4), np.full(4, 0.2), 300)
    assert measurement_digest([a]) == measurement_digest([b])
    assert measurement_digest([a]) != measurement_digest([c])
