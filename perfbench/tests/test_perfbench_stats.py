"""Percentiles, the tail rule and the scaling to the reference speed."""

import pytest

import run
import workloads as wl


def test_percentile_interpolates():
    assert wl.percentile([1, 2, 3, 4], 50) == 2.5
    assert wl.percentile([5], 99) == 5
    assert wl.percentile(list(range(101)), 99) == 99


@pytest.mark.parametrize(
    "n, want",
    [
        (19, None),  # p50 would leave 9.5 samples beyond it
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10_000, 99.9),
        (100_000, 99.99),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, want):
    assert wl.tail_percentile(n) == want


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (20, 150, 1234, 56_789):
        q = wl.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10
        higher = [x for x in wl.TAIL_LADDER if x > q]
        assert all(n * (100 - x) / 100 < 10 for x in higher)


def test_end_to_end_totals_batches_and_scales_to_the_reference_speed():
    # the reference kernel took twice REFERENCE_S on average: the host ran at half speed
    ref = run.REFERENCE_S
    batches = [{"wall_s": 2.0, "setup_s": 0.4, "peak_rss_mb": 40.0, "reference_s": 1.5 * ref},
               {"wall_s": 4.0, "setup_s": 0.2, "peak_rss_mb": 42.0, "reference_s": 2.5 * ref}]
    metrics, info = run.end_to_end(batches, [0.01] * 6, 6, 0)
    values = {name: value for name, (value, _) in metrics.items()}
    assert values == pytest.approx({"wall_s": 1.5, "op_per_s": 2.0, "op_p50_ms": 5.0,
                                    "op_tail_ms": 5.0, "peak_rss_mb": 41.0, "setup_s": 0.15})
    assert info["unscaled"] == pytest.approx({"wall_s": 3.0, "op_per_s": 1.0, "op_p50_ms": 10.0,
                                              "op_tail_ms": 10.0, "setup_s": 0.3})
