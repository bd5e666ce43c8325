"""Tests for the 2 m fixed-window resampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atl03.granule import BeamData
from repro.resampling.window import resample_fixed_window


def _beam(along, height, truth, conf=None):
    """A beam with the given photons; everything else zero."""
    along = np.asarray(along, dtype=float)
    zeros = np.zeros(along.size)
    return BeamData(
        name="gt1r",
        along_track_m=along,
        height_m=np.asarray(height, dtype=float),
        lat_deg=zeros,
        lon_deg=zeros,
        x_m=zeros,
        y_m=zeros,
        delta_time_s=zeros,
        signal_conf=np.full(along.size, 4) if conf is None else conf,
        is_signal=np.ones(along.size, dtype=bool),
        background_rate_hz=zeros,
        truth_class=np.asarray(truth),
    )


def _window_oracle(signal, segments):
    """Per-window loop with ``np.median`` and ``np.unique`` + ``argmax``."""
    w = segments.window_length_m
    n = segments.n_segments
    edges = segments.start_along_track_m[0] + np.arange(n + 1) * w
    want = {
        "n_photons": np.zeros(n, dtype=np.int64),
        "median": np.full(n, np.nan),
        "mean": np.full(n, np.nan),
        "std": np.full(n, np.nan),
        "truth": np.full(n, -1, dtype=np.int8),
    }
    for i in range(n):
        inside = (signal.along_track_m >= edges[i]) & (signal.along_track_m < edges[i + 1])
        want["n_photons"][i] = inside.sum()
        if not inside.any():
            continue
        heights = signal.height_m[inside]
        want["median"][i] = np.median(heights)
        want["mean"][i] = heights.mean()
        want["std"][i] = heights.std()
        vals, cnts = np.unique(signal.truth_class[inside], return_counts=True)
        want["truth"][i] = vals[np.argmax(cnts)]
    return want


class TestResampleFixedWindow:
    def test_segment_spacing_is_window_length(self, segments):
        diffs = np.diff(segments.center_along_track_m)
        np.testing.assert_allclose(diffs, 2.0)

    def test_covers_beam_extent(self, beam, segments):
        assert segments.start_along_track_m[0] <= beam.along_track_m[0]
        assert segments.start_along_track_m[-1] + 2.0 >= beam.along_track_m[-1]

    def test_photon_counts_conserved(self, beam, segments):
        n_signal = int((beam.signal_conf >= 3).sum())
        assert int(segments.n_photons.sum()) == n_signal

    def test_heights_bracketed_by_min_max(self, segments):
        valid = segments.valid_mask()
        assert np.all(segments.height_min_m[valid] <= segments.height_mean_m[valid] + 1e-9)
        assert np.all(segments.height_mean_m[valid] <= segments.height_max_m[valid] + 1e-9)
        assert np.all(segments.height_min_m[valid] <= segments.height_median_m[valid] + 1e-9)

    def test_std_non_negative(self, segments):
        valid = segments.valid_mask()
        assert np.all(segments.height_std_m[valid] >= 0.0)

    def test_empty_segments_have_nan_stats_and_zero_counts(self, segments):
        empty = ~segments.valid_mask()
        if empty.any():
            assert np.all(np.isnan(segments.height_mean_m[empty]))
            assert np.all(segments.n_photons[empty] == 0)
            # but interpolated coordinates remain finite
            assert np.all(np.isfinite(segments.x_m[empty]))

    def test_against_bruteforce_reference(self, beam):
        """Every window's statistics against a naive per-window loop.

        Counts, medians and majority classes must match bit for bit; the
        mean and std come from grouped sums, whose summation order differs
        from ``ndarray.mean``, so they match to rounding.
        """
        segments = resample_fixed_window(beam, window_length_m=10.0)
        signal = beam.select(beam.signal_conf >= 3)
        want = _window_oracle(signal, segments)
        np.testing.assert_array_equal(segments.n_photons, want["n_photons"])
        np.testing.assert_array_equal(segments.height_median_m, want["median"])
        np.testing.assert_array_equal(segments.truth_class, want["truth"])
        np.testing.assert_allclose(segments.height_mean_m, want["mean"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(segments.height_std_m, want["std"], rtol=0, atol=1e-9)

    def test_window_length_affects_count(self, beam):
        fine = resample_fixed_window(beam, window_length_m=2.0)
        coarse = resample_fixed_window(beam, window_length_m=20.0)
        assert fine.n_segments > coarse.n_segments * 5

    def test_truth_class_majority(self, segments):
        valid = segments.valid_mask()
        assert np.all(segments.truth_class[valid] >= 0)

    def test_invalid_window_rejected(self, beam):
        with pytest.raises(ValueError):
            resample_fixed_window(beam, window_length_m=0.0)

    def test_empty_beam_rejected(self, beam):
        empty = beam.select(np.zeros(beam.n_photons, dtype=bool))
        with pytest.raises(ValueError):
            resample_fixed_window(empty)

    def test_select_subsets(self, segments):
        mask = segments.n_photons > 0
        subset = segments.select(mask)
        assert subset.n_segments == int(mask.sum())
        with pytest.raises(ValueError):
            segments.select(mask[:-1])

    def test_height_error_behaviour(self, segments):
        err = segments.height_error_m()
        valid = segments.valid_mask()
        assert np.all(err[valid] > 0.0)
        assert np.all(np.isnan(err[~valid]))
        # More photons -> smaller error, on average.
        many = segments.n_photons >= 8
        few = (segments.n_photons >= 1) & (segments.n_photons <= 2)
        if many.any() and few.any():
            assert np.nanmean(err[many]) < np.nanmean(err[few])

    @given(window=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=10, deadline=None)
    def test_property_photon_conservation(self, beam, window):
        segments = resample_fixed_window(beam, window_length_m=window)
        assert int(segments.n_photons.sum()) == int((beam.signal_conf >= 3).sum())


class TestResampleExactStatistics:
    """Median and majority class are bit-equal to the per-window loop."""

    def test_hand_built_windows(self):
        # 2 m windows from 0 m: odd count, even count with a class tie, one
        # photon, empty, a NaN height, a tie between unknown (-1) and a class.
        beam = _beam(
            along=[0.1, 0.5, 1.5, 2.1, 2.2, 2.3, 3.9, 4.5,
                   8.1, 8.2, 8.3, 10.1, 10.2, 10.3, 10.4, 11.0],
            height=[0.3, 0.1, 0.2, 0.4, 0.1, 0.3, 0.2, 7.0,
                    np.nan, 1.0, 2.0, 5.0, 6.0, 6.0, 5.0, 9.0],
            truth=[1, 1, 2, 2, 1, 2, 1, 0, 1, 1, 1, -1, 3, 3, -1, 0],
        )
        seg = resample_fixed_window(beam, window_length_m=2.0)
        np.testing.assert_array_equal(seg.n_photons, [3, 4, 1, 0, 3, 5])
        np.testing.assert_array_equal(
            seg.height_median_m, [0.2, (0.2 + 0.3) / 2.0, 7.0, np.nan, np.nan, 6.0]
        )
        np.testing.assert_array_equal(seg.truth_class, [1, 1, 0, -1, 1, -1])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_beams_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        along = np.sort(rng.uniform(0.0, rng.uniform(1.0, 300.0), n))
        # Coarse heights make equal values (and equal medians) common.
        height = np.round(rng.normal(0.0, 1.0, n), int(rng.integers(0, 3)))
        height[rng.random(n) < 0.02] = np.nan
        truth = rng.integers(-1, int(rng.integers(0, 4)) + 1, n)
        conf = rng.integers(0, 5, n)
        beam = _beam(along, height, truth, conf)
        window = float(rng.choice([0.5, 2.0, 7.5]))
        seg = resample_fixed_window(beam, window_length_m=window)
        want = _window_oracle(beam.select(beam.signal_conf >= 3), seg)
        np.testing.assert_array_equal(seg.n_photons, want["n_photons"])
        np.testing.assert_array_equal(seg.height_median_m, want["median"])
        np.testing.assert_array_equal(seg.truth_class, want["truth"])
