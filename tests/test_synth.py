import pytest

from exocast.series import Month, pearson_correlation
from exocast.synth import SyntheticSpec, generate_synthetic


class TestSpecValidation:
    def test_beta_count_must_match_drivers(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_months=24, n_drivers=2, driver_betas=(1.0,))

    def test_ar_coefficient_range(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_months=24, ar_coefficient=1.0)

    def test_drivers_bounded_by_indicators(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_months=24, n_indicators=3, n_drivers=4, driver_betas=(1, 1, 1, 1))

    def test_noise_positive(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_months=24, noise_sigma=0.0)

    @pytest.mark.parametrize("changes, message", [
        ({"ar_coefficient": float("nan")}, "ar_coefficient must be finite, got nan"),
        ({"seasonal_amplitude": float("inf")}, "seasonal_amplitude must be finite, got inf"),
        ({"noise_sigma": float("inf")}, "noise_sigma must be finite, got inf"),
        ({"n_drivers": 2, "driver_betas": (1.0, float("-inf"))}, "driver_betas must be finite, got -inf"),
    ], ids=["ar", "amplitude", "noise", "beta"])
    def test_non_finite_values_refused(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyntheticSpec(n_months=24, **changes)


class TestGenerate:
    def test_shape_and_ids(self):
        frame, truth = generate_synthetic(
            SyntheticSpec(n_months=40, n_indicators=5, n_drivers=2, driver_betas=(1.0, 2.0), seed=1)
        )
        assert len(frame) == 40
        assert frame.start == Month(2016, 1)
        assert frame.indicator_ids == ("ind01", "ind02", "ind03", "ind04", "ind05")
        assert set(truth.driver_ids) <= set(frame.indicator_ids)
        assert truth.betas == (1.0, 2.0)

    # At 2 months the driver also leads the target by more months than the
    # series has, so every target month takes the driver's first value.
    @pytest.mark.parametrize("n_months", [5, 2])
    def test_series_shorter_than_the_driver_smoothing_window(self, n_months):
        frame, truth = generate_synthetic(
            SyntheticSpec(n_months=n_months, n_indicators=2, n_drivers=1, driver_betas=(1.0,), seed=0)
        )
        assert len(frame) == n_months and len(truth.driver_ids) == 1
        assert not frame.target.has_missing

    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(n_months=50, n_indicators=4, n_drivers=1, driver_betas=(1.5,), seed=3)
        a, ta = generate_synthetic(spec)
        b, tb = generate_synthetic(spec)
        assert a.target.values == b.target.values
        for x, y in zip(a.indicators, b.indicators):
            assert x.values == y.values
        assert ta == tb

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic(SyntheticSpec(n_months=50, seed=0))
        b, _ = generate_synthetic(SyntheticSpec(n_months=50, seed=1))
        assert a.target.values != b.target.values

    def test_no_drivers_means_independence(self):
        worst = 0.0
        for seed in range(10):
            frame, truth = generate_synthetic(
                SyntheticSpec(n_months=120, n_indicators=10, seed=seed)
            )
            assert truth.driver_ids == ()
            t = frame.target.require_complete()
            for s in frame.indicators:
                worst = max(worst, abs(pearson_correlation(t, s.require_complete())))
        assert worst < 0.5

    def test_strong_driver_dominates_correlation(self):
        for seed in range(10):
            frame, truth = generate_synthetic(
                SyntheticSpec(
                    n_months=120, n_indicators=10, n_drivers=1,
                    driver_betas=(2.0,), noise_sigma=0.01, seed=seed,
                )
            )
            driver = frame.indicator(truth.driver_ids[0])
            r = pearson_correlation(frame.target.require_complete(), driver.require_complete())
            assert abs(r) > 0.9

    def test_no_missing_values(self):
        frame, _ = generate_synthetic(SyntheticSpec(n_months=30, seed=7))
        assert not frame.target.has_missing
        assert not any(s.has_missing for s in frame.indicators)
