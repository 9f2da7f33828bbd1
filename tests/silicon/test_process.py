"""Tests for the process-variation model and its reference sampler.

The sampler tests run the per-core reference draw
(:mod:`tests.silicon.scalar_draw`), which the batched
:func:`repro.silicon.chipspec.draw_chips` must match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.silicon.process import ProcessVariationModel

from .scalar_draw import CoreProcessProfile, sample_core_profiles, sample_step_widths


def _profile(widths=(1.0, 2.0, 3.0), speed=1.0, mismatch=5.0):
    return CoreProcessProfile(
        speed_factor=speed, cpm_step_widths_ps=widths, cpm_mismatch_ps=mismatch
    )


class TestCoreProcessProfile:
    def test_negative_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            _profile(mismatch=-1.0)

    def test_negative_width_rejected(self):
        with pytest.raises(ConfigurationError):
            _profile(widths=(1.0, -0.5))

    def test_empty_widths_rejected(self):
        with pytest.raises(ConfigurationError):
            _profile(widths=())

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            _profile(speed=0.0)


class TestProcessVariationModel:
    def test_sample_count(self):
        model = ProcessVariationModel()
        rng = np.random.default_rng(0)
        profiles = sample_core_profiles(model, rng, 8)
        assert len(profiles) == 8

    def test_speed_factors_near_unity(self):
        model = ProcessVariationModel()
        rng = np.random.default_rng(1)
        profiles = sample_core_profiles(model, rng, 8)
        for profile in profiles:
            assert 0.8 < profile.speed_factor < 1.25

    def test_speed_factors_vary(self):
        model = ProcessVariationModel()
        rng = np.random.default_rng(2)
        speeds = [p.speed_factor for p in sample_core_profiles(model, rng, 8)]
        assert len(set(speeds)) == 8

    def test_step_widths_positive(self):
        model = ProcessVariationModel()
        rng = np.random.default_rng(3)
        widths = sample_step_widths(model, rng, 20)
        assert all(w > 0.0 for w in widths)

    def test_step_widths_nonuniform(self):
        # The non-linearity finding: widths must spread widely.
        model = ProcessVariationModel()
        rng = np.random.default_rng(4)
        widths = sample_step_widths(model, rng, 30)
        assert max(widths) / min(widths) > 3.0

    def test_spatial_correlation_of_neighbors(self):
        """Adjacent cores correlate more than distant ones, on average."""
        model = ProcessVariationModel(core_sigma=0.05, die_sigma=0.0)
        adjacent, distant = [], []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            speeds = np.log(
                [p.speed_factor for p in sample_core_profiles(model, rng, 8)]
            )
            adjacent.append((speeds[0] - speeds[1]) ** 2)
            distant.append((speeds[0] - speeds[7]) ** 2)
        assert np.mean(adjacent) < np.mean(distant)

    def test_zero_cores_rejected(self):
        model = ProcessVariationModel()
        with pytest.raises(ConfigurationError):
            sample_core_profiles(model, np.random.default_rng(0), 0)

    def test_zero_steps_rejected(self):
        model = ProcessVariationModel()
        with pytest.raises(ConfigurationError):
            sample_step_widths(model, np.random.default_rng(0), 0)

    @pytest.mark.parametrize(
        "sigma", ["die_sigma", "core_sigma", "step_width_sigma", "mismatch_sigma_ps"]
    )
    def test_negative_sigma_rejected(self, sigma):
        with pytest.raises(ConfigurationError, match="sigmas must be non-negative"):
            ProcessVariationModel(**{sigma: -0.1})

    def test_bad_max_code_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessVariationModel(max_delay_code=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=16))
    def test_any_core_count_samples(self, n_cores):
        model = ProcessVariationModel()
        rng = np.random.default_rng(5)
        profiles = sample_core_profiles(model, rng, n_cores)
        assert len(profiles) == n_cores
        for profile in profiles:
            assert profile.cpm_mismatch_ps >= 0.0
