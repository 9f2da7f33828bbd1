"""Tests for the failure taxonomy and outcome sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atm.failure import FailureMode, FailureModel
from repro.errors import (
    ApplicationError,
    ConfigurationError,
    SilentDataCorruption,
    SystemCrash,
)

from .scalar_walk import numpy_mode_cdf, numpy_sample_mode


class TestModeProbabilities:
    def test_probabilities_sum_to_one(self):
        model = FailureModel()
        for deficit in (0.0, 0.5, 1.0, 2.0, 10.0):
            probs = model.mode_probabilities(deficit)
            assert sum(probs.values()) == pytest.approx(1.0)
            assert all(p >= 0.0 for p in probs.values())

    def test_deep_deficit_biases_toward_crash(self):
        model = FailureModel()
        shallow = model.mode_probabilities(0.1)
        deep = model.mode_probabilities(5.0)
        assert deep[FailureMode.SYSTEM_CRASH] > shallow[FailureMode.SYSTEM_CRASH]
        assert (
            deep[FailureMode.SILENT_DATA_CORRUPTION]
            < shallow[FailureMode.SILENT_DATA_CORRUPTION]
        )

    def test_negative_deficit_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureModel().mode_probabilities(-0.1)

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureModel(severity_scale_ps=0.0)


class TestSampling:
    def test_sample_matches_distribution(self):
        model = FailureModel()
        rng = np.random.default_rng(0)
        draws = [model.sample_mode(rng, 0.2) for _ in range(3000)]
        expected = model.mode_probabilities(0.2)
        for mode in FailureMode:
            fraction = draws.count(mode) / len(draws)
            assert fraction == pytest.approx(expected[mode], abs=0.03)

    def test_deterministic_given_rng(self):
        model = FailureModel()
        a = [model.sample_mode(np.random.default_rng(7), 1.0) for _ in range(20)]
        b = [model.sample_mode(np.random.default_rng(7), 1.0) for _ in range(20)]
        assert a == b

    @settings(max_examples=200, deadline=None)
    @given(
        deficit=st.one_of(
            st.floats(min_value=0.0, max_value=12.0),
            st.sampled_from([0.0, 1.0, 2.0, 4.0, 5e-324, 1.9999999999999998]),
        ),
        scale=st.sampled_from([2.0, 0.5, 3.7]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_numpy_cdf_search(self, deficit, scale, seed):
        """Scalar cdf: same mode and one uniform draw, like the NumPy form."""
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        for _ in range(3):
            assert FailureModel(scale).sample_mode(rng, deficit) == (
                numpy_sample_mode(reference, deficit, scale)
            )
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_boundary_draws_match_numpy(self):
        # Draws that land exactly on a cdf boundary go to the upper mode,
        # as searchsorted(side="right") sends them.
        class Fixed:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        model = FailureModel()
        for deficit in np.linspace(0.0, 5.0, 2001).tolist():
            cdf = numpy_mode_cdf(deficit).tolist()
            draws = [0.0, 0.999]
            for edge in cdf[:2]:
                draws += [edge, float(np.nextafter(edge, 0.0))]
            for draw in (d for d in draws if d < 1.0):  # random() is in [0, 1)
                assert model.sample_mode(Fixed(draw), deficit) == (
                    numpy_sample_mode(Fixed(draw), deficit)
                )


class TestExceptions:
    @pytest.mark.parametrize(
        "mode, exc_type",
        [
            (FailureMode.SYSTEM_CRASH, SystemCrash),
            (FailureMode.ABNORMAL_EXIT, ApplicationError),
            (FailureMode.SILENT_DATA_CORRUPTION, SilentDataCorruption),
        ],
    )
    def test_exception_mapping(self, mode, exc_type):
        exc = FailureModel().to_exception(mode, "P0C1", 1.25)
        assert isinstance(exc, exc_type)
        assert exc.core_id == "P0C1"
        assert exc.deficit_ps == 1.25
        assert "P0C1" in str(exc)
