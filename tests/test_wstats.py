import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leadkin.wstats import effective_sample_size


def kish(w):
    s = w.sum()
    return float(s * s / np.square(w).sum())


class TestEffectiveSampleSize:
    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_ordinary_weights_give_the_plain_formula_bit_for_bit(self, weights):
        w = np.array(weights)
        assert effective_sample_size(w) == kish(w)

    @pytest.mark.parametrize("exponent", [-1000, -500, 500, 1000])
    def test_power_of_two_scaling_changes_nothing(self, exponent):
        w = np.random.default_rng(5).uniform(0.1, 2.0, 40)
        assert effective_sample_size(np.ldexp(w, exponent)) == kish(w)

    @pytest.mark.parametrize("big", [2e154, 1e200, 1e300, np.finfo(float).max])
    def test_huge_weight_does_not_overflow(self, big):
        w = np.array([big, 1.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert effective_sample_size(w) == 1.0

    def test_no_positive_weight_is_zero(self):
        assert effective_sample_size(np.zeros(3)) == 0.0
        assert effective_sample_size(np.array([])) == 0.0
