import math

import numpy as np
import pytest

from minorkern.numerics import NumericError, clenshaw_curtis, interlaced, slog_to_float


class TestSlogToFloat:
    @pytest.mark.parametrize("lg", [710.0, 1033.7])
    def test_out_of_range_is_a_numeric_error(self, lg):
        with pytest.raises(NumericError, match=f"log magnitude {lg:g}"):
            slog_to_float(1.0, lg)


class TestInterlaced:
    def test_strict_chain(self):
        assert interlaced([5.0, 3.0, 1.0], [4.0, 2.0])
        assert interlaced([1.0], [])
        assert interlaced(np.array([5.0, 3.0]), np.array([4.0]))

    @pytest.mark.parametrize("inner", [[5.0, 2.0], [4.0, 3.0], [4.0, 1.0]],
                             ids=["equal-above", "equal-below", "equal-last"])
    def test_equal_neighbours_rejected_in_strict_form(self, inner):
        assert not interlaced([5.0, 3.0, 1.0], inner)

    def test_weak_form_accepts_equality_below_only(self):
        assert interlaced([5, 3, 1], [3, 1], weak=True)
        assert interlaced([5, 3, 1], [4, 1], weak=True)
        assert not interlaced([5, 3, 1], [5, 2], weak=True)
        assert not interlaced([5, 3, 1], [4, 0], weak=True)
        assert not interlaced([5, 3, 1], [3, 1])

    @pytest.mark.parametrize("weak", [False, True])
    def test_out_of_order_and_nan_rejected(self, weak):
        assert not interlaced([1.0, 3.0, 5.0], [2.0, 4.0], weak=weak)
        assert not interlaced([5.0, math.nan, 1.0], [4.0, 2.0], weak=weak)
        assert not interlaced([5.0, 3.0, 1.0], [4.0, math.nan], weak=weak)

    def test_lengths_must_differ_by_one(self):
        for outer, inner in (([3.0, 1.0], [2.0, 0.5]), ([3.0, 2.0, 1.0], [2.5]), ([], [])):
            with pytest.raises(ValueError):
                interlaced(outer, inner)


class TestClenshawCurtis:
    @pytest.mark.parametrize("n", [2, 8, 32, 64])
    def test_exact_for_polynomials_to_degree_n(self, n):
        x, w = clenshaw_curtis(n)
        for k in range(n + 1):
            assert w @ x**k == pytest.approx(2.0 / (k + 1) if k % 2 == 0 else 0.0, abs=1e-15)

    def test_rule_for_n_takes_every_other_node_of_2n(self):
        assert np.array_equal(clenshaw_curtis(32)[0], clenshaw_curtis(64)[0][::2])
