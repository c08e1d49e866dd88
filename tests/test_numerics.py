import math

import numpy as np
import pytest

from minorkern.numerics import interlaced


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
