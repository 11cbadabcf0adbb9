import math
from math import lcm

import pytest

from distseq.landau import LandauValue, landau, max_order_permutation
from distseq.semigroup import CapExceeded, is_bijection, transformation_order


def partitions(k, largest=None):
    if k == 0:
        yield ()
        return
    if largest is None:
        largest = k
    for first in range(min(k, largest), 0, -1):
        for rest in partitions(k - first, first):
            yield (first,) + rest


class TestLandau:
    def test_k1(self):
        assert landau(1) == LandauValue(1, 1, ())

    def test_k5(self):
        # brute force over the 7 partitions of 5 gives max lcm 6 = 2*3
        assert landau(5).value == 6
        assert landau(5).partition == (2, 3)

    def test_k7(self):
        # brute force over the 15 partitions of 7 gives max lcm 12 = 3*4
        assert landau(7).value == 12
        assert landau(7).partition == (3, 4)

    def test_matches_partition_brute_force(self):
        for k in range(1, 21):
            brute = max(lcm(*p) if p else 1 for p in partitions(k))
            assert landau(k).value == brute

    def test_partition_invariants(self):
        for k in range(1, 41):
            lv = landau(k)
            assert sum(lv.partition) <= k
            assert lcm(*(lv.partition or (1,))) == lv.value

    def test_monotone(self):
        values = [landau(k).value for k in range(1, 61)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cap_value_computes_exactly(self):
        lv = landau(200)
        assert sum(lv.partition) <= 200
        assert lcm(*lv.partition) == lv.value > 10 ** 13

    def test_range_errors(self):
        with pytest.raises(ValueError):
            landau(0)
        with pytest.raises(CapExceeded):
            landau(201)

    def test_asymptotic_ratio_logged_not_asserted(self):
        # reference curve only: print ln g(k)/sqrt(k ln k) for inspection
        for k in (50, 100, 150, 200):
            ratio = math.log(landau(k).value) / math.sqrt(k * math.log(k))
            print(f"landau asymptotic ratio k={k}: {ratio:.4f}")


class TestMaxOrderPermutation:
    def test_k1_identity(self):
        assert max_order_permutation(1) == (0,)

    def test_k2_swap(self):
        assert max_order_permutation(2) == (1, 0)

    def test_k5_cycles_two_and_three(self):
        perm = max_order_permutation(5)
        assert perm == (1, 0, 3, 4, 2)
        assert transformation_order(perm) == 6

    def test_order_equals_landau_value(self):
        for k in range(1, 25):
            perm = max_order_permutation(k)
            assert is_bijection(perm)
            assert transformation_order(perm) == landau(k).value
