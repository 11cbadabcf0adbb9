"""Landau's function g(k): the maximum order of a permutation of k points."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .semigroup import CapExceeded, Transformation

DEFAULT_K_CAP = 200


@dataclass(frozen=True)
class LandauValue:
    """g(k) together with an lcm-maximizing partition.

    The partition consists of pairwise coprime prime powers whose sum is
    at most k; fixed points fill the remainder.
    """

    k: int
    value: int
    partition: tuple[int, ...]


def _primes_upto(k: int) -> list[int]:
    sieve = [True] * (k + 1)
    primes = []
    for p in range(2, k + 1):
        if sieve[p]:
            primes.append(p)
            for q in range(p * p, k + 1, p):
                sieve[q] = False
    return primes


def landau(k: int) -> LandauValue:
    """Exact g(k) by dynamic programming over prime powers.

    For each prime p the DP may spend one power p^j of its budget; the
    lcm of coprime prime powers is their product, so maximizing the
    product over such choices maximizes the lcm over all partitions.
    Values are exact Python integers, so growth past machine-word range
    is harmless.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > DEFAULT_K_CAP:
        raise CapExceeded(f"would run the DP to k = {k} (cap {DEFAULT_K_CAP})")
    # best[b] = (value, partition) achievable with budget b over primes seen so far
    best: list[tuple[int, tuple[int, ...]]] = [(1, ())] * (k + 1)
    for p in _primes_upto(k):
        new = list(best)
        for b in range(p, k + 1):
            pj = p
            while pj <= b:
                v, part = best[b - pj]
                cand = (v * pj, tuple(sorted(part + (pj,))))
                if cand[0] > new[b][0] or (cand[0] == new[b][0] and cand[1] < new[b][1]):
                    new[b] = cand
                pj *= p
        best = new
    value, partition = best[k]
    return LandauValue(k, value, partition)


def max_order_permutation(k: int) -> Transformation:
    """A permutation of {0..k-1} of order g(k).

    Disjoint cycles with the Landau partition's lengths, laid out
    consecutively from point 0 in ascending cycle-length order.
    """
    lv = landau(k)
    perm = list(range(k))
    pos = 0
    for length in lv.partition:
        for i in range(length - 1):
            perm[pos + i] = pos + i + 1
        perm[pos + length - 1] = pos
        pos += length
    assert lcm(*(lv.partition or (1,))) == lv.value
    return tuple(perm)
