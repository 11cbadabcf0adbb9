import random
from collections import deque
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from distseq import pds, semigroup
from distseq.semigroup import (CapExceeded, PartialBijection, WorstComplexity,
                               closure, complexity, compose, directed_diameter,
                               group_worst_diameter, identity, is_bijection,
                               restriction_complexity, transformation_order,
                               worst_case_complexity)

SWAP = (1, 0)
ID2 = (0, 1)


def random_map(rng, n):
    return tuple(rng.randrange(n) for _ in range(n))


class TestCompose:
    def test_identity_neutral(self):
        f = (2, 0, 1)
        assert compose(f, identity(3)) == f
        assert compose(identity(3), f) == f

    def test_swap_squares_to_identity(self):
        assert compose(SWAP, SWAP) == ID2

    def test_left_composition_with_constant(self):
        cycle = (1, 2, 0)
        const0 = (0, 0, 0)
        assert compose(cycle, const0) == const0

    def test_associative(self):
        rng = random.Random(2)
        for _ in range(100):
            f, g, h = (random_map(rng, 4) for _ in range(3))
            assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_mismatched_ground(self):
        with pytest.raises(ValueError):
            compose((0,), (0, 1))


class TestClosure:
    def test_identity_alone(self):
        res = closure([identity(3)])
        assert res.elements == {identity(3)}
        assert res.level[identity(3)] == 1

    def test_swap_generates_s2(self):
        res = closure([SWAP])
        assert res.level == {SWAP: 1, ID2: 2}

    def test_constant_idempotent(self):
        res = closure([(0, 0)])
        assert res.level == {(0, 0): 1}

    def test_level_one_iff_basis(self):
        rng = random.Random(3)
        basis = [random_map(rng, 4) for _ in range(3)]
        res = closure(basis)
        assert {f for f, d in res.level.items() if d == 1} == set(basis)

    def test_subadditive(self):
        rng = random.Random(4)
        basis = [random_map(rng, 4) for _ in range(2)]
        level = closure(basis).level
        elems = list(level)
        for _ in range(200):
            f, g = rng.choice(elems), rng.choice(elems)
            assert level[compose(f, g)] <= level[f] + level[g]

    def test_monotone_in_basis(self):
        rng = random.Random(5)
        for _ in range(20):
            small = [random_map(rng, 4) for _ in range(2)]
            big = small + [random_map(rng, 4)]
            lo, hi = closure(small).level, closure(big).level
            for f, d in lo.items():
                assert hi[f] <= d


class TestElementCap:
    S3 = [(1, 2, 0), (1, 0, 2)]

    def test_cap_counts_stored_elements(self, monkeypatch):
        monkeypatch.setattr(semigroup, "DEFAULT_ELEMENT_CAP", 6)
        assert len(closure(self.S3).level) == 6
        monkeypatch.setattr(semigroup, "DEFAULT_ELEMENT_CAP", 5)
        with pytest.raises(CapExceeded, match="cap 5"):
            closure(self.S3)
        with pytest.raises(CapExceeded, match="cap 5"):
            complexity(self.S3, (0, 0, 0))

    def test_complexity_stops_before_the_cap(self, monkeypatch):
        monkeypatch.setattr(semigroup, "DEFAULT_ELEMENT_CAP", 2)
        assert complexity(self.S3, (1, 0, 2)) == 1

    def test_one_class(self):
        assert pds.CapExceeded is semigroup.CapExceeded


class TestComplexity:
    def test_basis_element_is_one(self):
        assert complexity([SWAP, (0, 0)], SWAP) == 1

    def test_identity_over_swap(self):
        assert complexity([SWAP], ID2) == 2

    def test_absent_outside_closure(self):
        assert complexity([(0, 0)], ID2) is None


class TestRestrictionComplexity:
    def test_fixed_domain(self):
        f = PartialBijection((0, 1), (0, 1))
        assert restriction_complexity([(0, 1, 2)], f) == 1

    def test_unreachable(self):
        f = PartialBijection((0,), (2,))
        assert restriction_complexity([(0, 1, 2)], f) is None

    def test_at_most_full_complexity(self):
        rng = random.Random(6)
        for _ in range(20):
            basis = [random_map(rng, 4) for _ in range(2)]
            level = closure(basis).level
            for g, d in level.items():
                for D in ((0, 1), (1, 2), (0, 3)):
                    images = tuple(g[x] for x in D)
                    if len(set(images)) < len(D):
                        continue
                    rc = restriction_complexity(basis, PartialBijection(D, images))
                    assert rc is not None and rc <= d

    def test_not_injective_rejected(self):
        with pytest.raises(ValueError):
            PartialBijection((0, 1), (2, 2))

    def test_identity_on_domain_needs_a_non_empty_product(self):
        f = PartialBijection((0, 1), (0, 1))
        assert restriction_complexity([(1, 0, 2)], f) == 2
        assert restriction_complexity([(1, 2, 0)], f) == 3
        assert restriction_complexity([(1, 1, 0)], f) is None

    def test_empty_domain(self):
        assert restriction_complexity([(0, 0)], PartialBijection((), ())) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), bases(n))),
           st.data())
    def test_against_closure(self, case, data):
        n, basis = case
        k = data.draw(st.integers(0, n))
        domain = tuple(sorted(data.draw(st.permutations(range(n)))[:k]))
        images = data.draw(st.one_of(
            st.just(domain), st.permutations(range(n)).map(lambda p: p[:k])))
        f = PartialBijection(domain, tuple(images))
        assert restriction_complexity(basis, f) == \
            restriction_by_closure(basis, f)

    def test_basis_outside_the_ground_set_rejected(self):
        f = PartialBijection((0, 1), (1, 7))
        with pytest.raises(ValueError, match="basis maps a point outside"):
            restriction_complexity([(1, 7, 0)], f)

    def test_basis_on_mixed_ground_sets_rejected(self):
        f = PartialBijection((0, 1), (1, 2))
        with pytest.raises(ValueError, match="different ground sets"):
            restriction_complexity([(1, 2, 0), (0, 1)], f)

    def test_f_outside_the_ground_set_rejected(self):
        for f in (PartialBijection((0, 3), (1, 2)),
                  PartialBijection((0, 1), (1, 5)),
                  PartialBijection((0, 1), (-1, 2))):
            with pytest.raises(ValueError, match="outside the ground set"):
                restriction_complexity([(1, 2, 0)], f)


def naive_worst(C):
    """Definition-level oracle: every basis, all products enumerated by length."""
    C = sorted(set(C))
    worst = 0
    for mask in range(1, 1 << len(C)):
        basis = [C[i] for i in range(len(C)) if mask >> i & 1]
        seen = {}
        length = 0
        while True:
            length += 1
            new = False
            for factors in product(basis, repeat=length):
                f = factors[0]
                for g in factors[1:]:
                    f = compose(f, g)
                if f not in seen:
                    seen[f] = length
                    new = True
            if not new:
                break
        worst = max(worst, max(seen.values()))
    return worst


class TestWorstCase:
    def test_t1(self):
        assert worst_case_complexity([identity(1)]).value == 1

    def test_s2_matches_oracle(self):
        assert worst_case_complexity([SWAP, ID2]).value == naive_worst([SWAP, ID2])

    def test_t2_matches_oracle(self):
        t2 = list(product(range(2), repeat=2))
        assert worst_case_complexity(t2).value == naive_worst(t2)

    def test_s2_at_most_t2(self):
        t2 = list(product(range(2), repeat=2))
        assert worst_case_complexity([SWAP, ID2]).value <= \
            worst_case_complexity(t2).value

    def test_value_basis_and_witness(self):
        t2 = list(product(range(2), repeat=2))
        s3 = [tuple(p) for p in permutations(range(3))]
        assert worst_case_complexity(t2) == WorstComplexity(2, ((1, 0),), (0, 1))
        assert worst_case_complexity(reversed(s3)) == \
            WorstComplexity(3, ((0, 2, 1), (1, 0, 2)), (2, 1, 0))

    def test_cap(self):
        t3 = list(product(range(3), repeat=3))
        with pytest.raises(CapExceeded):
            worst_case_complexity(t3, cap_bases=100)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            worst_case_complexity([])


class TestDiameter:
    def test_trivial_group(self):
        assert group_worst_diameter([identity(3)]) == 1

    def test_s2_group_equals_worst_case(self):
        assert group_worst_diameter([SWAP, ID2]) == \
            worst_case_complexity([SWAP, ID2]).value

    def test_three_cycle(self):
        assert directed_diameter([(1, 2, 0)]) == 3

    def test_bases_cap(self, monkeypatch):
        s3 = [tuple(p) for p in permutations(range(3))]
        monkeypatch.setattr(semigroup, "DEFAULT_BASES_CAP", 63)
        assert group_worst_diameter(s3) == 3
        monkeypatch.setattr(semigroup, "DEFAULT_BASES_CAP", 62)
        with pytest.raises(CapExceeded, match="63 bases"):
            group_worst_diameter(s3)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            directed_diameter([(0, 0)])

    def test_group_max_diameter_equals_worst_case_s2_s3(self):
        # ell(S_n) should equal the max directed diameter over all subgroups
        for n in (2, 3):
            sn = [tuple(p) for p in permutations(range(n))]
            subgroups = set()
            for mask in range(1, 1 << len(sn)):
                basis = [sn[i] for i in range(len(sn)) if mask >> i & 1]
                subgroups.add(closure(basis).elements)
            best = max(group_worst_diameter(sorted(g)) for g in subgroups)
            assert best == worst_case_complexity(sn).value


def test_transformation_order():
    assert transformation_order(identity(4)) == 1
    assert transformation_order(SWAP) == 2
    assert transformation_order((1, 0, 3, 4, 2)) == 6
    with pytest.raises(ValueError):
        transformation_order((0, 0))


def test_is_bijection():
    assert is_bijection((2, 0, 1))
    assert not is_bijection((0, 0, 1))


def tuple_closure(basis):
    """Reference closure: breadth-first over tuples built with compose."""
    level = {}
    queue = deque()
    for f in basis:
        if f not in level:
            level[f] = 1
            queue.append(f)
    while queue:
        f = queue.popleft()
        for g in basis:
            h = compose(f, g)
            if h not in level:
                level[h] = level[f] + 1
                queue.append(h)
    return level


def restriction_by_closure(basis, f):
    """Reference: the least level of a closure element that agrees with f."""
    return min((d for g, d in tuple_closure(basis).items()
                if tuple(g[x] for x in f.domain) == f.images), default=None)


def diameter_and_witness(level):
    """The largest level of a reference closure and its lex-least element."""
    top = max(level.values())
    return top, min(f for f, d in level.items() if d == top)


def bases(n):
    maps = st.tuples(*[st.integers(0, n - 1)] * n)
    return st.lists(maps, min_size=1, max_size=3)


class TestKernelAgainstTupleBfs:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        bases(n), st.tuples(*[st.integers(0, n - 1)] * n))), st.data())
    def test_small_ground_sets(self, case, data):
        basis, outside = case
        ref = tuple_closure(basis)
        res = closure(basis)
        level = res.level
        assert level == ref
        assert list(level.items()) == list(ref.items())
        assert len(level) == len(ref)
        assert (res.max_level, res.witness) == diameter_and_witness(ref)
        inside = data.draw(st.sampled_from(sorted(ref)))
        for f in (inside, outside):
            assert complexity(basis, f) == ref.get(f)
            assert level.get(f) == ref.get(f)

    def test_cycle_past_byte_range(self):
        n = 300
        cycle = tuple((i + 1) % n for i in range(n))
        ref = tuple_closure([cycle])
        res = closure([cycle])
        level = res.level
        assert level == ref
        assert level[identity(n)] == n
        assert (res.max_level, res.witness) == diameter_and_witness(ref) == \
            (n, identity(n))
        shift = tuple((i + 7) % n for i in range(n))
        assert complexity([cycle], shift) == 7
        assert complexity([cycle], identity(n)) == n
        assert complexity([cycle], (0,) * n) is None

    def test_keys_outside_the_ground_set(self):
        basis = [SWAP, (0, 0)]
        level = closure(basis).level
        for key in ((0, 2), (-1, 0), (0, 1, 2), (0, 256)):
            assert key not in level
            assert level.get(key) is None
            assert complexity(basis, key) is None
        assert 2 not in level
        assert (0, 0) in level

    def test_basis_outside_the_ground_set_rejected(self):
        for basis in ([(0, 2)], [(-1, 0)], [(0, 1), (1, 300)]):
            with pytest.raises(ValueError):
                closure(basis)
