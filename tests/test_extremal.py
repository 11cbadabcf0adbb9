from itertools import product
from math import comb

import pytest

from distseq.automata import image, is_reduced
from distseq.extremal import (LowerBoundReport, check_cycle_characterization,
                              fig1_automaton, sokolovskii_instance,
                              verify_lower_bound)
from distseq import extremal, semigroup
from distseq.semigroup import CapExceeded, closure, transformation_order


class TestFig1:
    def test_n4_loop_on_input_one(self):
        aut = fig1_automaton(4)
        assert aut.nxt[0][1] == 0 and aut.out[0][1] == 1

    def test_n4_cycle_step(self):
        aut = fig1_automaton(4)
        assert aut.nxt[2][0] == 3 and aut.out[2][0] == 0

    def test_reduced(self):
        for n in (3, 4, 5, 6):
            assert is_reduced(fig1_automaton(n))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            fig1_automaton(2)


class TestSokolovskiiInstance:
    def test_n4_k2_shape(self):
        inst = sokolovskii_instance(4, 2)
        assert inst.m == 3
        assert inst.subsets == ((0, 1), (0, 2), (1, 2))
        assert inst.pi == (1, 0) and inst.order == 2

    def test_n5_k3_shape(self):
        inst = sokolovskii_instance(5, 3)
        assert inst.m == 4
        assert inst.pi == (1, 2, 0) and inst.order == 3

    def test_sink_absorbs_every_letter(self):
        for n, k in ((4, 2), (5, 2), (5, 3)):
            inst = sokolovskii_instance(n, k)
            sink = n - 1
            for a in range(inst.m):
                assert image(inst.semiautomaton, (sink,), (a,)) == {sink}

    def test_letters_walk_the_subset_cycle(self):
        for n, k in ((4, 2), (5, 3), (6, 2)):
            inst = sokolovskii_instance(n, k)
            for i in range(inst.m):
                nxt = inst.subsets[(i + 1) % inst.m]
                assert image(inst.semiautomaton, inst.subsets[i], (i,)) == set(nxt)

    def test_basis_size_and_order(self):
        inst = sokolovskii_instance(5, 2)
        assert len(inst.basis) == comb(4, 2) == 6
        # repeating the target once more yields the permutation's full period
        assert inst.order == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            sokolovskii_instance(4, 4)
        with pytest.raises(ValueError):
            sokolovskii_instance(4, 0)

    def test_cap(self, monkeypatch):
        # (6, 2) needs C(5, 2) = 10 letters
        monkeypatch.setattr(extremal, "DEFAULT_LETTER_CAP", 10)
        assert sokolovskii_instance(6, 2).m == 10
        monkeypatch.setattr(extremal, "DEFAULT_LETTER_CAP", 9)
        with pytest.raises(CapExceeded):
            sokolovskii_instance(6, 2)


class TestCycleCharacterization:
    def test_holds_on_small_instances(self):
        for n, k in ((4, 2), (5, 3)):
            assert check_cycle_characterization(sokolovskii_instance(n, k))

    def test_matches_naive_enumeration_n4_k2(self):
        # independent oracle: literally try every word of length <= 2m
        inst = sokolovskii_instance(4, 2)
        semi = inst.semiautomaton
        d1 = set(inst.subsets[0])
        cycle = tuple(range(inst.m))
        ok = True
        for length in range(1, 2 * inst.m + 1):
            for w in product(range(inst.m), repeat=length):
                if image(semi, d1, w) == d1:
                    s, r = divmod(length, inst.m)
                    if r != 0 or w != cycle * s:
                        ok = False
        ok = ok and image(semi, d1, cycle) == d1
        assert ok == check_cycle_characterization(inst)

    def test_detects_broken_sink(self):
        import dataclasses
        inst = sokolovskii_instance(4, 2)
        # rewire the sink so it escapes: the check must fail
        nxt = [list(r) for r in inst.semiautomaton.nxt]
        nxt[3][0] = 0
        broken = inst.semiautomaton.__class__(4, inst.m,
                                              tuple(tuple(r) for r in nxt))
        assert not check_cycle_characterization(
            dataclasses.replace(inst, semiautomaton=broken))


class TestVerifyLowerBound:
    def test_n4_k2_exact(self):
        rep = verify_lower_bound(4, 2)
        assert isinstance(rep, LowerBoundReport)
        assert rep.computed == 3 and rep.bound == 3 and rep.exact == 3
        assert rep.passed and rep.equals_exact

    def test_n5_cases(self):
        rep = verify_lower_bound(5, 2)
        assert rep.bound == comb(4, 2) * 1 == 6 and rep.passed
        rep = verify_lower_bound(5, 3)
        assert rep.bound == comb(4, 3) * 2 == 8 and rep.passed

    def test_target_complexity_from_independent_closure(self):
        # recompute the level of the target with a fresh closure call
        inst = sokolovskii_instance(4, 2)
        level = closure(inst.basis).level
        assert level[inst.target] == verify_lower_bound(4, 2).computed

    def test_target_composed_with_one_more_cycle_fixes_d1(self):
        from functools import reduce
        from distseq.semigroup import compose
        inst = sokolovskii_instance(5, 3)
        cycle = reduce(compose, inst.basis)
        full = compose(inst.target, cycle)
        d1 = inst.subsets[0]
        # the cycle word applied `order` times in total acts as identity on D_1
        assert tuple(full[q] for q in d1) == d1
        assert transformation_order(inst.pi) == inst.order

    def test_n9_k4_exact(self):
        rep = verify_lower_bound(9, 4)
        assert rep.computed == rep.bound == comb(8, 4) * (4 - 1) == 210
        assert rep.passed and rep.equals_exact

    def test_guard(self, monkeypatch):
        # (5, 2) stores 48 elements before it reaches the target
        monkeypatch.setattr(semigroup, "DEFAULT_ELEMENT_CAP", 40)
        with pytest.raises(CapExceeded):
            verify_lower_bound(5, 2)
