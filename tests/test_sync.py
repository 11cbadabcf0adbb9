import random
import time
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from distseq.automata import PartialSemiautomaton, image, step
from distseq.sync import (is_irreducible, reachable_subsets,
                          shortest_carefully_synchronizing,
                          shortest_irreducible)


def random_psemi(rng, n, a, density=0.85):
    nxt = tuple(tuple(rng.randrange(n) if rng.random() < density else None
                      for _ in range(a))
                for _ in range(n))
    return PartialSemiautomaton(n, a, nxt)


class TestCarefullySynchronizing:
    def test_single_state_epsilon(self):
        aut = PartialSemiautomaton(1, 1, ((0,),))
        assert shortest_carefully_synchronizing(aut) == ()

    def test_constant_letter_length_one(self):
        aut = PartialSemiautomaton(2, 2, ((0, 0), (1, 0)))
        assert shortest_carefully_synchronizing(aut) == (1,)

    def test_partial_three_state_example(self):
        # letter 0 merges {0,1} but is undefined on 2; letter 1 sends 2 to 0
        # and fixes 0,1; exhaustive search to depth 3 confirms "10" is optimal
        aut = PartialSemiautomaton(3, 2, ((0, 0), (0, 1), (None, 0)))
        assert shortest_carefully_synchronizing(aut) == (1, 0)
        states = tuple(range(3))
        for length in range(2):
            for w in product(range(2), repeat=length):
                img = image(aut, states, w)
                assert img is None or len(img) > 1

    def test_absent_when_all_letters_undefined_somewhere(self):
        aut = PartialSemiautomaton(2, 1, ((0,), (None,)))
        assert shortest_carefully_synchronizing(aut) is None

    def test_careful_word_is_irreducible(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(200):
            aut = random_psemi(rng, rng.randint(2, 4), rng.randint(1, 3))
            w = shortest_carefully_synchronizing(aut)
            if w is not None:
                assert is_irreducible(aut, w)
                hits += 1
        assert hits > 20


class TestIsIrreducible:
    def test_undefined_word_false(self):
        aut = PartialSemiautomaton(2, 1, ((0,), (None,)))
        assert not is_irreducible(aut, (0,))

    def test_permutation_letters_epsilon_true(self):
        aut = PartialSemiautomaton(3, 2, ((1, 0), (2, 1), (0, 2)))
        assert is_irreducible(aut, ())

    def test_out_of_range_symbol(self):
        aut = PartialSemiautomaton(2, 1, ((0,), (1,)))
        with pytest.raises(ValueError):
            is_irreducible(aut, (3,))

    def test_word_given_as_iterator(self):
        aut = PartialSemiautomaton(2, 1, ((0,), (0,)))
        assert is_irreducible(aut, iter((0,)))
        assert not is_irreducible(aut, iter(()))

    def test_out_of_range_symbol_after_undefined_step(self):
        aut = PartialSemiautomaton(2, 2, ((None, 0), (1, 1)))
        with pytest.raises(ValueError, match="input symbol 5 out of range"):
            is_irreducible(aut, (0, 5))

    def test_agrees_with_definitional_oracle(self):
        rng = random.Random(32)
        for _ in range(100):
            n = rng.randint(2, 4)
            aut = random_psemi(rng, n, 2)
            w = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
            fast = is_irreducible(aut, w)
            slow = definitional_irreducible(aut, w, 2 ** n)
            assert fast == slow


def definitional_irreducible(aut, w, bound):
    """Literal quantifier over all defined continuations up to the bound."""
    S = image(aut, aut.states(), w)
    if S is None:
        return False
    for length in range(bound + 1):
        for beta in product(range(aut.n_inputs), repeat=length):
            T = image(aut, S, beta)
            if T is not None and len(T) < len(S):
                return False
    return True


class TestShortestIrreducible:
    def test_constant_total_letter(self):
        aut = PartialSemiautomaton(3, 2, ((0, 1), (0, 2), (0, 0)))
        w = shortest_irreducible(aut)
        assert w is not None and len(w) == 1

    def test_all_permutations_epsilon(self):
        aut = PartialSemiautomaton(3, 2, ((1, 0), (2, 1), (0, 2)))
        assert shortest_irreducible(aut) == ()

    def test_stuck_pair_stays_irreducible(self):
        # the single letter collapses {0,1,2} to {1,2} and then permutes it:
        # the shortest irreducible word leaves more than one state alive
        aut = PartialSemiautomaton(3, 1, ((1,), (2,), (1,)))
        w = shortest_irreducible(aut)
        assert w == (0,)
        img = image(aut, aut.states(), w)
        assert len(img) == 2
        # exhaustive oracle to depth 5: no word ever reaches a singleton,
        # and no word shorter than w is irreducible
        for length in range(6):
            for beta in product(range(1), repeat=length):
                t = image(aut, aut.states(), beta)
                assert t is None or len(t) > 1
        assert not definitional_irreducible(aut, (), 5)

    def test_cardinality_monotone(self):
        rng = random.Random(33)
        for _ in range(50):
            aut = random_psemi(rng, rng.randint(2, 4), 2)
            states = aut.states()
            for _ in range(10):
                alpha = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
                beta = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
                a_img = image(aut, states, alpha)
                ab_img = image(aut, states, alpha + beta)
                if a_img is not None and ab_img is not None:
                    assert len(ab_img) <= len(a_img)


def test_reachable_subsets_contains_start():
    aut = PartialSemiautomaton(3, 2, ((1, 0), (2, 1), (0, 2)))
    reach = reachable_subsets(aut, (0, 1))
    assert frozenset((0, 1)) in reach
    assert all(len(T) == 2 for T in reach)


def cerny(n):
    """Cerny automaton C_n: letter 0 rotates, letter 1 sends n-1 to 0 and
    fixes the rest; its shortest reset word has length (n-1)^2."""
    return PartialSemiautomaton(n, 2, tuple(((q + 1) % n, 0 if q == n - 1 else q)
                                            for q in range(n)))


def test_cerny_family():
    began = time.perf_counter()
    for n in range(2, 13):
        aut = cerny(n)
        for w in (shortest_carefully_synchronizing(aut),
                  shortest_irreducible(aut)):
            assert w is not None and len(w) == (n - 1) ** 2
            assert len(image(aut, aut.states(), w)) == 1
            assert is_irreducible(aut, w)
    assert time.perf_counter() - began < 10


def reference_searches(aut):
    """Reference subset-lattice searches: a dequeue-order BFS of its own,
    and the full reachable set built for every subset an irreducibility
    check visits."""
    def bfs(start):
        visited = {start}
        queue = deque([(start, ())])
        while queue:
            S, word = queue.popleft()
            yield S, word
            for a in range(aut.n_inputs):
                S2 = step(aut, S, a)
                if S2 is not None and S2 not in visited:
                    visited.add(S2)
                    queue.append((S2, word + (a,)))

    def reachable(S):
        return {T for T, _ in bfs(frozenset(S))}

    def irreducible(S):
        return all(len(T) == len(S) for T in reachable(S))

    Q = frozenset(aut.states())
    careful = next((w for S, w in bfs(Q) if len(S) == 1), None)
    shortest = next((w for S, w in bfs(Q) if irreducible(S)), None)
    return reachable, irreducible, careful, shortest


def partial_semiautomata():
    def table(n, letters):
        cell = st.none() | st.integers(0, n - 1)
        return st.tuples(*[st.tuples(*[cell] * letters)] * n).map(
            lambda nxt: PartialSemiautomaton(n, letters, nxt))
    return st.integers(1, 6).flatmap(
        lambda n: st.integers(1, 3).flatmap(lambda letters: table(n, letters)))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(partial_semiautomata(), st.data())
    def test_all_four_searches(self, aut, data):
        reachable, irreducible, careful, shortest = reference_searches(aut)
        assert shortest_carefully_synchronizing(aut) == careful
        assert shortest_irreducible(aut) == shortest
        S = data.draw(st.sets(st.integers(0, aut.n_states - 1), min_size=1))
        assert reachable_subsets(aut, S) == reachable(S)
        w = data.draw(st.lists(st.integers(0, aut.n_inputs - 1), max_size=4))
        img = image(aut, aut.states(), w)
        assert is_irreducible(aut, w) == (img is not None and irreducible(img))
