import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from distseq.automata import (MealyAutomaton, PartialSemiautomaton, Partition,
                              bfs_words, image, is_reduced, minimize, run,
                              uncertainty)
from distseq.extremal import fig1_automaton


@pytest.fixture
def fig1_n4():
    return fig1_automaton(4)


def random_mealy(rng, n, a=2, b=2):
    nxt = tuple(tuple(rng.randrange(n) for _ in range(a)) for _ in range(n))
    out = tuple(tuple(rng.randrange(b) for _ in range(a)) for _ in range(n))
    return MealyAutomaton(n, a, b, nxt, out)


class TestRun:
    def test_loop_at_first_state(self, fig1_n4):
        assert run(fig1_n4, 0, (1,)) == (0, (1,))

    def test_empty_word(self, fig1_n4):
        assert run(fig1_n4, 2, ()) == (2, ())

    def test_cycle_then_merge(self, fig1_n4):
        # traced by hand: q2 -0-> q3 (out 0), q3 -1-> q1 (out 0)
        assert run(fig1_n4, 1, (0, 1)) == (0, (0, 0))

    def test_output_length(self, fig1_n4):
        for w in product(range(2), repeat=3):
            _, o = run(fig1_n4, 0, w)
            assert len(o) == 3

    def test_range_errors(self, fig1_n4):
        with pytest.raises(ValueError):
            run(fig1_n4, 9, (0,))
        with pytest.raises(ValueError):
            run(fig1_n4, 0, (5,))

    def test_one_shot_iterator_word(self, fig1_n4):
        assert run(fig1_n4, 1, iter((0, 1))) == (0, (0, 0))


class TestImage:
    def test_empty_word_is_identity(self, fig1_n4):
        assert image(fig1_n4, {0, 2}, ()) == frozenset({0, 2})

    def test_all_states_merge_on_one(self, fig1_n4):
        assert image(fig1_n4, {0, 1}, (1,)) == frozenset({0})

    def test_undefined_cell(self):
        aut = PartialSemiautomaton(2, 1, ((None,), (0,)))
        assert image(aut, {0}, (0,)) is None
        assert image(aut, {1}, (0,)) == frozenset({0})

    def test_one_shot_iterator_word(self):
        aut = PartialSemiautomaton(2, 1, ((0,), (0,)))
        assert image(aut, range(2), iter([0])) == frozenset({0})

    def test_composes(self, fig1_n4):
        rng = random.Random(0)
        for _ in range(50):
            S = {q for q in range(4) if rng.random() < 0.6} or {0}
            alpha = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
            beta = tuple(rng.randrange(2) for _ in range(rng.randrange(4)))
            assert image(fig1_n4, S, alpha + beta) == \
                image(fig1_n4, image(fig1_n4, S, alpha), beta)

    def test_never_grows(self, fig1_n4):
        for w in product(range(2), repeat=4):
            assert len(image(fig1_n4, range(4), w)) <= 4


def _oracle_reduced(aut):
    """Exhaustive: states p, q equivalent iff all words up to length n-1 agree."""
    for p in range(aut.n_states):
        for q in range(p + 1, aut.n_states):
            distinguishable = False
            for length in range(aut.n_states):
                for w in product(range(aut.n_inputs), repeat=length):
                    if run(aut, p, w)[1] != run(aut, q, w)[1]:
                        distinguishable = True
                        break
                if distinguishable:
                    break
            if not distinguishable:
                return False
    return True


class TestReduction:
    def test_fig1_is_reduced(self):
        for n in (3, 4, 5):
            assert is_reduced(fig1_automaton(n))

    def test_duplicate_states(self):
        # states 1 and 2 have identical rows
        aut = MealyAutomaton(3, 1, 2, ((1,), (2,), (2,)), ((0,), (1,), (1,)))
        assert not is_reduced(aut)
        assert minimize(aut).n_states == 2

    def test_agrees_with_word_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            aut = random_mealy(rng, 6)
            assert is_reduced(aut) == _oracle_reduced(aut)

    def test_minimize_idempotent(self):
        rng = random.Random(8)
        for _ in range(20):
            m = minimize(random_mealy(rng, 5))
            assert is_reduced(m)
            assert minimize(m) == m

    def test_minimize_preserves_behavior(self):
        rng = random.Random(9)
        for _ in range(10):
            aut = random_mealy(rng, 5)
            m = minimize(aut)
            # state 0 must behave identically (block numbering keeps it first)
            for w in product(range(2), repeat=4):
                assert run(aut, 0, w)[1] == run(m, 0, w)[1]


class TestUncertainty:
    def test_empty_word_trivial(self, fig1_n4):
        assert uncertainty(fig1_n4, {0, 1, 2}, ()).is_trivial()

    def test_split_on_one(self, fig1_n4):
        assert uncertainty(fig1_n4, {0, 1, 2}, (1,)).blocks == ((0,), (1, 2))

    def test_one_shot_iterator_word(self, fig1_n4):
        assert uncertainty(fig1_n4, {0, 1, 2}, iter((1,))).blocks == ((0,), (1, 2))

    def test_merged_states_stay_merged(self, fig1_n4):
        assert uncertainty(fig1_n4, {0, 1, 2}, (1, 0)).blocks == ((0,), (1, 2))

    def test_refinement_monotone(self, fig1_n4):
        rng = random.Random(1)
        for _ in range(100):
            alpha = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
            beta = tuple(rng.randrange(2) for _ in range(rng.randrange(5)))
            assert uncertainty(fig1_n4, range(4), alpha + beta).refines(
                uncertainty(fig1_n4, range(4), alpha))


class TestPartition:
    def test_canonical_form(self):
        p = Partition.from_blocks([[3, 1], [2], [0]])
        assert p.blocks == ((0,), (1, 3), (2,))
        assert p.ground == (0, 1, 2, 3)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition.from_blocks([[0, 1], [1, 2]])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            Partition.from_blocks([[0], []])

    def test_discrete_refines_everything(self):
        d = Partition.from_blocks([[0], [1], [2]])
        t = Partition.from_blocks([[0, 1, 2]])
        assert d.refines(t)
        assert not t.refines(d)
        assert d.is_discrete() and t.is_trivial()


def test_validation():
    with pytest.raises(ValueError):
        MealyAutomaton(2, 1, 1, ((5,), (0,)), ((0,), (0,)))
    with pytest.raises(ValueError):
        MealyAutomaton(2, 1, 1, ((0,), (0,)), ((3,), (0,)))
    with pytest.raises(ValueError):
        PartialSemiautomaton(2, 1, ((9,), (None,)))


def labelled_digraphs():
    """(start, table): table[x][a] is the successor of node x under label a,
    or None; at most one arc per node and label."""
    def table(n, labels):
        cell = st.none() | st.integers(0, n - 1)
        row = st.tuples(*[cell] * labels)
        return st.tuples(st.integers(0, n - 1), st.tuples(*[row] * n))
    return st.integers(1, 6).flatmap(
        lambda n: st.integers(1, 3).flatmap(lambda labels: table(n, labels)))


def shortlex_first_words(start, table):
    """Reference: the first word in shortlex order that reaches each node."""
    first = {}
    for length in range(len(table)):  # a shortest path visits each node once
        for w in product(range(len(table[0])), repeat=length):
            x = start
            for a in w:
                x = table[x][a] if x is not None else None
            if x is not None and x not in first:
                first[x] = w
    return first


class TestBfsWords:
    @settings(max_examples=200, deadline=None)
    @given(labelled_digraphs())
    def test_against_shortlex_enumeration(self, case):
        start, table = case

        def moves(x):
            return ((a, y) for a, y in enumerate(table[x]) if y is not None)

        found = list(bfs_words(start, moves))
        assert found[0] == (start, ())
        nodes = [x for x, _ in found]
        assert len(nodes) == len(set(nodes))
        lengths = [len(w) for _, w in found]
        assert lengths == sorted(lengths)
        assert dict(found) == shortlex_first_words(start, table)

    def test_yields_a_node_as_soon_as_it_is_found(self):
        # a caller that stops at 1 reads no further move of 0, and none of 1
        def moves(x):
            assert x == 0, "expanded the node the caller stopped at"
            yield 0, 1
            raise AssertionError("read past the move that found the node")

        assert next(w for x, w in bfs_words(0, moves) if x == 1) == (0,)
