import random
from collections import deque
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from distseq import pds
from distseq.automata import MealyAutomaton, run, uncertainty
from distseq.extremal import fig1_automaton
from distseq.pds import (CapExceeded, has_pds, shortest_pds, worst_case_pds,
                         ABSENT, FOUND, GAVE_UP)


def random_mealy(rng, n, a=2, b=2):
    nxt = tuple(tuple(rng.randrange(n) for _ in range(a)) for _ in range(n))
    out = tuple(tuple(rng.randrange(b) for _ in range(a)) for _ in range(n))
    return MealyAutomaton(n, a, b, nxt, out)


def is_pds(aut, S, w):
    return uncertainty(aut, S, w).is_discrete()


# The search over (initial, current) pairs, singleton blocks kept, as it
# stood before nodes became blocks of current states: an independent
# reference for the statuses and words of pds._search.
def reference_expand(node, a, nxt, out):
    blocks = []
    for block in node:
        groups = {}
        for init, cur in block:
            groups.setdefault(out[cur][a], []).append((init, nxt[cur][a]))
        for g in groups.values():
            if len(g) > 1 and len({c for _, c in g}) < len(g):
                return None
            blocks.append(tuple(g))
    blocks.sort(key=lambda b: b[0][0])
    return tuple(blocks)


def reference_search(nxt, out, n_inputs, S, max_len, cap_nodes):
    start = (tuple((q, q) for q in S),)
    if all(len(b) == 1 for b in start):
        return pds.PdsResult(FOUND, ())
    visited = {start}
    queue = deque([(start, ())])
    truncated = False
    while queue:
        node, word = queue.popleft()
        if max_len is not None and len(word) >= max_len:
            truncated = True
            continue
        for a in range(n_inputs):
            child = reference_expand(node, a, nxt, out)
            if child is None or child in visited:
                continue
            w2 = word + (a,)
            if all(len(b) == 1 for b in child):
                return pds.PdsResult(FOUND, w2)
            visited.add(child)
            if len(visited) > cap_nodes:
                return pds.PdsResult(GAVE_UP)
            queue.append((child, w2))
    return pds.PdsResult(GAVE_UP) if truncated else pds.PdsResult(ABSENT)


class TestShortestPds:
    def test_fig1_pair_length_one(self):
        res = shortest_pds(fig1_automaton(4), (0, 1))
        assert res.status == FOUND and res.word == (1,)

    def test_fig1_pair_length_two(self):
        # derived by enumerating all words of length <= 2 by hand
        res = shortest_pds(fig1_automaton(4), (1, 3))
        assert res.word == (0, 1)

    def test_fig1_triple_absent(self):
        assert shortest_pds(fig1_automaton(4), (0, 1, 2)).status == ABSENT

    def test_returned_word_is_sound(self):
        rng = random.Random(11)
        for _ in range(100):
            aut = random_mealy(rng, rng.randint(2, 5))
            S = rng.sample(range(aut.n_states), 2)
            res = shortest_pds(aut, S)
            if res.status == FOUND:
                assert is_pds(aut, S, res.word)

    def test_lex_smallest_tie_break(self):
        # both inputs distinguish immediately; input 0 must win
        aut = MealyAutomaton(2, 2, 2,
                             ((0, 0), (1, 1)),
                             ((0, 0), (1, 1)))
        assert shortest_pds(aut, (0, 1)).word == (0,)

    def test_small_subset_rejected(self):
        with pytest.raises(ValueError):
            shortest_pds(fig1_automaton(3), (0,))

    def test_negative_max_len_rejected(self):
        with pytest.raises(ValueError, match="max_len"):
            shortest_pds(fig1_automaton(3), (0, 1), max_len=-1)

    def test_max_len_gives_up(self):
        aut = fig1_automaton(5)
        res = shortest_pds(aut, (1, 2), max_len=1)
        assert res.status == GAVE_UP
        assert shortest_pds(aut, (1, 2), max_len=5).status == FOUND

    def test_exhausted_under_max_len_is_absent(self):
        # one input swaps the two states and both output 0: the only node
        # maps to itself, so the bounded search has proven absence
        aut = MealyAutomaton(2, 1, 1, ((1,), (0,)), ((0,), (0,)))
        assert shortest_pds(aut, (0, 1), max_len=1).status == ABSENT

    def test_gill_bound_on_solved_instances(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(2, 5)
            aut = random_mealy(rng, n)
            k = rng.randint(2, min(3, n))
            S = rng.sample(range(n), k)
            res = shortest_pds(aut, S)
            if res.status == FOUND:
                assert res.length <= (k - 1) * n ** k


@st.composite
def mealy_and_subset(draw):
    n, a, b = draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(2, 3))

    def table(hi):
        return draw(st.tuples(*[st.tuples(*[st.integers(0, hi)] * a)] * n))
    aut = MealyAutomaton(n, a, b, table(n - 1), table(b - 1))
    return aut, draw(st.sets(st.integers(0, n - 1), min_size=2))


class TestShortestPdsProperties:
    @settings(max_examples=60, deadline=None)
    @given(mealy_and_subset())
    def test_first_discrete_word_in_shortlex_order(self, case):
        # Words of length <= 6 in shortlex order: the search's word must be
        # the first that splits S into singletons, and no word may if the
        # search found none.
        aut, S = case
        res = shortest_pds(aut, S, max_len=6)
        words = (w for length in range(7)
                 for w in product(range(aut.n_inputs), repeat=length))
        for w in words:
            if w == res.word:
                assert is_pds(aut, S, w)
                break
            assert not is_pds(aut, S, w)
        else:
            assert res.status != FOUND


@st.composite
def search_case(draw):
    """(nxt, out, inputs, S, max_len) with n <= 6 and alphabets of at
    most 3 letters."""
    n, a, b = draw(st.integers(2, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def table(hi):
        return draw(st.tuples(*[st.tuples(*[st.integers(0, hi)] * a)] * n))
    S = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=2))))
    max_len = draw(st.none() | st.integers(0, 4))
    return table(n - 1), table(b - 1), a, S, max_len


class TestSearchDifferential:
    @settings(max_examples=300, deadline=None)
    @given(search_case())
    def test_matches_pair_node_search(self, case):
        nxt, out, a, S, max_len = case
        cap = pds.DEFAULT_NODE_CAP
        res = pds._search(nxt, out, a, S, max_len, cap)
        ref = reference_search(nxt, out, a, S, max_len, cap)
        ref_unbounded = reference_search(nxt, out, a, S, None, cap)
        assert res.word == ref.word
        assert pds._search(nxt, out, a, S, None, cap) == ref_unbounded
        # a bounded search may prove absence where the pair nodes gave up,
        # but only where no PDS exists at any length
        if res.status == ABSENT:
            assert ref_unbounded.status == ABSENT
        else:
            assert res.status == ref.status


class TestHasPds:
    def test_fig1_n5_pairs_and_triples(self):
        aut = fig1_automaton(5)
        assert all(has_pds(aut, S) for S in combinations(range(5), 2))
        assert not any(has_pds(aut, S) for S in combinations(range(5), 3))

    def test_trivial_pair(self):
        aut = MealyAutomaton(2, 1, 2, ((0,), (1,)), ((0,), (1,)))
        assert has_pds(aut, (0, 1))


class TestPruning:
    def test_merged_states_never_separate(self):
        # oracle for the pruning rule: once two states of S coincide with
        # equal outputs, no extension distinguishes them
        rng = random.Random(13)
        checked = 0
        while checked < 20:
            aut = random_mealy(rng, 4)
            p, q = rng.sample(range(4), 2)
            for w in product(range(2), repeat=3):
                qp, outp = run(aut, p, w)
                qq, outq = run(aut, q, w)
                if qp == qq and outp == outq:
                    for ext in product(range(2), repeat=4):
                        assert run(aut, p, w + ext)[1] == run(aut, q, w + ext)[1]
                    checked += 1
                    break


class TestWorstCase:
    def test_two_states(self):
        assert worst_case_pds(2, 2, 2, 2).max_length == 1

    def test_witness_attains_maximum(self):
        res = worst_case_pds(2, 2, 2, 2)
        assert shortest_pds(res.automaton, res.subset).length == res.max_length

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            worst_case_pds(1, 2, 2, 1)

    def test_cap_refuses_with_estimate(self):
        with pytest.raises(CapExceeded, match="46656"):
            worst_case_pds(3, 2, 2, 2, cap=100)

    def test_node_cap_hit_raises(self, monkeypatch):
        # at n = 2 a search has at most one live node, so a cap of 1 needs
        # a third state to be exceeded
        monkeypatch.setattr(pds, "DEFAULT_NODE_CAP", 1)
        with pytest.raises(CapExceeded, match="node cap 1"):
            worst_case_pds(3, 2, 2, 2)


def all_automata(n, a, b):
    """(nxt, out) of every automaton, in product order over the cells."""
    cells = [(q2, y) for q2 in range(n) for y in range(b)]
    for assignment in product(cells, repeat=n * a):
        yield (tuple(tuple(assignment[q * a + x][0] for x in range(a))
                     for q in range(n)),
               tuple(tuple(assignment[q * a + x][1] for x in range(a))
                     for q in range(n)))


def reference_worst_case(n, a, b, k):
    """worst_case_pds as one search per subset of every automaton."""
    subsets = list(combinations(range(n), k))
    best = (0, None, None)
    for nxt, out in all_automata(n, a, b):
        for S in subsets:
            res = reference_search(nxt, out, a, S, None, pds.DEFAULT_NODE_CAP)
            if res.status == FOUND and res.length > best[0]:
                best = (res.length, MealyAutomaton(n, a, b, nxt, out), S)
    return best


def relabel(nxt, out, s, t, r):
    """Rename state q to s[q], input x to t[x] and output y to r[y]."""
    n, a = len(nxt), len(nxt[0])
    nxt2 = [[None] * a for _ in range(n)]
    out2 = [[None] * a for _ in range(n)]
    for q in range(n):
        for x in range(a):
            nxt2[s[q]][t[x]] = s[nxt[q][x]]
            out2[s[q]][t[x]] = r[out[q][x]]
    return tuple(map(tuple, nxt2)), tuple(map(tuple, out2))


def first_of_each_orbit(n, a, b):
    """The first automaton in product order of every relabelling orbit."""
    group = [(s, t, r) for s in permutations(range(n))
             for t in permutations(range(a)) for r in permutations(range(b))]
    seen, firsts = set(), []
    for nxt, out in all_automata(n, a, b):
        if (nxt, out) not in seen:
            firsts.append((nxt, out))
            seen.update(relabel(nxt, out, *g) for g in group)
    return firsts


# Every shape with n <= 3, alphabets of at most 3 letters and at most
# 50,000 automata.
SMALL_SHAPES = [(n, a, b, k)
                for n in (2, 3) for a in (1, 2, 3) for b in (1, 2, 3)
                for k in range(2, n + 1) if (n * b) ** (n * a) <= 50_000]

# Relabelling tables larger than the automaton space: 2 * 12! and 3! * 6!
# relabellings of 576 and 5,832 automata.
MANY_LABEL_SHAPES = [(2, 1, 12, 2), (3, 1, 6, 3)]


@pytest.fixture
def searched(monkeypatch):
    """The (nxt, out) of every pds._search call, in call order."""
    calls = []
    search = pds._search

    def recording(nxt, out, *args):
        calls.append((nxt, out))
        return search(nxt, out, *args)

    monkeypatch.setattr(pds, "_search", recording)
    return calls


class TestOrbitEnumeration:
    @pytest.mark.parametrize("shape", SMALL_SHAPES + MANY_LABEL_SHAPES,
                             ids=lambda s: "n{}a{}b{}k{}".format(*s))
    def test_equals_full_enumeration(self, shape):
        res = worst_case_pds(*shape)
        assert (res.max_length, res.automaton, res.subset) == \
            reference_worst_case(*shape)

    @pytest.mark.parametrize("n, a, b, k, orbits", [
        (2, 2, 2, 2, 44), (2, 2, 3, 2, 74), (3, 1, 2, 3, 22),
        (3, 2, 2, 2, 2038),
    ])
    def test_searches_first_automaton_of_each_orbit(self, searched,
                                                    n, a, b, k, orbits):
        worst_case_pds(n, a, b, k)
        firsts = first_of_each_orbit(n, a, b)
        assert len(firsts) == orbits
        assert set(searched) == set(firsts)
        assert len(searched) == orbits * comb(n, k)

    def test_many_relabellings_search_every_automaton(self, searched):
        worst_case_pds(2, 1, 12, 2)
        assert searched == list(all_automata(2, 1, 12))

    def test_three_outputs_witness(self):
        # 531,441 automata; the maximum is n - 1 and the witness attains it
        res = worst_case_pds(3, 2, 3, 2)
        assert res.max_length == 2
        assert shortest_pds(res.automaton, res.subset).length == 2
