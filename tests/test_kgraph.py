import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from distseq.extremal import sokolovskii_instance
from distseq.kgraph import (Walk, build_kgraph, compress_walk,
                            compress_walk_report, eval_walk, saturate, scc,
                            shortest_path, to_dot, walk_from_basis_indices)
from distseq.semigroup import (CapExceeded, PartialBijection, identity,
                               restriction_complexity, worst_case_complexity)


def random_basis(rng, n, size):
    return [tuple(rng.randrange(n) for _ in range(n)) for _ in range(size)]


def random_walk(g, rng, max_len):
    starts = [v for v in g.vertices if g.out[v]]
    if not starts:
        return Walk(g, g.vertices[0], ())
    cur = start = rng.choice(starts)
    steps = []
    for _ in range(max_len):
        outs = g.out[cur]
        if not outs:
            break
        idx = rng.choice(outs)
        steps.append(idx)
        cur = g.arcs[idx].target
    return Walk(g, start, tuple(steps))


class TestBuild:
    def test_identity_gives_self_loops(self):
        g = build_kgraph([identity(4)], 2)
        assert len(g.vertices) == comb(4, 2)
        for v in g.vertices:
            (idx,) = g.out[v]
            arc = g.arcs[idx]
            assert arc.source == arc.target == v
            assert arc.images == v

    def test_constant_map_has_no_arcs(self):
        g = build_kgraph([(0, 0, 0)], 2)
        assert len(g.arcs) == 0

    def test_lemma5_cycle_arc(self):
        inst = sokolovskii_instance(4, 2)
        g = build_kgraph(inst.basis, 2)
        first = [g.arcs[i] for i in g.out[inst.subsets[0]]
                 if g.arcs[i].basis_index == 0]
        assert len(first) == 1
        assert first[0].target == inst.subsets[1]

    def test_arc_count_bound(self):
        rng = random.Random(20)
        for _ in range(20):
            n = rng.randint(2, 5)
            basis = random_basis(rng, n, rng.randint(1, 3))
            g = build_kgraph(basis, 2)
            assert len(g.arcs) <= len(basis) * comb(n, 2)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            build_kgraph([identity(10)], 5, cap=10)

    def test_map_outside_ground_set(self):
        with pytest.raises(ValueError,
                           match="basis maps a point outside the ground set"):
            build_kgraph([(1, 2, 7)], 2)

    def test_walk_start_must_be_a_vertex(self):
        g = build_kgraph([(1, 2, 0)], 2)
        for start in ((0, 1, 2), (1, 0), (0, 3)):
            with pytest.raises(ValueError, match="not a vertex"):
                walk_from_basis_indices(g, start, [0])


def _brute_reachability(g):
    reach = {v: {v} for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for arc in g.arcs:
            for v in g.vertices:
                if arc.source in reach[v] and arc.target not in reach[v]:
                    reach[v].add(arc.target)
                    changed = True
    return reach


class TestScc:
    def test_identity_singletons(self):
        g = build_kgraph([identity(3)], 2)
        assert scc(g) == [[v] for v in g.vertices]

    def test_lemma5_cycle_single_component(self):
        inst = sokolovskii_instance(4, 2)
        g = build_kgraph(inst.basis, 2)
        comps = scc(g)
        cycle = next(c for c in comps if inst.subsets[0] in c)
        assert set(cycle) == set(inst.subsets)

    def test_against_pairwise_reachability(self):
        rng = random.Random(21)
        for _ in range(20):
            basis = random_basis(rng, 5, rng.randint(1, 3))
            g = build_kgraph(basis, 2)
            reach = _brute_reachability(g)
            comp_of = {v: i for i, c in enumerate(scc(g)) for v in c}
            for u in g.vertices:
                for v in g.vertices:
                    mutual = v in reach[u] and u in reach[v]
                    assert mutual == (comp_of[u] == comp_of[v])


class TestEvalWalk:
    def test_empty_walk_is_identity(self):
        g = build_kgraph([identity(3)], 2)
        ev = eval_walk(Walk(g, (0, 1), ()))
        assert ev == PartialBijection((0, 1), (0, 1))

    def test_power_of_closed_walk(self):
        inst = sokolovskii_instance(4, 2)
        g = build_kgraph(inst.basis, 2)
        base = eval_walk(walk_from_basis_indices(g, inst.subsets[0], (0, 1, 2)))
        m = {d: i for d, i in zip(base.domain, base.images)}
        expected = dict(m)
        for power in range(2, 5):
            w = walk_from_basis_indices(g, inst.subsets[0], (0, 1, 2) * power)
            expected = {d: m[expected[d]] for d in base.domain}
            ev = eval_walk(w)
            assert dict(zip(ev.domain, ev.images)) == expected

    def test_lemma5_cycle_evaluates_to_pi(self):
        inst = sokolovskii_instance(4, 2)
        g = build_kgraph(inst.basis, 2)
        ev = eval_walk(walk_from_basis_indices(g, inst.subsets[0],
                                               tuple(range(inst.m))))
        d1 = inst.subsets[0]
        assert ev.images == tuple(d1[inst.pi[i]] for i in range(2))


class TestSaturate:
    def test_preserves_eval_on_lemma5_cycle(self):
        inst = sokolovskii_instance(4, 2)
        g = build_kgraph(inst.basis, 2)
        w = walk_from_basis_indices(g, inst.subsets[0], (0, 1, 2))
        sw = saturate(w, inst.subsets[0])
        assert eval_walk(sw) == eval_walk(w)

    def test_pivot_choice_does_not_change_eval(self):
        rng = random.Random(22)
        for _ in range(30):
            basis = random_basis(rng, 5, rng.randint(1, 3))
            g = build_kgraph(basis, 2)
            w = random_walk(g, rng, 20)
            comps = scc(g)
            comp = next(c for c in comps if w.start in c)
            if not all(v in comp for v in w.vertex_sequence()):
                continue
            for pivot in comp:
                assert eval_walk(saturate(w, pivot)) == eval_walk(w)

    def test_visits_pivot_between_arcs(self):
        rng = random.Random(23)
        hits = 0
        while hits < 10:
            basis = random_basis(rng, 4, 2)
            g = build_kgraph(basis, 2)
            w = random_walk(g, rng, 15)
            comp = next(c for c in scc(g) if w.start in c)
            if len(comp) < 2 or not all(v in comp for v in w.vertex_sequence()):
                continue
            pivot = comp[0]
            assert pivot in saturate(w, pivot).vertex_sequence()
            hits += 1

    def test_unreachable_pivot_rejected(self):
        g = build_kgraph([identity(4)], 2)
        w = Walk(g, (0, 1), g.out[(0, 1)])
        with pytest.raises(ValueError):
            saturate(w, (2, 3))


class TestCompress:
    def test_short_walk_stays_short(self):
        rng = random.Random(24)
        for _ in range(20):
            g = build_kgraph(random_basis(rng, 4, 2), 2)
            w = random_walk(g, rng, 1)
            cw = compress_walk(w)
            assert eval_walk(cw) == eval_walk(w)
            assert len(cw) <= max(len(w), 1)

    def test_squared_order_two_cycle_gives_identity(self):
        inst = sokolovskii_instance(4, 2)
        g = build_kgraph(inst.basis, 2)
        w = walk_from_basis_indices(g, inst.subsets[0], (0, 1, 2) * 2)
        cw = compress_walk(w)
        ev = eval_walk(cw)
        assert ev.domain == ev.images == inst.subsets[0]

    def test_random_walks_eval_and_bound(self):
        rng = random.Random(25)
        for _ in range(100):
            basis = random_basis(rng, 5, rng.randint(1, 4))
            g = build_kgraph(basis, 2)
            w = random_walk(g, rng, 200)
            cw, reports = compress_walk_report(w)
            assert eval_walk(cw) == eval_walk(w)
            for rep in reports:
                assert rep.length <= 2 * (rep.vertex_count - 1) + \
                    (2 * rep.vertex_count - 1) * rep.factor_count


def dict_eval_walk(w):
    """Reference evaluation: follow each point through a dict per arc."""
    cur = list(w.start)
    for idx in w.steps:
        arc = w.graph.arcs[idx]
        m = dict(zip(arc.source, arc.images))
        cur = [m[x] for x in cur]
    return PartialBijection(w.start, tuple(cur))


@st.composite
def walks(draw):
    """A walk of up to 40 arcs in the k-graph of a generated basis on at
    most 6 points, for k from 1 to n."""
    n = draw(st.integers(1, 6))
    maps = st.tuples(*[st.integers(0, n - 1)] * n)
    basis = draw(st.lists(maps, min_size=1, max_size=3))
    g = build_kgraph(basis, draw(st.integers(1, n)))
    cur = start = draw(st.sampled_from(g.vertices))
    steps = []
    for choice in draw(st.lists(st.integers(0, 2), max_size=40)):
        outs = g.out[cur]
        if not outs:
            break
        steps.append(outs[choice % len(outs)])
        cur = g.arcs[steps[-1]].target
    return Walk(g, start, tuple(steps))


# Two transpositions that do not commute: composing the arcs in the wrong
# order changes the evaluation.
NONCOMMUTING = build_kgraph([(1, 0, 2), (0, 2, 1)], 3)


class TestWalkProperties:
    @settings(max_examples=200, deadline=None)
    @given(walks())
    @example(walk_from_basis_indices(NONCOMMUTING, (0, 1, 2), [0, 1]))
    def test_eval_matches_dict_reference(self, w):
        assert eval_walk(w) == dict_eval_walk(w)

    @settings(max_examples=100, deadline=None)
    @given(walks(), st.data())
    def test_saturate_preserves_eval(self, w, data):
        comp = next(c for c in scc(w.graph) if w.start in c)
        verts = w.vertex_sequence()
        # keep the prefix that stays inside the start's component
        kept = next((i for i, v in enumerate(verts) if v not in comp),
                    len(verts)) - 1
        w = Walk(w.graph, w.start, w.steps[:kept])
        pivot = data.draw(st.sampled_from(comp))
        sw = saturate(w, pivot)
        assert eval_walk(sw) == dict_eval_walk(w)
        assert pivot in sw.vertex_sequence()

    @settings(max_examples=100, deadline=None)
    @given(walks())
    def test_compress_preserves_eval_and_bound(self, w):
        cw, reports = compress_walk_report(w)
        assert eval_walk(cw) == dict_eval_walk(w)
        assert len(cw) <= len(w)
        for rep in reports:
            assert rep.length <= 2 * (rep.vertex_count - 1) + \
                (2 * rep.vertex_count - 1) * rep.factor_count


def test_restriction_complexity_respects_corollary_bound():
    # every realizable k=2 restriction costs < 2 C(n,2) (ell(S_2)+1)
    ell_s2 = worst_case_complexity([(0, 1), (1, 0)]).value
    rng = random.Random(26)
    for _ in range(20):
        n = rng.randint(3, 5)
        basis = random_basis(rng, n, rng.randint(1, 3))
        limit = 2 * comb(n, 2) * (ell_s2 + 1)
        for D in combinations(range(n), 2):
            for g in basis:
                images = tuple(g[x] for x in D)
                if len(set(images)) < 2:
                    continue
                rc = restriction_complexity(basis, PartialBijection(D, images))
                assert rc is not None and rc < limit


def test_shortest_path_lengths():
    inst = sokolovskii_instance(4, 2)
    g = build_kgraph(inst.basis, 2)
    assert shortest_path(g, inst.subsets[0], inst.subsets[0]) == []
    p = shortest_path(g, inst.subsets[0], inst.subsets[2])
    assert p is not None and len(p) <= len(g.vertices) - 1


# Arc lists captured before shortest_path and the piece factorization
# shared one search; they pin the basis-index tie-break.
PINNED_BASIS = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4),
                (2, 1, 0, 4, 4)]


@pytest.mark.parametrize("u,v,arcs", [
    ((0, 1), (3, 4), [0, 15, 27]),
    ((3, 4), (0, 1), [35, 11]),
    ((0, 2), (1, 3), [3]),
    ((2, 4), (0, 4), [34]),
])
def test_shortest_path_pinned(u, v, arcs):
    assert shortest_path(build_kgraph(PINNED_BASIS, 2), u, v) == arcs


def test_compress_walk_pinned():
    g = build_kgraph(PINNED_BASIS, 2)
    walk = [3, 3, 3, 1, 1, 3, 1, 0, 3, 1, 0, 0, 3, 3, 1, 0, 0, 0, 0, 1, 1, 0,
            3, 2, 3, 1, 1, 2, 3, 0, 0, 3, 3, 0, 2, 2, 1, 2, 0, 0, 0, 3, 0, 2, 3]
    w = walk_from_basis_indices(g, (0, 1), walk)
    assert compress_walk(w).steps == (0, 18, 0, 15, 30)
    inst = sokolovskii_instance(5, 2)
    g = build_kgraph(inst.basis, 2)
    w = walk_from_basis_indices(g, inst.subsets[0], list(range(inst.m)) * 3)
    assert compress_walk(w).steps == (0, 6, 12, 20, 26, 35)


def test_dot_export():
    g = build_kgraph([identity(3)], 2)
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert '"{0,1}"' in dot
    assert dot.count("->") == len(g.arcs)
