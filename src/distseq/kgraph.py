"""k-graphs over a transformation basis, walks, saturation and compression.

Vertices are the k-subsets of the ground set (sorted tuples); an arc
exists for basis map g and vertex D exactly when g is injective on D.
Walks are stored as sequences of arc indices into the graph's arc list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .automata import bfs_words
from .semigroup import (CapExceeded, PartialBijection, Transformation,
                        checked_basis, compose, identity, transformation_order)

Vertex = tuple[int, ...]

DEFAULT_VERTEX_CAP = 1_000_000


@dataclass(frozen=True)
class Arc:
    """images[i] is the image of the i-th smallest element of source;
    perm[i] is the position of images[i] in target."""

    source: Vertex
    target: Vertex
    images: tuple[int, ...]
    basis_index: int
    perm: Transformation


class KGraph:
    """Immutable k-graph; build with build_kgraph."""

    def __init__(self, n: int, k: int, basis: tuple[Transformation, ...],
                 vertices: tuple[Vertex, ...], arcs: tuple[Arc, ...]):
        self.n = n
        self.k = k
        self.basis = basis
        self.vertices = vertices
        self.arcs = arcs
        out: dict[Vertex, list[int]] = {v: [] for v in vertices}
        for i, arc in enumerate(arcs):
            out[arc.source].append(i)
        # arcs were generated in ascending basis-index order per vertex
        self.out = {v: tuple(ids) for v, ids in out.items()}


def build_kgraph(basis: Iterable[Transformation], k: int,
                 cap: int = DEFAULT_VERTEX_CAP) -> KGraph:
    basis = tuple(checked_basis(basis))
    n = len(basis[0])
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if comb(n, k) > cap:
        raise CapExceeded(f"k-graph would have {comb(n, k)} vertices (cap {cap})")
    vertices = tuple(combinations(range(n), k))
    arcs = []
    for D in vertices:
        for bi, g in enumerate(basis):
            images = tuple(g[x] for x in D)
            if len(set(images)) == k:
                target = tuple(sorted(images))
                arcs.append(Arc(D, target, images, bi,
                                tuple(map(target.index, images))))
    return KGraph(n, k, basis, vertices, tuple(arcs))


@dataclass
class Walk:
    """A chained sequence of arcs starting at a vertex; may be empty."""

    graph: KGraph
    start: Vertex
    steps: tuple[int, ...]

    def __post_init__(self):
        self.steps = tuple(self.steps)
        cur = self.start
        arcs = self.graph.arcs
        for idx in self.steps:
            if not 0 <= idx < len(arcs):
                raise ValueError(f"arc index {idx} is not in 0..{len(arcs) - 1}")
            arc = arcs[idx]
            if arc.source != cur:
                raise ValueError("walk arcs do not chain")
            cur = arc.target
        self.end = cur

    def __len__(self) -> int:
        return len(self.steps)

    def vertex_sequence(self) -> list[Vertex]:
        seq = [self.start]
        for idx in self.steps:
            seq.append(self.graph.arcs[idx].target)
        return seq


def walk_from_basis_indices(g: KGraph, start: Vertex,
                            basis_indices: Iterable[int]) -> Walk:
    """Build a walk by following basis maps from start; each step must be an arc."""
    steps = []
    cur = tuple(start)
    if cur not in g.out:
        raise ValueError(f"start {cur} is not a vertex (a sorted "
                         f"{g.k}-subset of 0..{g.n - 1})")
    for bi in basis_indices:
        if not 0 <= bi < len(g.basis):
            raise ValueError(f"basis index {bi} is not in 0..{len(g.basis) - 1}")
        arc_idx = next((i for i in g.out[cur] if g.arcs[i].basis_index == bi), None)
        if arc_idx is None:
            raise ValueError(f"basis map {bi} is not injective on {cur}")
        steps.append(arc_idx)
        cur = g.arcs[arc_idx].target
    return Walk(g, tuple(start), tuple(steps))


def _walk_perm(g: KGraph, steps) -> Transformation:
    """Left composition of the arcs' position permutations: entry i is the
    position in the walk's end vertex of the image of its start's i-th point."""
    return reduce(compose, (g.arcs[i].perm for i in steps), identity(g.k))


def eval_walk(w: Walk) -> PartialBijection:
    """Left composition of the walk's arc bijections; empty walk = identity on start."""
    return PartialBijection(w.start, tuple(w.end[p] for p in
                                           _walk_perm(w.graph, w.steps)))


def scc(g: KGraph) -> list[list[Vertex]]:
    """Strongly connected components (iterative Tarjan), sorted by smallest vertex."""
    index: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    on_stack: set[Vertex] = set()
    stack: list[Vertex] = []
    components: list[list[Vertex]] = []
    counter = 0
    for root in g.vertices:
        if root in index:
            continue
        work = [(root, iter(g.out[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for arc_idx in it:
                u = g.arcs[arc_idx].target
                if u not in index:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(g.out[u])))
                    advanced = True
                    break
                if u in on_stack:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                components.append(sorted(comp))
    components.sort(key=lambda c: c[0])
    return components


def shortest_path(g: KGraph, u: Vertex, v: Vertex) -> Optional[list[int]]:
    """Shortest arc sequence from u to v; lexicographic tie-break on basis index.

    Vertices are visited once, so the result is a path of length at most
    |V(G)| - 1.  Returns [] when u == v and None when v is unreachable.
    """
    words = bfs_words(u, lambda x: ((i, g.arcs[i].target) for i in g.out[x]))
    return next((list(w) for x, w in words if x == v), None)


def _saturation(g: KGraph, start: Vertex, steps: Sequence[int], D: Vertex):
    """The D-saturation of a walk, cut at its visits of D: (head, pieces, tail).

    head is p(start->D), tail is p(D->end).  At a walk position at V the loop
    p(D->V), p(V->D) evaluates to a permutation of some order m: m - 1 copies
    of it are pieces, and the position's arc joins one more piece p(D->V),
    arc, p(V'->D).  Shortest paths are simple, so D is visited exactly
    between the pieces."""
    verts = [start] + [g.arcs[i].target for i in steps]
    trip = {}  # V -> (p(V->D), p(D->V), order of the loop), in walk order
    for v in dict.fromkeys(verts):
        to_d, from_d = shortest_path(g, v, D), shortest_path(g, D, v)
        if to_d is None or from_d is None:
            raise ValueError(f"vertex {v} and pivot {D} are not mutually reachable")
        trip[v] = to_d, from_d, transformation_order(_walk_perm(g, from_d + to_d))
    pieces = []
    for i, v in enumerate(verts):
        to_d, from_d, m = trip[v]
        pieces += [from_d + to_d] * (m - 1)
        if i < len(steps):
            pieces.append(from_d + [steps[i]] + trip[verts[i + 1]][0])
    return trip[start][0], pieces, trip[verts[-1]][1]


def saturate(w: Walk, D: Vertex) -> Walk:
    """D-saturation: insert order-many pivot round trips at every visited
    vertex.  The result is equivalent, since a loop repeated its order many
    times evaluates to the identity, and visits D between original arcs."""
    head, pieces, tail = _saturation(w.graph, w.start, w.steps, tuple(D))
    return Walk(w.graph, w.start, tuple(head + [i for p in pieces for i in p] + tail))


@dataclass(frozen=True)
class ComponentReport:
    """Per-SCC compression statistics for the length-bound checks."""

    vertex_count: int
    factor_count: int   # r: closed pieces kept after refactoring
    length: int         # arcs in the compressed piece


def _compress_segment(g: KGraph, start: Vertex, steps: list[int],
                      comp: list[Vertex]) -> tuple[list[int], ComponentReport]:
    """Compress one SCC-internal subwalk; returns equivalent arc list + stats."""
    if not steps:
        return [], ComponentReport(len(comp), 0, 0)
    head, pieces, tail = _saturation(g, start, steps, comp[0])  # pivot: smallest vertex
    keys = [tuple(p) for p in pieces]
    perm_of = {key: _walk_perm(g, key) for key in set(keys)}
    perms = [perm_of[key] for key in keys]
    total = reduce(compose, perms, identity(g.k))
    # Shortest factorization of total over the pieces, as piece indices;
    # total is their product, so the search in their group reaches it.
    # Only the first piece of each permutation is a move: swapping a later
    # equal one for it gives a lex-smaller word with the same product.
    first = {}
    for j, q in enumerate(perms):
        first.setdefault(q, j)
    moves = [(j, q) for q, j in first.items()]
    words = bfs_words(identity(g.k),
                      lambda p: ((j, compose(p, q)) for j, q in moves))
    chosen = next(w for p, w in words if p == total)
    new = head + [idx for j in chosen for idx in pieces[j]] + tail
    if len(new) > len(steps):
        new = list(steps)  # the original is equivalent and already shorter
    return new, ComponentReport(len(comp), len(chosen), len(new))


def compress_walk_report(w: Walk) -> tuple[Walk, list[ComponentReport]]:
    """Equivalent walk of bounded length, with per-component statistics.

    The walk is split into maximal SCC-internal subwalks joined by
    bridging arcs.  Each subwalk's saturation at its component's pivot is
    cut at the pivot's visits without building the saturated walk, and
    the product of the closed pieces is refactored by a shortest
    factorization over the pieces themselves.
    Each compressed piece has length at most
    2(|V_c| - 1) + (2|V_c| - 1) * r for its achieved factor count r.
    """
    g = w.graph
    comp_list = scc(g)
    comp_of = {v: i for i, c in enumerate(comp_list) for v in c}
    segments: list[tuple[Vertex, list[int]]] = []
    bridges: list[int] = []
    cur_start, cur_steps = w.start, []
    for idx in w.steps:
        arc = g.arcs[idx]
        if comp_of[arc.source] == comp_of[arc.target]:
            cur_steps.append(idx)
        else:
            segments.append((cur_start, cur_steps))
            bridges.append(idx)
            cur_start, cur_steps = arc.target, []
    segments.append((cur_start, cur_steps))
    new_steps: list[int] = []
    reports = []
    for i, (start, steps) in enumerate(segments):
        piece, report = _compress_segment(g, start, steps,
                                          comp_list[comp_of[start]])
        new_steps.extend(piece)
        reports.append(report)
        if i < len(bridges):
            new_steps.append(bridges[i])
    return Walk(g, w.start, tuple(new_steps)), reports


def compress_walk(w: Walk) -> Walk:
    """Equivalent walk whose per-component length obeys the saturation bound."""
    return compress_walk_report(w)[0]


def to_dot(g: KGraph) -> str:
    """DOT rendering: one node per k-subset, edges labeled by basis index."""
    lines = ["digraph kgraph {"]
    for v in g.vertices:
        label = "{" + ",".join(str(x) for x in v) + "}"
        lines.append(f'  "{label}";')
    for arc in g.arcs:
        s = "{" + ",".join(str(x) for x in arc.source) + "}"
        t = "{" + ",".join(str(x) for x in arc.target) + "}"
        lines.append(f'  "{s}" -> "{t}" [label="{arc.basis_index}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
