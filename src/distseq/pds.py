"""Exact shortest preset-distinguishing-sequence search.

The search runs over canonical "uncertainty nodes": partitions of the
candidate set S into blocks of (initial state, current state) pairs.
States in one block have produced identical outputs so far; a block with
two pairs sharing a current state can never be split and kills the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product
from collections import deque
from math import factorial
from operator import getitem
from typing import Iterable, Optional

from .automata import MealyAutomaton
from .semigroup import CapExceeded

FOUND = "found"
ABSENT = "absent"
GAVE_UP = "gave_up"

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_AUTOMATA_CAP = 10_000_000


@dataclass(frozen=True)
class PdsResult:
    """Outcome of a PDS search.

    status is "found", "absent" (search space exhausted, no PDS exists)
    or "gave_up" (a length or node cap stopped the search first).
    """

    status: str
    word: Optional[tuple[int, ...]] = None

    @property
    def length(self) -> Optional[int]:
        return None if self.word is None else len(self.word)


def _start_node(S):
    return (tuple((q, q) for q in S),)


def _expand(node, a, nxt, out):
    """Apply input a to a node; return the canonical successor or None if dead."""
    blocks = []
    for block in node:
        groups: dict[int, list] = {}
        for init, cur in block:
            groups.setdefault(out[cur][a], []).append((init, nxt[cur][a]))
        for g in groups.values():
            if len(g) > 1 and len({c for _, c in g}) < len(g):
                return None  # two merged states with equal outputs: unsplittable
            blocks.append(tuple(g))
    blocks.sort(key=lambda b: b[0][0])
    return tuple(blocks)


def _search(nxt, out, n_inputs, S, max_len, cap_nodes):
    start = _start_node(S)
    if all(len(b) == 1 for b in start):
        return PdsResult(FOUND, ())
    visited = {start}
    queue = deque([(start, ())])
    truncated = False
    while queue:
        node, word = queue.popleft()
        if max_len is not None and len(word) >= max_len:
            truncated = True
            continue
        for a in range(n_inputs):
            child = _expand(node, a, nxt, out)
            if child is None or child in visited:
                continue
            w2 = word + (a,)
            if all(len(b) == 1 for b in child):
                return PdsResult(FOUND, w2)
            visited.add(child)
            if len(visited) > cap_nodes:
                return PdsResult(GAVE_UP)
            queue.append((child, w2))
    return PdsResult(GAVE_UP) if truncated else PdsResult(ABSENT)


def shortest_pds(aut: MealyAutomaton, S: Iterable[int],
                 max_len: Optional[int] = None,
                 cap_nodes: int = DEFAULT_NODE_CAP) -> PdsResult:
    """Shortest PDS for the state subset S, lexicographically smallest on ties.

    Breadth-first search with canonical node deduplication; inputs are
    expanded in ascending order, so the first hit is the lex-least word
    among the shortest ones.
    """
    S = tuple(sorted(set(S)))
    if len(S) < 2:
        raise ValueError("S must contain at least 2 states")
    for q in S:
        if not 0 <= q < aut.n_states:
            raise ValueError(f"state {q} out of range")
    return _search(aut.nxt, aut.out, aut.n_inputs, S, max_len, cap_nodes)


def has_pds(aut: MealyAutomaton, S: Iterable[int]) -> bool:
    """True iff some PDS for S exists (the node space is finite, so this decides)."""
    res = shortest_pds(aut, S, max_len=None, cap_nodes=DEFAULT_NODE_CAP)
    if res.status == GAVE_UP:
        raise CapExceeded(f"node cap {DEFAULT_NODE_CAP} exceeded before the "
                          f"search finished")
    return res.status == FOUND


@dataclass(frozen=True)
class WorstCaseResult:
    max_length: int
    automaton: Optional[MealyAutomaton]
    subset: Optional[tuple[int, ...]]


def _orbit_representatives(n, a, b):
    """Yield (nxt, out) for the least automaton of every relabelling orbit.

    Automaton i is the mixed-radix number whose digit at position q*a + x
    (most significant first) is the cell q2*b + y, where q2 = nxt[q][x]
    and y = out[q][x]: itertools.product order over the cells.  The least
    unmarked index is yielded and its images under the relabellings of
    states, inputs and outputs are marked.  Marking with any set of
    relabellings that holds the identity still yields the least member of
    every orbit; marking with all of them yields nothing else.
    """
    m, base = n * a, n * b
    total = base ** m
    weight = [base ** (m - 1 - p) for p in range(m)]
    # Where the tables would hold more entries than there are automata
    # (n=2, a=1, b=10 has 2*10! relabellings of 400 automata), only the
    # identity is used and every automaton is yielded.
    if factorial(n) * factorial(a) * factorial(b) * m * base <= total:
        group = product(permutations(range(n)), permutations(range(a)),
                        permutations(range(b)))
    else:
        group = [(range(n), range(a), range(b))]
    # tables[g][p][c]: what cell c at position p adds to the index of the
    # image under relabelling g, so an image index is one sum over m cells
    tables = [[[weight[s[q] * a + t[x]] * (s[c // b] * b + r[c % b])
                for c in range(base)]
               for q in range(n) for x in range(a)]
              for s, t, r in group]
    seen = bytearray(total)
    i = 0
    while i != -1:
        digits, rest = [0] * m, i
        for p in range(m - 1, -1, -1):
            rest, digits[p] = divmod(rest, base)
        yield (tuple(tuple(digits[q * a + x] // b for x in range(a))
                     for q in range(n)),
               tuple(tuple(digits[q * a + x] % b for x in range(a))
                     for q in range(n)))
        for table in tables:
            seen[sum(map(getitem, table, digits))] = 1
        i = seen.find(0, i + 1)


def worst_case_pds(n: int, a: int, b: int, k: int,
                   cap: int = DEFAULT_AUTOMATA_CAP) -> WorstCaseResult:
    """Exhaustive worst case of the shortest-PDS length at fixed alphabet sizes.

    Covers all complete Mealy automata with n states, a inputs and b
    outputs, and maximizes the shortest-PDS length over every k-element
    state subset.  Subsets without a PDS contribute 0; a search stopped by
    the node cap raises CapExceeded rather than count as 0.

    Relabelling states, inputs or outputs changes no shortest-PDS length,
    so one automaton per relabelling orbit is searched: the least in
    itertools.product order over the (next state, output) cells.  The
    first automaton in that order to reach the maximum is such a
    representative, so the reported automaton and subset are those of
    the full enumeration.  Where the relabelling tables, n!*a!*b! * n*a *
    n*b entries, would outnumber the automata, every automaton is
    searched.  `cap` still bounds the raw count (n*b)^(n*a): marking the
    orbits takes one byte per automaton.

    Note: the worst case over ALL n-state automata places no bound on the
    alphabets; this function fixes (a, b), so its value is a lower bound
    on that quantity.
    """
    if k < 2 or k > n:
        raise ValueError("need 2 <= k <= n")
    if a < 1 or b < 1:
        raise ValueError("automaton dimensions must be positive")
    total = (n * b) ** (n * a)
    if total > cap:
        raise CapExceeded(f"would enumerate {total} automata (cap {cap})")
    subsets = list(combinations(range(n), k))
    best = WorstCaseResult(0, None, None)
    for nxt, out in _orbit_representatives(n, a, b):
        for S in subsets:
            res = _search(nxt, out, a, S, None, DEFAULT_NODE_CAP)
            if res.status == FOUND:
                if res.length > best.max_length:
                    best = WorstCaseResult(
                        res.length, MealyAutomaton(n, a, b, nxt, out), S)
            elif res.status == GAVE_UP:
                raise CapExceeded(f"node cap {DEFAULT_NODE_CAP} exceeded on "
                                  f"subset {S} before the search finished")
    return best
