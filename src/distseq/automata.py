"""Mealy automata, partial semiautomata, and word semantics.

States, inputs, and outputs are dense 0-based integers.  Words are
tuples of input symbols.  All types are immutable after construction;
every operation here is a pure function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

Word = tuple[int, ...]
StateSet = frozenset


@dataclass(frozen=True)
class MealyAutomaton:
    """Complete deterministic transducer.

    ``nxt[q][x]`` is the successor state and ``out[q][x]`` the output
    symbol produced when input ``x`` is applied in state ``q``.
    """

    n_states: int
    n_inputs: int
    n_outputs: int
    nxt: tuple[tuple[int, ...], ...]
    out: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_states < 1 or self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("automaton dimensions must be positive")
        for table, bound, name in ((self.nxt, self.n_states, "nxt"),
                                   (self.out, self.n_outputs, "out")):
            if len(table) != self.n_states:
                raise ValueError(f"{name} table must have one row per state")
            for q, row in enumerate(table):
                if len(row) != self.n_inputs:
                    raise ValueError(f"{name}[{q}] must have one cell per input")
                for x, v in enumerate(row):
                    if not 0 <= v < bound:
                        raise ValueError(f"{name}[{q}][{x}] = {v} out of range")

    def states(self) -> range:
        return range(self.n_states)


@dataclass(frozen=True)
class PartialSemiautomaton:
    """Semiautomaton whose transition table may have undefined cells (None)."""

    n_states: int
    n_inputs: int
    nxt: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self):
        if self.n_states < 1 or self.n_inputs < 1:
            raise ValueError("semiautomaton dimensions must be positive")
        if len(self.nxt) != self.n_states:
            raise ValueError("nxt table must have one row per state")
        for q, row in enumerate(self.nxt):
            if len(row) != self.n_inputs:
                raise ValueError(f"nxt[{q}] must have one cell per input")
            for x, v in enumerate(row):
                if v is not None and not 0 <= v < self.n_states:
                    raise ValueError(f"nxt[{q}][{x}] = {v} out of range")

    def states(self) -> range:
        return range(self.n_states)

    def is_complete(self) -> bool:
        return all(v is not None for row in self.nxt for v in row)


Automaton = Union[MealyAutomaton, PartialSemiautomaton]


@dataclass(frozen=True)
class Partition:
    """Partition of an ordered state subset, kept in canonical form.

    Canonical form: each block sorted ascending, blocks sorted by their
    smallest element.  This makes partitions directly comparable and
    hashable.
    """

    ground: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        sorted_blocks = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in sorted_blocks):
            raise ValueError("empty block")
        canon = tuple(sorted(sorted_blocks, key=lambda b: b[0]))
        seen: set[int] = set()
        for b in canon:
            for q in b:
                if q in seen:
                    raise ValueError(f"state {q} appears in two blocks")
                seen.add(q)
        return cls(ground=tuple(sorted(seen)), blocks=canon)

    def is_discrete(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def is_trivial(self) -> bool:
        return len(self.blocks) <= 1

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside some block of other."""
        if set(self.ground) != set(other.ground):
            return False
        where = {q: i for i, b in enumerate(other.blocks) for q in b}
        return all(len({where[q] for q in b}) == 1 for b in self.blocks)


def _check_word(aut: Automaton, w: Sequence[int]) -> None:
    for a in w:
        if not 0 <= a < aut.n_inputs:
            raise ValueError(f"input symbol {a} out of range")


def run(aut: MealyAutomaton, q: int, w: Iterable[int]) -> tuple[int, Word]:
    """Apply the word w in state q; return (final state, output word)."""
    if not 0 <= q < aut.n_states:
        raise ValueError(f"state {q} out of range")
    w = tuple(w)
    _check_word(aut, w)
    outputs = []
    for a in w:
        outputs.append(aut.out[q][a])
        q = aut.nxt[q][a]
    return q, tuple(outputs)


def step(aut: Automaton, S: StateSet, a: int) -> Optional[StateSet]:
    """Image of S under the letter a, unchecked; None if a is undefined
    on some state of S."""
    nxt = set()
    for q in S:
        q2 = aut.nxt[q][a]
        if q2 is None:
            return None
        nxt.add(q2)
    return frozenset(nxt)


def bfs_words(start, moves):
    """Yield (node, word) for start, then for every node reachable from it,
    breadth-first, each once and as soon as it is found; moves(x) yields
    (label, successor) pairs, so ascending labels give lex-least shortest words."""
    yield start, ()
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        x, word = queue.popleft()
        for label, y in moves(x):
            if y not in seen:
                seen.add(y)
                found = y, word + (label,)
                yield found
                queue.append(found)


def image(aut: Automaton, S: Iterable[int], w: Iterable[int]) -> Optional[StateSet]:
    """Image of the state set S under the word w.

    For partial semiautomata returns None exactly when some state of S
    hits an undefined transition along w.
    """
    cur = frozenset(S)
    for q in cur:
        if not 0 <= q < aut.n_states:
            raise ValueError(f"state {q} out of range")
    w = tuple(w)
    _check_word(aut, w)
    for a in w:
        cur = step(aut, cur, a)
        if cur is None:
            return None
    return cur


def _equivalence_blocks(aut: MealyAutomaton) -> list[list[int]]:
    """State equivalence classes via iterated partition refinement.

    Initial partition groups states by output row; each round refines by
    the successor blocks until fixpoint.
    """
    labels = {q: aut.out[q] for q in aut.states()}
    while True:
        index: dict = {}
        for q in aut.states():
            index.setdefault(labels[q], len(index))
        new = {q: (index[labels[q]],
                   tuple(index[labels[aut.nxt[q][a]]] for a in range(aut.n_inputs)))
               for q in aut.states()}
        if len({v[0] for v in new.values()}) == len(set(new.values())):
            # no block was split this round
            blocks: dict[int, list[int]] = {}
            for q in aut.states():
                blocks.setdefault(new[q][0], []).append(q)
            return [sorted(b) for b in sorted(blocks.values(), key=min)]
        labels = new


def is_reduced(aut: MealyAutomaton) -> bool:
    """True iff no two distinct states are equivalent."""
    return all(len(b) == 1 for b in _equivalence_blocks(aut))


def minimize(aut: MealyAutomaton) -> MealyAutomaton:
    """Quotient automaton by state equivalence."""
    blocks = _equivalence_blocks(aut)
    block_of = {q: i for i, b in enumerate(blocks) for q in b}
    nxt = tuple(tuple(block_of[aut.nxt[b[0]][a]] for a in range(aut.n_inputs))
                for b in blocks)
    out = tuple(tuple(aut.out[b[0]][a] for a in range(aut.n_inputs))
                for b in blocks)
    return MealyAutomaton(len(blocks), aut.n_inputs, aut.n_outputs, nxt, out)


def uncertainty(aut: MealyAutomaton, S: Iterable[int], w: Iterable[int]) -> Partition:
    """Initial state uncertainty: group states of S by their output word on w."""
    S = sorted(set(S))
    if not S:
        raise ValueError("S must be non-empty")
    w = tuple(w)
    groups: dict[Word, list[int]] = {}
    for q in S:
        _, o = run(aut, q, w)
        groups.setdefault(o, []).append(q)
    return Partition.from_blocks(groups.values())
