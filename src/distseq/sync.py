"""Carefully synchronizing and irreducible words for partial semiautomata.

All searches run over the lattice of defined-image subsets: from subset S
a letter a leads to the image of S exactly when a is defined on all of S.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .automata import PartialSemiautomaton, image, step

Word = tuple[int, ...]


def _bfs_subsets(aut: PartialSemiautomaton, start: frozenset):
    """Yield (subset, lex-least shortest word) in breadth-first order."""
    visited = {start}
    queue = deque([(start, ())])
    while queue:
        S, word = queue.popleft()
        yield S, word
        for a in range(aut.n_inputs):
            S2 = step(aut, S, a)
            if S2 is None or S2 in visited:
                continue
            visited.add(S2)
            queue.append((S2, word + (a,)))


def reachable_subsets(aut: PartialSemiautomaton, S) -> set[frozenset]:
    """All defined images of S, including S itself."""
    return {T for T, _ in _bfs_subsets(aut, frozenset(S))}


def shortest_carefully_synchronizing(aut: PartialSemiautomaton) -> Optional[Word]:
    """Lex-least shortest word defined on all states that maps Q to a singleton."""
    for S, word in _bfs_subsets(aut, frozenset(aut.states())):
        if len(S) == 1:
            return word
    return None


def is_irreducible(aut: PartialSemiautomaton, w) -> bool:
    """True iff w is defined on every state and no defined continuation can
    shrink the image any further.

    The unbounded "for all continuations" quantifier is decided exactly by
    reachability over defined-image subsets.
    """
    S = image(aut, aut.states(), w)
    if S is None:
        return False
    return all(len(T) == len(S) for T in reachable_subsets(aut, S))


def shortest_irreducible(aut: PartialSemiautomaton) -> Optional[Word]:
    """Lex-least shortest irreducible word; the empty word is a legal answer
    when no defined word shrinks the full state set."""
    for S, word in _bfs_subsets(aut, frozenset(aut.states())):
        if all(len(T) == len(S) for T in reachable_subsets(aut, S)):
            return word
    return None
