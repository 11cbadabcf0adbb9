"""Carefully synchronizing and irreducible words for partial semiautomata.

All searches run over the lattice of defined-image subsets: from subset S
a letter a leads to the image of S exactly when a is defined on all of S.
"""

from __future__ import annotations

from typing import Optional

from .automata import PartialSemiautomaton, bfs_words, image, step

Word = tuple[int, ...]


def _subsets(aut: PartialSemiautomaton, S: frozenset):
    """Yield (subset, lex-least shortest word) in breadth-first order."""
    def moves(T):
        for a in range(aut.n_inputs):
            T2 = step(aut, T, a)
            if T2 is not None:
                yield a, T2
    return bfs_words(S, moves)


def _irreducible(aut: PartialSemiautomaton, S: frozenset) -> bool:
    """True iff no defined word shrinks S; stops at the first smaller image."""
    return all(len(T) == len(S) for T, _ in _subsets(aut, S))


def reachable_subsets(aut: PartialSemiautomaton, S) -> set[frozenset]:
    """All defined images of S, including S itself."""
    return {T for T, _ in _subsets(aut, frozenset(S))}


def shortest_carefully_synchronizing(aut: PartialSemiautomaton) -> Optional[Word]:
    """Lex-least shortest word defined on all states that maps Q to a singleton."""
    return next((w for S, w in _subsets(aut, frozenset(aut.states()))
                 if len(S) == 1), None)


def is_irreducible(aut: PartialSemiautomaton, w) -> bool:
    """True iff w is defined on every state and no defined continuation can
    shrink the image any further.

    The unbounded "for all continuations" quantifier is decided exactly by
    reachability over defined-image subsets.
    """
    S = image(aut, aut.states(), w)
    return S is not None and _irreducible(aut, S)


def shortest_irreducible(aut: PartialSemiautomaton) -> Optional[Word]:
    """Lex-least shortest irreducible word; the empty word is a legal answer
    when no defined word shrinks the full state set."""
    return next((w for S, w in _subsets(aut, frozenset(aut.states()))
                 if _irreducible(aut, S)), None)
