"""The two explicit worst-case constructions and their verification.

The cycle automaton family (hard for 3-subset distinguishing) and the
sink semiautomaton whose single-letter maps force long factorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from typing import Optional

from .automata import MealyAutomaton, PartialSemiautomaton, image
from .landau import landau, max_order_permutation
from .semigroup import CapExceeded, Transformation, complexity, compose

DEFAULT_LETTER_CAP = 100_000


def fig1_automaton(n: int) -> MealyAutomaton:
    """n-state, 2-input, 2-output automaton: a 0/0 cycle through all states,
    input 1 sending everything to state 0, which alone answers 1 on it.

    States are 0-based: the figure's q_1..q_n become 0..n-1.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    nxt = tuple(((q + 1) % n, 0) for q in range(n))
    out = tuple((0, 1 if q == 0 else 0) for q in range(n))
    return MealyAutomaton(n, 2, 2, nxt, out)


@dataclass(frozen=True)
class SokolovskiiInstance:
    """Sink semiautomaton over m = C(n-1, k) input letters.

    Letter i moves subset D_i position-wise onto D_{i+1} (the last letter
    applies the max-order permutation pi before wrapping to D_1) and
    sends every state outside D_i to the sink.  States are 0-based: the
    construction's state n (the sink) is index n-1.
    """

    n: int
    k: int
    m: int
    subsets: tuple[tuple[int, ...], ...]
    pi: Transformation               # permutation of positions 0..k-1
    order: int                       # Landau g(k)
    semiautomaton: PartialSemiautomaton
    basis: tuple[Transformation, ...]
    target: Transformation           # induced by the full cycle word repeated g(k)-1 times


def sokolovskii_instance(n: int, k: int) -> SokolovskiiInstance:
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    m = comb(n - 1, k)
    if m > DEFAULT_LETTER_CAP:
        raise CapExceeded(f"instance would need {m} input letters "
                          f"(cap {DEFAULT_LETTER_CAP})")
    subsets = tuple(combinations(range(n - 1), k))  # lexicographic order
    lv = landau(k)
    pi = max_order_permutation(k)
    sink = n - 1
    nxt = [[sink] * m for _ in range(n)]
    for i, D in enumerate(subsets):
        if i + 1 < m:
            for j in range(k):
                nxt[D[j]][i] = subsets[i + 1][j]
        else:
            for j in range(k):
                nxt[D[j]][i] = subsets[0][pi[j]]
    semi = PartialSemiautomaton(n, m, tuple(tuple(r) for r in nxt))
    basis = tuple(tuple(nxt[q][i] for q in range(n)) for i in range(m))
    cycle = reduce(compose, basis)
    target = cycle
    for _ in range(lv.value - 2):
        target = compose(target, cycle)
    if lv.value == 1:
        target = tuple(range(n))
    return SokolovskiiInstance(n, k, m, subsets, pi, lv.value, semi, basis, target)


def check_cycle_characterization(inst: SokolovskiiInstance) -> bool:
    """Exhaustively confirm that D_1 maps back onto itself only along the
    full cycle word, for every word up to length 2m.

    Enumerates words as a tree over defined-subset images.  Once the sink
    enters an image it stays (checked below) and D_1 excludes it, so
    sink-carrying branches cannot return to D_1 and are pruned; the
    pruned enumeration covers exactly the words the naive one would.
    """
    semi = inst.semiautomaton
    sink = inst.n - 1
    if any(semi.nxt[sink][a] != sink for a in range(inst.m)):
        return False
    d1 = frozenset(inst.subsets[0])
    full_cycle = tuple(range(inst.m))
    stack = [(d1, ())]
    while stack:
        S, word = stack.pop()
        if len(word) >= 2 * inst.m:
            continue
        for a in range(inst.m):
            S2 = image(semi, S, (a,))
            w2 = word + (a,)
            if S2 == d1:
                s, r = divmod(len(w2), inst.m)
                if r != 0 or w2 != full_cycle * s:
                    return False
            if sink in S2:
                continue
            stack.append((S2, w2))
    # the "if" direction: the cycle word itself does return to D_1
    return image(semi, d1, full_cycle) == d1


@dataclass(frozen=True)
class LowerBoundReport:
    n: int
    k: int
    m: int
    order: int
    computed: Optional[int]
    bound: int
    exact: int
    passed: bool
    equals_exact: bool


def verify_lower_bound(n: int, k: int) -> LowerBoundReport:
    """Compute the exact complexity of the instance's target map over its
    basis and compare it with the guaranteed lower bound C(n-1,k)(g(k)-1).

    Raises CapExceeded when the search stores more than
    semigroup.DEFAULT_ELEMENT_CAP elements before reaching the target."""
    inst = sokolovskii_instance(n, k)
    computed = complexity(inst.basis, inst.target)
    bound = comb(n - 1, k) * (inst.order - 1)
    exact = inst.m * (inst.order - 1)
    if bound == 0:
        passed = True
        computed_for_eq = computed if computed is not None else 0
    else:
        passed = computed is not None and computed >= bound
        computed_for_eq = computed
    return LowerBoundReport(n, k, inst.m, inst.order, computed, bound, exact,
                            passed, computed_for_eq == exact)
