"""Transformations of a finite set, closures over a basis, and complexity.

A transformation is a plain tuple t of length n with t[i] = image of
point i.  The composition fg is the LEFT composition x -> g(f(x)).
Closure searches keep elements as bytes for n <= 256 (tuples above) and
hand tuples back at the public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping
from math import lcm
from typing import Iterable, Optional

from .automata import bfs_words

Transformation = tuple[int, ...]


DEFAULT_ELEMENT_CAP = 20_000_000
DEFAULT_BASES_CAP = 1 << 20


class CapExceeded(RuntimeError):
    """A search or enumeration hit its cap; the message names the count and the cap."""


def identity(n: int) -> Transformation:
    return tuple(range(n))


def is_bijection(f: Transformation) -> bool:
    return len(set(f)) == len(f)


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Left composition: (fg)(x) = g(f(x))."""
    if len(f) != len(g):
        raise ValueError("transformations act on different ground sets")
    return tuple(g[x] for x in f)


def transformation_order(f: Transformation) -> int:
    """Order of a bijection: lcm of its cycle lengths."""
    if not is_bijection(f):
        raise ValueError("order is defined for bijections only")
    seen = [False] * len(f)
    lengths = []
    for start in range(len(f)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = f[x]
            length += 1
        lengths.append(length)
    return lcm(*lengths) if lengths else 1


@dataclass(frozen=True)
class PartialBijection:
    """Injective map defined on a k-subset of the ground set.

    images[i] is the image of domain[i]; the domain is kept sorted.
    """

    domain: tuple[int, ...]
    images: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(self.domain)) != self.domain:
            raise ValueError("domain must be sorted ascending")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("domain has repeated points")
        if len(self.images) != len(self.domain):
            raise ValueError("domain and images differ in size")
        if len(set(self.images)) != len(self.images):
            raise ValueError("map is not injective")

    @property
    def k(self) -> int:
        return len(self.domain)

    def target(self) -> tuple[int, ...]:
        return tuple(sorted(self.images))


class _Levels(Mapping):
    """Read-only tuple-keyed view of a level dict keyed by packed elements.

    Keys are packed on lookup and unpacked on iteration, so callers see
    tuples while the search keeps its compact keys.
    """

    __slots__ = ("_levels", "_pack")

    def __init__(self, levels: dict, pack):
        self._levels = levels
        self._pack = pack

    def __getitem__(self, f):
        if isinstance(f, tuple):  # bytes(2) would pack an int as (0, 0)
            try:
                return self._levels[self._pack(f)]
            except (KeyError, TypeError, ValueError):
                pass
        raise KeyError(f)

    def __iter__(self):
        return map(tuple, self._levels)

    def __len__(self):
        return len(self._levels)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class ClosureResult:
    """Closure of a basis with, for each element, its shortest product length."""

    level: Mapping  # Transformation -> int, >= 1; 1 exactly on the basis
    max_level: int  # the largest level: the diameter of the closure
    witness: Transformation  # lex-least element at max_level

    @property
    def elements(self) -> frozenset:
        return frozenset(self.level)


def _compose_tuples(f: tuple, g: tuple) -> tuple:
    return tuple(map(g.__getitem__, f))


def checked_basis(basis: Iterable[Transformation]) -> list[Transformation]:
    """The basis as tuples, checked to be non-empty self-maps of one ground set."""
    basis = [tuple(f) for f in basis]
    if not basis:
        raise ValueError("basis must be non-empty")
    n = len(basis[0])
    if any(len(f) != n for f in basis):
        raise ValueError("basis elements act on different ground sets")
    if any(not 0 <= x < n for f in basis for x in f):
        raise ValueError("basis maps a point outside the ground set")
    return basis


def _kernel(basis: Iterable[Transformation]):
    """Validate a basis and choose the element encoding for its ground set.

    Returns (n, pack, compose, elements, actions): for n <= 256 elements
    are bytes and each basis map acts through bytes.translate with a
    256-byte table; for larger n both are tuples.  Equal-length bytes
    order like the tuples they encode.
    """
    basis = checked_basis(basis)
    n = len(basis[0])
    if n <= 256:
        pad = bytes(256 - n)
        return n, bytes, bytes.translate, [bytes(f) for f in basis], \
            [bytes(f) + pad for f in basis]
    return n, tuple, _compose_tuples, basis, basis


def _bfs(elements, actions, compose, target=None) -> tuple[dict, list]:
    """Level of each product of the basis, in breadth-first order, and the
    last non-empty frontier.

    BFS under right-multiplication by basis members; every length-l
    product has a length-(l-1) prefix in the closure, so the first visit
    depth is the complexity.  Stops as soon as target is reached (the
    frontier returned then is partial), and raises CapExceeded once a
    completed level leaves more than DEFAULT_ELEMENT_CAP elements stored.
    """
    level = {}
    frontier = []
    for f in elements:
        if f not in level:
            level[f] = 1
            frontier.append(f)
    if target in level:
        return level, frontier
    d = 1
    while True:
        if len(level) > DEFAULT_ELEMENT_CAP:
            raise CapExceeded(f"closure search stored {len(level)} elements by "
                              f"level {d} (cap {DEFAULT_ELEMENT_CAP})")
        d += 1
        nxt = []
        for f in frontier:
            for g in actions:
                h = compose(f, g)
                if h not in level:
                    level[h] = d
                    if h == target:
                        return level, nxt
                    nxt.append(h)
        if not nxt:
            return level, frontier
        frontier = nxt


def closure(basis: Iterable[Transformation]) -> ClosureResult:
    """All products of basis elements, with shortest factorization lengths."""
    _, pack, compose, elements, actions = _kernel(basis)
    level, last = _bfs(elements, actions, compose)
    # Equal-length bytes order like the tuples they encode.
    return ClosureResult(_Levels(level, pack), level[last[0]], tuple(min(last)))


def complexity(basis: Iterable[Transformation], f: Transformation) -> Optional[int]:
    """Shortest number of basis factors expressing f, or None if f is not generated."""
    n, pack, compose, elements, actions = _kernel(basis)
    f = tuple(f)
    if len(f) != n or any(not 0 <= x < n for x in f):
        return None
    target = pack(f)
    return _bfs(elements, actions, compose, target)[0].get(target)


def restriction_complexity(basis: Iterable[Transformation],
                           f: PartialBijection) -> Optional[int]:
    """Minimum complexity over all closure elements restricting to f on its domain.

    Breadth-first search over the tuple of current images of the domain
    points, from None for the empty product, so f.domain itself counts
    only when a non-empty product reaches it; any product that collapses
    two domain points can never restrict to the injective f, so
    non-injective tuples are pruned.
    """
    basis = checked_basis(basis)
    n = len(basis[0])
    if any(not 0 <= x < n for x in f.domain + f.images):
        raise ValueError("f has a domain point or image outside the ground set")

    def moves(cur):
        for i, g in enumerate(basis):
            nxt = tuple(g[x] for x in (f.domain if cur is None else cur))
            if len(set(nxt)) == f.k:
                yield i, nxt
    return next((len(w) for cur, w in bfs_words(None, moves)
                 if cur == f.images), None)


def _bases(C: Iterable[Transformation], cap: int):
    """Non-empty subsets of the distinct members of C, in binary-counter
    (mask) order over their sorted list; CapExceeded past cap subsets."""
    items = sorted({tuple(f) for f in C})
    count = (1 << len(items)) - 1
    if count > cap:
        raise CapExceeded(f"would enumerate {count} bases (cap {cap})")
    return (tuple(items[i] for i in range(len(items)) if mask >> i & 1)
            for mask in range(1, count + 1))


@dataclass(frozen=True)
class WorstComplexity:
    value: int
    basis: tuple[Transformation, ...]
    witness: Transformation


def worst_case_complexity(C: Iterable[Transformation],
                          cap_bases: int = DEFAULT_BASES_CAP) -> WorstComplexity:
    """Worst complexity over all non-empty bases drawn from C; the basis
    reported is the first maximiser in mask order."""
    best: Optional[WorstComplexity] = None
    for basis in _bases(C, cap_bases):
        res = closure(basis)
        if best is None or res.max_level > best.value:
            best = WorstComplexity(res.max_level, basis, res.witness)
    if best is None:
        raise ValueError("C must be non-empty")
    return best


def directed_diameter(generators: Iterable[Transformation]) -> int:
    """Max complexity over the group generated by the given bijections."""
    generators = [tuple(f) for f in generators]
    if any(not is_bijection(f) for f in generators):
        raise ValueError("generators must be bijections")
    return closure(generators).max_level


def group_worst_diameter(G: Iterable[Transformation]) -> int:
    """Directed diameter of the group G: max over all generating subsets.

    Subsets whose closure is a proper subset of G are skipped by
    definition.
    """
    G = {tuple(f) for f in G}
    if any(not is_bijection(f) for f in G):
        raise ValueError("G must consist of bijections")
    # G is inside closure(G), so equal sizes mean G is closed; then every
    # basis drawn from G generates a subgroup of G, equal to G iff as large,
    # and G itself is one such basis.
    if len(closure(G).level) != len(G):
        raise ValueError("G is not closed under composition")
    return max(res.max_level for res in map(closure, _bases(G, DEFAULT_BASES_CAP))
               if len(res.level) == len(G))
