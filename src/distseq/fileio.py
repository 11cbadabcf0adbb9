"""Text format for automata files.

One record per line, '#' starts a comment, UTF-8.

  mealy <n> <a> <b>      followed by exactly n*a lines  "q x q' y"
  psemi <n> <a>          followed by at most  n*a lines "q x q'"

All numbers are 0-based integers; a duplicate (q, x) pair is an error.
"""

from __future__ import annotations

from typing import Union

from .automata import MealyAutomaton, PartialSemiautomaton

Automaton = Union[MealyAutomaton, PartialSemiautomaton]


class FormatError(ValueError):
    """Malformed automaton file; message carries the 1-based line number."""


def _records(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _ints(lineno: int, parts: list[str], count: int) -> list[int]:
    if len(parts) != count:
        raise FormatError(f"line {lineno}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer field") from None


def loads(text: str) -> Automaton:
    records = list(_records(text))
    if not records:
        raise FormatError("line 1: empty file")
    lineno, header = records[0]
    fields = header.split()
    kind = fields[0]
    if kind == "mealy":
        if len(fields) != 4:
            raise FormatError(f"line {lineno}: mealy header needs 3 numbers")
        n, a, b = _ints(lineno, fields[1:], 3)
        return _load_mealy(lineno, n, a, b, records[1:])
    if kind == "psemi":
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: psemi header needs 2 numbers")
        n, a = _ints(lineno, fields[1:], 2)
        return _load_psemi(lineno, n, a, records[1:])
    raise FormatError(f"line {lineno}: unknown header {kind!r}")


def _load_mealy(header: int, n: int, a: int, b: int, records) -> MealyAutomaton:
    nxt = [[None] * a for _ in range(n)]
    out = [[None] * a for _ in range(n)]
    for lineno, line in records:
        q, x, q2, y = _ints(lineno, line.split(), 4)
        if not (0 <= q < n and 0 <= x < a):
            raise FormatError(f"line {lineno}: (state, input) = ({q}, {x}) out of range")
        if not 0 <= q2 < n:
            raise FormatError(f"line {lineno}: target state {q2} out of range")
        if not 0 <= y < b:
            raise FormatError(f"line {lineno}: output {y} out of range")
        if nxt[q][x] is not None:
            raise FormatError(f"line {lineno}: duplicate pair ({q}, {x})")
        nxt[q][x] = q2
        out[q][x] = y
    for q in range(n):
        for x in range(a):
            if nxt[q][x] is None:
                raise FormatError(f"line {header}: missing transition for state {q}, input {x}")
    try:
        return MealyAutomaton(n, a, b,
                              tuple(tuple(r) for r in nxt),
                              tuple(tuple(r) for r in out))
    except ValueError as e:
        raise FormatError(f"line {header}: {e}") from None


def _load_psemi(header: int, n: int, a: int, records) -> PartialSemiautomaton:
    nxt = [[None] * a for _ in range(n)]
    seen = set()
    for lineno, line in records:
        q, x, q2 = _ints(lineno, line.split(), 3)
        if not (0 <= q < n and 0 <= x < a):
            raise FormatError(f"line {lineno}: (state, input) = ({q}, {x}) out of range")
        if not 0 <= q2 < n:
            raise FormatError(f"line {lineno}: target state {q2} out of range")
        if (q, x) in seen:
            raise FormatError(f"line {lineno}: duplicate pair ({q}, {x})")
        seen.add((q, x))
        nxt[q][x] = q2
    try:
        return PartialSemiautomaton(n, a, tuple(tuple(r) for r in nxt))
    except ValueError as e:
        raise FormatError(f"line {header}: {e}") from None


def dumps(aut: Automaton) -> str:
    lines = []
    if isinstance(aut, MealyAutomaton):
        lines.append(f"mealy {aut.n_states} {aut.n_inputs} {aut.n_outputs}")
        for q in range(aut.n_states):
            for x in range(aut.n_inputs):
                lines.append(f"{q} {x} {aut.nxt[q][x]} {aut.out[q][x]}")
    elif isinstance(aut, PartialSemiautomaton):
        lines.append(f"psemi {aut.n_states} {aut.n_inputs}")
        for q in range(aut.n_states):
            for x in range(aut.n_inputs):
                if aut.nxt[q][x] is not None:
                    lines.append(f"{q} {x} {aut.nxt[q][x]}")
    else:
        raise TypeError(f"cannot serialize {type(aut).__name__}")
    return "\n".join(lines) + "\n"


def load(path) -> Automaton:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(aut: Automaton, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(aut))
