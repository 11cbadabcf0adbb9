"""The four benchmark workloads: inputs made from a seed, calls, checks.

Each workload is a list of operations.  An operation's ``run`` makes the
calls into distseq (each one through ``Tracer.call``, so a traced run
gets a span per call) and returns the answers; its ``check`` decides,
in this file's own code, whether those answers are right.  Checks do
not reuse the code path they check: PDS words go through
``automata.uncertainty``, closure sizes and complexities through closed
formulas, synchronizing words through ``automata.image``, and CLI
reports through goldens captured from the program (see goldens.json).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import product
from math import comb, factorial, gcd, lcm
from pathlib import Path
from typing import Callable

from distseq import automata, cli, extremal, kgraph, pds, semigroup, sync

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

# Seed of the fixed request pool that small_queries draws from; the
# goldens in goldens.json were captured for exactly this pool.
POOL_SEED = 1412_0034


@dataclass
class Op:
    """One request of a workload: timed as a whole, checked afterwards."""

    name: str
    run: Callable          # run(tracer) -> answer
    check: Callable        # check(answer) -> bool
    counts: Callable = lambda answer: {}   # per-request size counts


@dataclass
class Workload:
    ops: list
    sizes: dict = field(default_factory=dict)   # per-pass counts known at set-up


# --- pds_exhaustive ----------------------------------------------------------

# (states, inputs, outputs, k) -> worst shortest-PDS length.
PDS_CASES = (((3, 2, 2, 2), 2), ((3, 2, 2, 3), 3))
PDS_CASES_TOY = (((2, 2, 2, 2), 1), ((3, 1, 2, 3), 2))


def is_shortest_pds(aut, subset, word) -> bool:
    """word splits subset into singletons and no shorter word does."""
    if not automata.uncertainty(aut, subset, word).is_discrete():
        return False
    return not any(automata.uncertainty(aut, subset, w).is_discrete()
                   for length in range(len(word))
                   for w in product(range(aut.n_inputs), repeat=length))


def _pds_op(params, expected) -> Op:
    def run(tr):
        res = tr.call("pds.worst_case", pds.worst_case_pds, *params)
        if res.automaton is None:
            return res, None
        found = tr.call("pds.shortest", pds.shortest_pds, res.automaton, res.subset)
        return res, found.word

    def check(answer):
        res, word = answer
        return (res.max_length == expected and word is not None
                and len(word) == expected
                and is_shortest_pds(res.automaton, res.subset, word))

    return Op("worst_case_pds" + repr(params), run, check)


def build_pds_exhaustive(rng, toy, workdir, tr) -> Workload:
    # The search is exhaustive over all automata of the given sizes, so
    # there is nothing for the seed to draw.
    cases = PDS_CASES_TOY if toy else PDS_CASES
    searches = sum((n * b) ** (n * a) * comb(n, k) for (n, a, b, k), _ in cases)
    return Workload([_pds_op(p, e) for p, e in cases],
                    {"pds.subset_searches": searches})


# --- lower_bound -------------------------------------------------------------

LADDER = ((7, 3), (7, 4), (8, 3), (8, 4), (9, 3), (9, 4))
LADDER_TOY = ((5, 2), (5, 3))
SYMMETRIC_N = 9
SYMMETRIC_N_TOY = 5


def landau_by_partitions(k: int) -> int:
    """Largest lcm over the integer partitions of k (brute force)."""
    def parts(rest, largest):
        if rest == 0:
            yield ()
        for p in range(min(rest, largest), 0, -1):
            for tail in parts(rest - p, p):
                yield (p,) + tail
    return max(lcm(*p) for p in parts(k, k))


def _conjugate(f, sigma):
    """sigma f sigma^-1: the same map with every point x renamed sigma[x]."""
    g = [0] * len(f)
    for x, y in enumerate(f):
        g[sigma[x]] = sigma[y]
    return tuple(g)


def _rung_op(n, k, rng) -> Op:
    sigma = rng.sample(range(n), n)
    order = rng.sample(range(comb(n - 1, k)), comb(n - 1, k))
    expected = comb(n - 1, k) * (landau_by_partitions(k) - 1)

    def run(tr):
        inst = tr.call("extremal.instance", extremal.sokolovskii_instance, n, k)
        basis = [_conjugate(inst.basis[i], sigma) for i in order]
        target = _conjugate(inst.target, sigma)
        value = tr.call("semigroup.complexity", semigroup.complexity, basis, target)
        cycle_ok = tr.call("extremal.cycle_check",
                           extremal.check_cycle_characterization, inst)
        return value, cycle_ok

    return Op(f"lower_bound({n},{k})", run,
              lambda answer: answer == (expected, True))


def _symmetric_op(n, rng) -> Op:
    """Closure of a transposition and an n-cycle that generate S_n."""
    cycle_order = rng.sample(range(n), n)
    cycle = [0] * n
    for i, x in enumerate(cycle_order):
        cycle[x] = cycle_order[(i + 1) % n]
    # (a c^d(a)) and c generate S_n when gcd(d, n) = 1.
    i = rng.randrange(n)
    d = rng.choice([d for d in range(1, n) if gcd(d, n) == 1])
    a, b = cycle_order[i], cycle_order[(i + d) % n]
    swap = list(range(n))
    swap[a], swap[b] = b, a
    gens = [tuple(cycle), tuple(swap)]
    rng.shuffle(gens)

    def run(tr):
        return len(tr.call("semigroup.closure", semigroup.closure, gens).level)

    return Op(f"closure(S_{n})", run, lambda size: size == factorial(n),
              lambda size: {"semigroup.closure.elements": size})


def build_lower_bound(rng, toy, workdir, tr) -> Workload:
    ops = [_rung_op(n, k, rng) for n, k in (LADDER_TOY if toy else LADDER)]
    ops.append(_symmetric_op(SYMMETRIC_N_TOY if toy else SYMMETRIC_N, rng))
    return Workload(ops)


# --- subset_lattice ----------------------------------------------------------

CERNY_N = (7, 8, 9, 10)
CERNY_N_TOY = (4, 5)


def cerny(n, rng) -> automata.PartialSemiautomaton:
    """Cerny automaton C_n (shortest reset word (n-1)^2), states and
    letters renamed at random."""
    states = rng.sample(range(n), n)
    letters = rng.sample(range(2), 2)
    base = [((q + 1) % n, 0 if q == n - 1 else q) for q in range(n)]
    nxt = [[0, 0] for _ in range(n)]
    for q in range(n):
        for a in range(2):
            nxt[states[q]][letters[a]] = states[base[q][a]]
    return automata.PartialSemiautomaton(n, 2, tuple(tuple(r) for r in nxt))


def _cerny_op(n, aut) -> Op:
    everything = range(n)

    def run(tr):
        careful = tr.call("sync.careful", sync.shortest_carefully_synchronizing, aut)
        irreducible = tr.call("sync.irreducible", sync.shortest_irreducible, aut)
        return careful, irreducible, [
            tr.call("sync.is_irreducible", sync.is_irreducible, aut, w)
            for w in (careful, irreducible)]

    def check(answer):
        words, flags = answer[:2], answer[2]
        return all(w is not None and len(w) == (n - 1) ** 2
                   and len(automata.image(aut, everything, w)) == 1
                   for w in words) and flags == [True, True]

    return Op(f"cerny({n})", run, check)


def build_subset_lattice(rng, toy, workdir, tr) -> Workload:
    auts = [(n, cerny(n, rng)) for n in (CERNY_N_TOY if toy else CERNY_N)]
    sizes = {}
    if tr.enabled:
        # Lattice size for the traced report; outside every span, untimed.
        sizes["sync.lattice_subsets"] = sum(
            len(sync.reachable_subsets(aut, range(n))) for n, aut in auts)
    return Workload([_cerny_op(n, aut) for n, aut in auts], sizes)


# --- small_queries -----------------------------------------------------------

@dataclass
class Entry:
    """One pool item: CLI requests run in order, plus the files they read."""

    key: str
    kind: str
    requests: list                               # argv lists
    files: dict = field(default_factory=dict)    # name -> text
    data: dict = field(default_factory=dict)     # what the checks need


def _fmt(seq) -> str:
    return ",".join(map(str, seq))


def _random_mealy(rng, n, a, b=2):
    nxt = tuple(tuple(rng.randrange(n) for _ in range(a)) for _ in range(n))
    out = tuple(tuple(rng.randrange(b) for _ in range(a)) for _ in range(n))
    text = f"mealy {n} {a} {b}\n" + "".join(
        f"{q} {x} {nxt[q][x]} {out[q][x]}\n" for q in range(n) for x in range(a))
    return (n, a, b, nxt, out), text


def _random_basis(rng, n):
    """A permutation (so every k-subset has an arc) and one or two maps."""
    perm = rng.sample(range(n), n)
    others = [tuple(rng.randrange(n) if rng.random() < 0.3 else p
                    for p in rng.sample(range(n), n))
              for _ in range(rng.randint(1, 2))]
    return [tuple(perm)] + others


def _random_walk(rng, basis, start, length):
    cur, walk = start, []
    for _ in range(length):
        ok = [i for i, g in enumerate(basis)
              if len({g[x] for x in cur}) == len(cur)]
        i = rng.choice(ok)
        walk.append(i)
        cur = tuple(sorted(basis[i][x] for x in cur))
    return walk


def request_pool() -> dict:
    """The requests of one small_queries pass, by kind; fixed by POOL_SEED.

    90 pds, 15 sokolovskii+sync pairs, 35 kgraph, 30 landau, 35 bounds
    and 30 closure requests: 250 in all.
    """
    rng = random.Random(POOL_SEED)
    kinds = ("pds", "sok", "kgraph", "landau", "bounds", "closure")
    pool: dict[str, list[Entry]] = {k: [] for k in kinds}
    for i in range(30):
        spec, text = _random_mealy(rng, rng.randint(5, 8), rng.randint(2, 3))
        name = f"mealy{i:02d}.maut"
        for j in range(3):
            subset = sorted(rng.sample(range(spec[0]), rng.choice((2, 2, 3))))
            pool["pds"].append(Entry(
                f"pds{i:02d}.{j}", "pds",
                [["pds", "--file", name, "--subset", _fmt(subset)]],
                {name: text}, {"mealy": spec, "subset": subset}))
    for n, k in [(n, k) for n in range(4, 8) for k in range(1, n - 1)] + [(8, 1)]:
        name = f"sok_{n}_{k}.psemi"
        pool["sok"].append(Entry(f"sok{n}.{k}", "sok", [
            ["extremal", "sokolovskii", "--n", str(n), "--k", str(k),
             "--out", name],
            ["sync", "careful", "--file", name]]))
    for i in range(35):
        n = rng.randint(5, 7)
        k = rng.randint(2, 3)
        basis = _random_basis(rng, n)
        start = tuple(sorted(rng.sample(range(n), k)))
        walk = _random_walk(rng, basis, start, rng.randint(50, 1000))
        pool["kgraph"].append(Entry(f"kgraph{i:02d}", "kgraph", [[
            "kgraph", "compress", "--ground", str(n), "--k", str(k),
            "--maps", ";".join(map(_fmt, basis)), "--start", _fmt(start),
            "--walk", _fmt(walk)]], data={"basis": basis, "k": k,
                                          "start": start, "walk": walk}))
    for k in range(1, 61, 2):
        pool["landau"].append(Entry(f"landau{k}", "landau",
                                    [["landau", "--k", str(k)]]))
    for i in range(35):
        n = rng.randint(2, 40)
        k = rng.randint(2, n)
        pool["bounds"].append(Entry(f"bounds{i:02d}", "bounds",
                                    [["bounds", "row", "--n", str(n), "--k", str(k)]]))
    for i in range(30):
        n = rng.randint(3, 5)
        maps = [tuple(rng.randrange(n) for _ in range(n))
                for _ in range(rng.randint(2, 3))]
        pool["closure"].append(Entry(f"closure{i:02d}", "closure", [[
            "semigroup", "closure", "--ground", str(n),
            "--maps", ";".join(map(_fmt, maps))]]))
    return pool


def pool_fingerprint(pool) -> str:
    items = [(e.key, e.requests, sorted(e.files.items()))
             for entries in pool.values() for e in entries]
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


NESTED_COMMANDS = {"semigroup", "kgraph", "extremal", "sync", "bounds"}


def subcommand(argv) -> str:
    """Name of the CLI subcommand an argv selects, e.g. 'kgraph_compress'."""
    return "_".join(argv[:2]) if argv[0] in NESTED_COMMANDS else argv[0]


def run_cli(argv) -> tuple[int, str]:
    """Exit code and report of ``distseq <argv>``, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.dispatch(argv)
    return code, buf.getvalue()


def report_digest(code: int, text: str) -> list:
    """Golden form of a report: exit code and hash of it without elapsed."""
    kept = [line for line in text.splitlines() if not line.startswith("elapsed: ")]
    return [code, hashlib.sha256("\n".join(kept).encode()).hexdigest()]


def report_field(text: str, key: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


def _parse_ints(text: str) -> tuple:
    return tuple(int(p) for p in text.split(",")) if text else ()


def _extra_check(entry: Entry, answer) -> bool:
    """Checks of a request's report that do not depend on the golden."""
    _, text = answer
    if entry.kind == "pds" and report_field(text, "status") == "ok":
        n, a, b, nxt, out = entry.data["mealy"]
        aut = automata.MealyAutomaton(n, a, b, nxt, out)
        word = _parse_ints(report_field(text, "result.word"))
        return automata.uncertainty(aut, entry.data["subset"], word).is_discrete()
    if entry.kind == "kgraph":
        return (report_field(text, "result.eval_images") == entry.data["expected"]
                and report_field(text, "result.original_length")
                == str(len(entry.data["walk"])))
    return True


def _kgraph_counts(answer) -> dict:
    text = answer[1]
    return {"kgraph.compress.arcs_in":
            int(report_field(text, "result.original_length")),
            "kgraph.compress.arcs_out":
            int(report_field(text, "result.compressed_length"))}


def _request_op(entry: Entry, j: int, goldens) -> Op:
    argv = entry.requests[j]
    golden = goldens[entry.key][j]

    def run(tr):
        return tr.call("cli." + subcommand(argv), run_cli, argv)

    def check(answer):
        return report_digest(*answer) == golden and _extra_check(entry, answer)

    if entry.kind == "kgraph":
        return Op(f"{entry.key}/{j}", run, check, _kgraph_counts)
    return Op(f"{entry.key}/{j}", run, check)


def load_goldens(pool) -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    if recorded["pool_fingerprint"] != pool_fingerprint(pool):
        raise RuntimeError("the request pool differs from the one goldens.json "
                           "was captured for; regenerate both together")
    return recorded["reports"]


def build_small_queries(rng, toy, workdir, tr) -> Workload:
    pool = request_pool()
    goldens = load_goldens(pool)
    # Every seed sends the same requests, so the work per pass does not
    # depend on the seed; the seed sets their order.
    chosen = [e for entries in pool.values()
              for e in (entries[:max(1, len(entries) // 10)] if toy else entries)]
    rng.shuffle(chosen)
    for entry in chosen:
        for name, text in entry.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        if entry.kind == "kgraph":
            d = entry.data
            g = tr.call("kgraph.build", kgraph.build_kgraph, d["basis"], d["k"])
            walk = tr.call("kgraph.walk", kgraph.walk_from_basis_indices,
                           g, d["start"], d["walk"])
            d["expected"] = _fmt(tr.call("kgraph.eval", kgraph.eval_walk, walk).images)
    # A sok entry's second request reads the file its first one wrote,
    # so an entry's requests stay adjacent and in order.
    return Workload([_request_op(e, j, goldens)
                     for e in chosen for j in range(len(e.requests))])


BUILDERS = {
    "pds_exhaustive": build_pds_exhaustive,
    "lower_bound": build_lower_bound,
    "subset_lattice": build_subset_lattice,
    "small_queries": build_small_queries,
}


def build(name: str, seed: int, toy: bool, workdir: Path, tr) -> Workload:
    return BUILDERS[name](random.Random(f"{name}:{seed}"), toy, workdir, tr)
