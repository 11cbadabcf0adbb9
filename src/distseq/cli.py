"""Command-line entry point binding all modules.

Every subcommand prints a line-oriented key:value report (or JSON with
--json) and exits 0 on ok/absent, 2 when a cap made a search give up,
and 1 on errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from . import bounds, fileio, sync, verify
from .automata import MealyAutomaton, PartialSemiautomaton, Partition, uncertainty
from .extremal import (check_cycle_characterization, fig1_automaton,
                       sokolovskii_instance, verify_lower_bound)
from .kgraph import (DEFAULT_VERTEX_CAP, build_kgraph, compress_walk_report,
                     eval_walk, scc, to_dot, walk_from_basis_indices)
from .landau import landau
from .pds import (DEFAULT_AUTOMATA_CAP, DEFAULT_NODE_CAP, shortest_pds,
                  worst_case_pds)
from .semigroup import (DEFAULT_BASES_CAP, CapExceeded, closure,
                        directed_diameter, worst_case_complexity)

STATE_NUMBERING = "q1..qn -> 0..n-1"

EXIT_BY_STATUS = {"ok": 0, "absent": 0, "gave-up": 2, "error": 1}


def _fmt_word(w) -> str:
    return ",".join(str(a) for a in w)


def _parse_word(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _maps(args) -> list[tuple[int, ...]]:
    """The --maps image arrays ('1,0;0,0'), each a self-map of 0..ground-1."""
    maps = [tuple(int(p) for p in chunk.split(","))
            for chunk in args.maps.split(";") if chunk.strip()]
    if any(len(f) != args.ground for f in maps):
        raise ValueError("every map must list one image per ground point")
    if any(not 0 <= x < args.ground for f in maps for x in f):
        raise ValueError("every image must lie in 0..ground-1")
    return maps


def _fmt_partition(p: Partition) -> str:
    return ";".join(",".join(str(q) for q in b) for b in p.blocks)


def _flatten(prefix: str, value, into: list[str]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, into)
    elif isinstance(value, (list, tuple)):
        into.append(f"{prefix}: {','.join(str(v) for v in value)}")
    else:
        into.append(f"{prefix}: {value}")


def _emit(args, subcommand: str, status: str, inputs: dict, result: dict,
          elapsed: float) -> int:
    report = {"subcommand": subcommand, "status": status,
              "elapsed": round(elapsed, 6), "inputs": inputs, "result": result}
    if getattr(args, "json", False):
        print(json.dumps(report))
    else:
        lines: list[str] = []
        for key in ("subcommand", "status", "elapsed"):
            lines.append(f"{key}: {report[key]}")
        _flatten("input", inputs, lines)
        _flatten("result", result, lines)
        print("\n".join(lines))
    return EXIT_BY_STATUS[status]


# --- subcommand handlers: each returns (status, inputs, result) ----------------

def _cmd_pds(args):
    aut = fileio.load(args.file)
    if not isinstance(aut, MealyAutomaton):
        raise ValueError("pds needs a mealy automaton file")
    S = _parse_word(args.subset)
    res = shortest_pds(aut, S, max_len=args.max_len, cap_nodes=args.cap_nodes)
    inputs = {"file": args.file, "subset": _fmt_word(S),
              "max_len": args.max_len}
    if res.status == "found":
        part = uncertainty(aut, S, res.word)
        return "ok", inputs, {"word": _fmt_word(res.word), "length": res.length,
                              "partition": _fmt_partition(part)}
    if res.status == "absent":
        return "absent", inputs, {}
    return "gave-up", inputs, {"cap_nodes": args.cap_nodes}


def _cmd_pds_worst(args):
    res = worst_case_pds(args.states, args.inputs, args.outputs, args.k,
                         cap=args.cap)
    inputs = {"states": args.states, "inputs": args.inputs,
              "outputs": args.outputs, "k": args.k}
    result = {"max_length": res.max_length}
    if res.subset is not None:
        result["subset"] = _fmt_word(res.subset)
        result["automaton"] = fileio.dumps(res.automaton).strip().replace("\n", ";")
    return "ok", inputs, result


def _cmd_semigroup_closure(args):
    res = closure(_maps(args))
    inputs = {"ground": args.ground, "maps": args.maps}
    return "ok", inputs, {"size": len(res.level), "max_level": res.max_level,
                          "witness": _fmt_word(res.witness)}


def _cmd_semigroup_worst(args):
    n = args.ground
    if n < 1:
        raise ValueError("--ground must be at least 1")
    if args.set == "tn":
        C = list(itertools.product(range(n), repeat=n))
    else:
        C = list(itertools.permutations(range(n)))
    res = worst_case_complexity(C, cap_bases=args.cap_bases)
    inputs = {"ground": n, "set": args.set}
    return "ok", inputs, {"value": res.value,
                          "basis": ";".join(_fmt_word(f) for f in res.basis),
                          "witness": _fmt_word(res.witness)}


def _cmd_semigroup_diam(args):
    value = directed_diameter(_maps(args))
    return "ok", {"ground": args.ground, "maps": args.maps}, {"value": value}


def _build_graph_from_args(args):
    return build_kgraph(_maps(args), args.k, cap=args.cap_subsets)


def _cmd_kgraph_build(args):
    g = _build_graph_from_args(args)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g))
    inputs = {"ground": args.ground, "k": args.k, "maps": args.maps}
    result = {"vertices": len(g.vertices), "arcs": len(g.arcs)}
    if args.dot:
        result["dot"] = args.dot
    return "ok", inputs, result


def _cmd_kgraph_scc(args):
    g = _build_graph_from_args(args)
    comps = scc(g)
    rendered = " ".join(
        "|".join("{" + ",".join(map(str, v)) + "}" for v in c) for c in comps)
    return "ok", {"ground": args.ground, "k": args.k, "maps": args.maps}, \
        {"count": len(comps), "components": rendered}


def _cmd_kgraph_compress(args):
    g = _build_graph_from_args(args)
    start = tuple(sorted(_parse_word(args.start)))
    w = walk_from_basis_indices(g, start, _parse_word(args.walk))
    cw, reports = compress_walk_report(w)
    ev = eval_walk(cw)
    inputs = {"ground": args.ground, "k": args.k, "maps": args.maps,
              "start": args.start, "walk": args.walk}
    result = {
        "original_length": len(w),
        "compressed_length": len(cw),
        "compressed_basis_word": _fmt_word(
            g.arcs[i].basis_index for i in cw.steps),
        "eval_domain": _fmt_word(ev.domain),
        "eval_images": _fmt_word(ev.images),
        "components": ";".join(
            f"{r.vertex_count}/{r.factor_count}/{r.length}" for r in reports),
    }
    return "ok", inputs, result


def _cmd_extremal_fig1(args):
    aut = fig1_automaton(args.n)
    if args.out:
        fileio.dump(aut, args.out)
    result = {"states": aut.n_states, "state_numbering": STATE_NUMBERING}
    if args.out:
        result["out"] = args.out
    return "ok", {"n": args.n}, result


def _cmd_extremal_sokolovskii(args):
    inst = sokolovskii_instance(args.n, args.k)
    if args.out:
        fileio.dump(inst.semiautomaton, args.out)
    result = {"m": inst.m, "order": inst.order,
              "subsets": " ".join("{" + ",".join(map(str, d)) + "}"
                                  for d in inst.subsets),
              "state_numbering": STATE_NUMBERING}
    if args.out:
        result["out"] = args.out
    if args.verify:
        rep = verify_lower_bound(args.n, args.k)
        result.update({"computed": rep.computed, "bound": rep.bound,
                       "exact": rep.exact, "passed": rep.passed,
                       "equals_exact": rep.equals_exact,
                       "cycle_characterization":
                           check_cycle_characterization(inst)})
        if not rep.passed:
            return "error", {"n": args.n, "k": args.k}, result
    return "ok", {"n": args.n, "k": args.k}, result


def _cmd_landau(args):
    lv = landau(args.k)
    return "ok", {"k": args.k}, \
        {"value": lv.value, "partition": "+".join(map(str, lv.partition))}


def _load_psemi(path) -> PartialSemiautomaton:
    aut = fileio.load(path)
    if isinstance(aut, MealyAutomaton):
        raise ValueError("this subcommand needs a psemi file")
    return aut


def _cmd_sync_careful(args):
    aut = _load_psemi(args.file)
    w = sync.shortest_carefully_synchronizing(aut)
    if w is None:
        return "absent", {"file": args.file}, {}
    return "ok", {"file": args.file}, {"word": _fmt_word(w), "length": len(w)}


def _cmd_sync_irreducible(args):
    aut = _load_psemi(args.file)
    w = sync.shortest_irreducible(aut)
    if w is None:
        return "absent", {"file": args.file}, {}
    return "ok", {"file": args.file}, {"word": _fmt_word(w), "length": len(w)}


def _cmd_sync_check(args):
    aut = _load_psemi(args.file)
    w = _parse_word(args.word)
    return "ok", {"file": args.file, "word": args.word}, \
        {"irreducible": sync.is_irreducible(aut, w)}


def _cmd_bounds_row(args):
    row = bounds.bound_row(args.n, args.k)
    result = {col: getattr(row, col) for col in bounds.CSV_COLUMNS}
    result["moore"] = "" if result["moore"] is None else result["moore"]
    return "ok", {"n": args.n, "k": args.k}, result


def _cmd_bounds_table(args):
    csv_text = bounds.bounds_table(range(2, args.n_max + 1), args.ratio)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        result = {"csv": args.csv, "rows": csv_text.count("\n") - 2}
    else:
        sys.stdout.write(csv_text)
        result = {"rows": csv_text.count("\n") - 2}
    return "ok", {"n_max": args.n_max, "ratio": args.ratio}, result


def _cmd_verify(args):
    results = verify.run(args.level)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.elapsed:.2f}s): {r.detail}")
    failed = [r.name for r in results if not r.passed]
    status = "ok" if not failed else "error"
    return status, {"level": args.level}, \
        {"checks": len(results), "failed": ",".join(failed) or "none"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distseq",
        description="Distinguishing sequences, transformation semigroups, "
                    "k-graph walks, and the bounds that tie them together.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=handler)
        return p

    p = add("pds", _cmd_pds, help="shortest preset distinguishing sequence")
    p.add_argument("--file", required=True)
    p.add_argument("--subset", required=True, help="0-based comma list")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--cap-nodes", type=int, default=DEFAULT_NODE_CAP)

    p = add("pds-worst", _cmd_pds_worst,
            help="exhaustive worst case at fixed alphabet sizes")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--inputs", type=int, required=True)
    p.add_argument("--outputs", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_AUTOMATA_CAP)

    sg = sub.add_parser("semigroup", help="transformation semigroup operations")
    sgs = sg.add_subparsers(dest="subcommand", required=True)
    for name, handler in (("closure", _cmd_semigroup_closure),
                          ("worst", _cmd_semigroup_worst),
                          ("diam", _cmd_semigroup_diam)):
        p = sgs.add_parser(name)
        p.add_argument("--json", action="store_true")
        p.add_argument("--ground", type=int, required=True)
        if name == "worst":
            p.add_argument("--set", choices=("tn", "sn"), default="tn")
            p.add_argument("--cap-bases", type=int, default=DEFAULT_BASES_CAP)
        else:
            p.add_argument("--maps", required=True,
                           help="semicolon-separated image arrays, e.g. 1,0;0,0")
        p.set_defaults(handler=handler)

    kg = sub.add_parser("kgraph", help="k-graph over a basis")
    kgs = kg.add_subparsers(dest="subcommand", required=True)
    for name, handler in (("build", _cmd_kgraph_build),
                          ("scc", _cmd_kgraph_scc),
                          ("compress", _cmd_kgraph_compress)):
        p = kgs.add_parser(name)
        p.add_argument("--json", action="store_true")
        p.add_argument("--ground", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--maps", required=True)
        p.add_argument("--cap-subsets", type=int, default=DEFAULT_VERTEX_CAP)
        if name == "build":
            p.add_argument("--dot", default=None)
        if name == "compress":
            p.add_argument("--start", required=True, help="comma list: start vertex")
            p.add_argument("--walk", required=True,
                           help="comma list of basis indices to follow")
        p.set_defaults(handler=handler)

    ex = sub.add_parser("extremal", help="the explicit worst-case constructions")
    exs = ex.add_subparsers(dest="subcommand", required=True)
    p = exs.add_parser("fig1")
    p.add_argument("--json", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_extremal_fig1)
    p = exs.add_parser("sokolovskii")
    p.add_argument("--json", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_extremal_sokolovskii)

    p = add("landau", _cmd_landau, help="maximum order of a k-point permutation")
    p.add_argument("--k", type=int, required=True)

    sy = sub.add_parser("sync", help="careful synchronization of partial semiautomata")
    sys_ = sy.add_subparsers(dest="subcommand", required=True)
    for name, handler in (("careful", _cmd_sync_careful),
                          ("irreducible", _cmd_sync_irreducible),
                          ("check", _cmd_sync_check)):
        p = sys_.add_parser(name)
        p.add_argument("--json", action="store_true")
        p.add_argument("--file", required=True)
        if name == "check":
            p.add_argument("--word", required=True)
        p.set_defaults(handler=handler)

    bo = sub.add_parser("bounds", help="bound formulas and tables")
    bos = bo.add_subparsers(dest="subcommand", required=True)
    p = bos.add_parser("row")
    p.add_argument("--json", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds_row)
    p = bos.add_parser("table")
    p.add_argument("--json", action="store_true")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_bounds_table)

    p = add("verify", _cmd_verify, help="run the cross-verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    name = args.command + (f" {args.subcommand}" if hasattr(args, "subcommand") else "")
    t0 = time.perf_counter()
    try:
        status, inputs, result = args.handler(args)
    except (ValueError, fileio.FormatError, OSError) as e:
        return _emit(args, name, "error", {}, {"message": str(e)},
                     time.perf_counter() - t0)
    except CapExceeded as e:
        return _emit(args, name, "gave-up", {}, {"message": str(e)},
                     time.perf_counter() - t0)
    return _emit(args, name, status, inputs, result, time.perf_counter() - t0)


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. `| head`): send what is still buffered
        # to devnull so the flush at exit does not fail too, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
