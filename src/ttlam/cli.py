"""Command line front end.

Subcommands operate on map files (see `mapfile`) and print either a readable
text report or, with --json, a canonical JSON document: keys sorted, floats
rounded to 12 significant digits (only `pf` reports hold any, rounded by
their handler), no whitespace padding, schema version embedded.  Identical
inputs and flags therefore produce byte-identical output.

Exit codes: 0 = pass / result produced, 1 = property violation,
2 = inconclusive (budget exhausted), 3 = input error.
"""

import argparse
import functools
import json
import sys

from .errors import MapError, ParseError, TtError
from .graph import all_turns, validate_graph
from .graph_map import compose, is_inner
from .lamination import (
    dual_language_names,
    eigenray_equivalence,
    illegality_between,
    ilt_contraction,
    leaf_language_names,
    leaf_window,
    singular_leaves,
)
from .mapfile import MapFile, parse_map_path
from .nielsen import detect_inps, eigenray_prefix, periodic_structures, stability_verdict
from .spectral import charpoly_coefficients, is_primitive, pf_data, transition_matrix
from .train_track import gates, is_train_track, two_gates_everywhere, used_illegal_turns, used_turns

OK, VIOLATION, INCONCLUSIVE, INPUT_ERROR = 0, 1, 2, 3
_EXIT_OF_KIND = {"input": INPUT_ERROR, "property": VIOLATION, "inconclusive": INCONCLUSIVE}


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); route to input error
        raise ParseError(message)


def _render_text(data: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, (list, tuple)):
            if all(not isinstance(v, (dict, list, tuple)) for v in value):
                lines.append(f"{pad}{key}: {' '.join(str(v) for v in value) if value else '(none)'}")
            else:
                lines.append(f"{pad}{key}:")
                for v in value:
                    if isinstance(v, dict):
                        lines.append(_render_text(v, indent + 1))
                        lines.append(f"{pad}  -")
                    elif isinstance(v, (list, tuple)):
                        lines.append(f"{pad}  {' '.join(str(x) for x in v)}")
                    else:
                        lines.append(f"{pad}  {v}")
                if lines[-1] == f"{pad}  -":
                    lines.pop()
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _emit(data: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    return _render_text(data) + "\n"


def _envelope(command: str, mf: MapFile) -> dict:
    return {
        "schema": 1,
        "command": command,
        "map": mf.name,
        "assumptions": list(mf.assertions),
    }


def _turn_names(g, t):
    return [g.dart_name(t[0]), g.dart_name(t[1])]


# -- handlers (each fills in the report `data`, returns the exit code) -------

def _cmd_check(mf: MapFile, args, data: dict) -> int:
    f = mf.map
    g = f.graph
    problems = validate_graph(g)
    data["graph_valid"] = not problems
    data["graph_problems"] = problems
    witness = f.non_expanding_witness()
    data["expanding"] = witness is None
    data["non_expanding_witness"] = witness
    tt = is_train_track(f)
    data["train_track"] = tt
    data["num_gates"] = len(gates(f).members)
    data["used_illegal"] = sorted(_turn_names(g, t) for t in used_illegal_turns(f))
    data["two_gates"] = two_gates_everywhere(f)
    prim = is_primitive(transition_matrix(f))
    data["primitive"] = prim
    eq = eigenray_equivalence(f)
    data["equivalence_classes"] = eq.num_classes
    data["classes"] = [[g.dart_name(d) for d in cls] for cls in eq.dart_classes]
    if eq.num_classes > 1:
        data["not_iwip_certificate"] = (
            f"{eq.num_classes} eigenray equivalence classes at periodic vertices; "
            "an irreducible map with irreducible powers admits exactly one"
        )
    else:
        data["not_iwip_certificate"] = None
    ok = (
        data["graph_valid"]
        and data["expanding"]
        and tt
        and data["two_gates"]
        and prim
        and eq.num_classes == 1
    )
    data["pass"] = ok
    return OK if ok else VIOLATION


def _cmd_gates(mf: MapFile, args, data: dict) -> int:
    f = mf.map
    g = f.graph
    gt = gates(f)
    pd = periodic_structures(f)
    out = []
    for v in range(g.num_vertices):
        out.append(
            {
                "vertex": g.vertex_names[v],
                "periodic": v in pd.vertex_period,
                "period": pd.vertex_period.get(v),
                "gates": [
                    [g.dart_name(d) for d in gt.members[gid]] for gid in gt.gates_at(v)
                ],
            }
        )
    data["vertices"] = out
    data["eigen_darts"] = [
        {"dart": g.dart_name(d), "period": p} for d, p in pd.dart_period.items()
    ]
    return OK


def _cmd_turns(mf: MapFile, args, data: dict) -> int:
    f = mf.map
    g = f.graph
    turns = all_turns(g)
    gate_of = gates(f).gate_of
    legal = [gate_of[a] != gate_of[b] for a, b in turns]  # all_turns has no (d, d)
    used_set = used_turns(f)
    used = [t in used_set for t in turns]
    names = g.dart_names
    data["turns"] = [
        {"turn": [names[a], names[b]], "legal": ok, "used": u} for (a, b), ok, u in zip(turns, legal, used)
    ]
    data["counts"] = {
        "total": len(turns),
        "legal": sum(legal),
        "illegal": len(turns) - sum(legal),
        "used": sum(used),
        "used_illegal": sum(u and not ok for ok, u in zip(legal, used)),
    }
    return OK


def _rounded(x: float) -> float:
    """x to 12 significant digits, as every float of a report is given;
    `pf` reports are the only ones that hold floats."""
    return float(f"{x:.12g}")


def _cmd_pf(mf: MapFile, args, data: dict) -> int:
    f = mf.map
    g = f.graph
    m = transition_matrix(f)
    data["matrix"] = [[int(x) for x in row] for row in m]
    prim = is_primitive(m)
    data["primitive"] = prim
    if not prim:
        data["error"] = "transition matrix is not primitive"
        return VIOLATION
    pf = pf_data(f, tol=args.tol)
    data["lambda"] = _rounded(pf.lam)
    if g.num_edges <= 6:
        data["charpoly"] = charpoly_coefficients(m)
    data["lengths"] = {g.edge_names[i]: _rounded(pf.pf_lengths[i]) for i in range(g.num_edges)}
    data["volume"] = _rounded(pf.vol_pf)
    data["bbt_bound"] = _rounded(pf.bbt_bound)
    data["min_length"] = _rounded(pf.min_pf_length)
    data["c_illegal"] = pf.c_illegal
    data["residual"] = _rounded(pf.residual)
    data["iterations"] = pf.iterations
    return OK


def _cmd_inps(mf: MapFile, args, data: dict) -> int:
    f = mf.map
    g = f.graph
    rep = detect_inps(f, max_period=args.max_period, max_pf_len=args.max_pf_len)

    def describe(inp, graph):
        return {
            "path": graph.path_str(inp.path),
            "period": inp.period,
            "tip_index": inp.tip_index,
            "closed": inp.closed,
        }

    data["inps"] = [describe(p, g) for p in rep.inps]
    data["conclusive"] = rep.conclusive
    data["window"] = rep.window
    data["notes"] = list(rep.notes)
    if rep.subdivision is not None:
        data["subdivision"] = {
            "orbit": [
                {"edge": g.edge_names[p.edge], "exponent": p.exponent, "index": p.index, "period": p.period}
                for p in rep.subdivision.orbit
            ],
            "new_vertices": list(rep.subdivision.new_vertices),
            "edge_split": {k: list(v) for k, v in rep.subdivision.edge_split.items()},
        }
        data["subdivided_inps"] = [
            describe(p, rep.subdivision.map.graph) for p in rep.subdivided_inps
        ]
    else:
        data["subdivision"] = None
        data["subdivided_inps"] = []
    stab = stability_verdict(f, rep)
    data["stability"] = {"status": stab.status, "reason": stab.reason}
    return OK if rep.conclusive else INCONCLUSIVE


def _cmd_eigenrays(mf: MapFile, args, data: dict) -> int:
    f = mf.map
    g = f.graph
    rays = []
    for d, p in periodic_structures(f).dart_period.items():
        rays.append(
            {
                "dart": g.dart_name(d),
                "period": p,
                "prefix": g.path_str(eigenray_prefix(f, d, args.length)),
            }
        )
    data["length"] = args.length
    data["rays"] = rays
    return OK


def _cmd_bfh(mf: MapFile, args, data: dict) -> int:
    words = leaf_language_names(mf.map, args.window)
    data["window"] = args.window
    data["count"] = len(words)
    data["words"] = words
    return OK


def _cmd_singular(mf: MapFile, args, data: dict) -> int:
    if args.window < 1:  # checked here: a map with no singular leaf takes no window
        raise MapError("prefix length must be >= 1")
    f = mf.map
    g = f.graph
    sing = singular_leaves(f)
    data["turn_pairs"] = [_turn_names(g, (a, b)) for a, p, b in sing.leaves if not p]
    data["inp_triples"] = [
        {"entry": g.dart_name(a), "path": g.path_str(p), "exit": g.dart_name(b)}
        for a, p, b in sing.leaves if p
    ]
    data["windows"] = [g.path_str(leaf_window(f, leaf, args.window)) for leaf in sing.leaves]
    data["conclusive"] = sing.conclusive
    return OK if sing.conclusive else INCONCLUSIVE


def _cmd_dual(mf: MapFile, args, data: dict) -> int:
    if mf.asserts_inverse_of() is None:
        if not args.assume_inverse:
            data["error"] = (
                "map file does not assert inverse-of; pass --assume-inverse to proceed"
            )
            return INPUT_ERROR
        data["assumptions"].append("inverse-of (assumed by flag)")
    words, only_leaves = dual_language_names(mf.map, args.window)
    data["window"] = args.window
    data["count"] = len(words)
    data["words"] = words
    data["equals_leaf_language"] = only_leaves
    return OK


def _inverse_error(mf: MapFile, against: MapFile) -> str | None:
    """Why mf's `inverse-of` fails for the reference, if it does: the name must
    be the reference's, and on one shared vertex the composite must be inner."""
    if mf.asserts_inverse_of() != against.name:
        return f"{mf.name} asserts inverse-of {mf.asserts_inverse_of()}, not of {against.name}"
    g = against.map.graph
    if g.num_vertices == 1 and g == mf.map.graph:
        try:
            if not is_inner(compose(against.map, mf.map)):
                return f"{against.name} . {mf.name} is not an inner automorphism"
        except MapError as exc:  # the composite collapses an edge
            return f"{against.name} . {mf.name}: {exc}"
    return None


def _cmd_illegality(mf: MapFile, args, data: dict) -> int:
    against = parse_map_path(args.against)
    data["against"] = against.name
    data["assumptions_against"] = list(against.assertions)
    use_dual = mf.asserts_inverse_of() is not None
    if use_dual and (error := _inverse_error(mf, against)):
        data["error"] = error
        return VIOLATION
    prof = illegality_between(against.map, mf.map, args.window, dual=use_dual)
    data["language"] = "dual" if use_dual else "leaf"
    data["window"] = args.window
    data["words"] = prof.words
    data["max_run"] = prof.max_run
    data["histogram"] = [list(h) for h in prof.histogram]
    data["c_illegal"] = prof.c_illegal
    data["all_below"] = prof.all_below
    return OK


def _cmd_contract(mf: MapFile, args, data: dict) -> int:
    f = mf.map
    g = f.graph
    word = g.parse_path(args.word)
    rep = ilt_contraction(f, word, steps=args.steps, chop=args.chop)
    data["word"] = g.path_str(word)
    data["series"] = list(rep.series)
    data["chop"] = rep.chop
    data["block"] = rep.block
    data["reached_le_one"] = rep.reached_le_one
    data["step_reached"] = rep.step_reached
    return OK


@functools.cache
def _parsers() -> tuple[_CliParser, dict[str, _CliParser]]:
    """The top-level parser and its subparsers by name, built once per
    process; parsing keeps no state."""
    p = _CliParser(prog="ttlam", description="Train track map analysis")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, handler):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("mapfile", help="path to a .tt map file")
        sp.add_argument("--json", action="store_true", help="canonical JSON output")
        sp.set_defaults(handler=handler)
        return sp

    add("check", "validate graph, expansion, train track, gates, primitivity", _cmd_check)
    add("gates", "gate partition, periodic vertices, eigen darts", _cmd_gates)
    add("turns", "legal/used table over all turns", _cmd_turns)
    sp = add("pf", "dominant eigenvalue and edge lengths", _cmd_pf)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp = add("inps", "detect periodic indivisible Nielsen paths", _cmd_inps)
    sp.add_argument("--max-period", type=int, default=6)
    sp.add_argument("--max-pf-len", type=float, default=None)
    sp = add("eigenrays", "prefixes of the invariant rays", _cmd_eigenrays)
    sp.add_argument("--length", type=int, default=32)
    sp = add("bfh", "leaf language of iterated edge images", _cmd_bfh)
    sp.add_argument("--window", type=int, required=True)
    sp = add("singular", "singular leaves beyond the leaf language", _cmd_singular)
    sp.add_argument("--window", type=int, default=16)
    sp = add("dual", "dual lamination language (inverse-direction map)", _cmd_dual)
    sp.add_argument("--window", type=int, required=True)
    sp.add_argument("--assume-inverse", action="store_true")
    sp = add("illegality", "legal-run profile of one map's language in another's gates", _cmd_illegality)
    sp.add_argument("--against", required=True, help="reference map file")
    sp.add_argument("--window", type=int, required=True)
    sp = add("contract", "chopped illegal-turn series under iteration", _cmd_contract)
    sp.add_argument("--word", required=True, help="path literal, e.g. 'a b~ c'")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--chop", type=int, default=None)
    return p, sub.choices


def run_command(argv: list[str]) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit code, report text).  The
    subparser that argv[0] names parses the rest, as the top-level parser
    would hand it over; only an argv that names none (empty, `-h`, a typo)
    goes to the top-level parser, which words its help or error."""
    try:
        top, subparsers = _parsers()
        sub = subparsers.get(argv[0]) if argv else None
        args = sub.parse_args(argv[1:]) if sub else top.parse_args(argv)
        mf = parse_map_path(args.mapfile)
        data = _envelope(argv[0] if sub else args.command, mf)
        return args.handler(mf, args, data), _emit(data, args.json)
    except (TtError, OSError) as exc:  # an unreadable file is bad input
        kind = getattr(exc, "kind", "input")
        payload = {"schema": 1, "error": str(exc), "kind": kind}
        return _EXIT_OF_KIND[kind], _emit(payload, "--json" in argv)


def main() -> None:
    code, text = run_command(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
