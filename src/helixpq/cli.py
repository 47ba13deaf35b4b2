"""Command-line interface.

Subcommands:
    gen        generate a PSL(2,q)/PGL(2,q) character table
    validate   structural + numerical checks on a table
    solve      enumerate partial-augmentation chains of one unit order
    verify     re-check a chain file against a table
    pq         screen all missing prime-graph edges

Tables come from one source given as ``--table``:
    gen:psl2:Q / gen:pgl2:Q   generated on the fly
    embedded:NAME             a dataset shipped with the package
    file:PATH (or PATH)       a JSON table file

Exit codes: 0 success (including a decided "undecided with finitely
many chains" outcome), 1 usage/data/verification error, 2 a requested
enumeration ended capped or infinite, so no decision was reached.
The environment variable HELIX_PQ_CAP sets the default enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import chartab, datasets, engine, pq as pqmod, psl2
from .chartab import TableError

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 here, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_table(source: str) -> chartab.CharacterTable:
    if source.startswith("gen:"):
        try:
            _, family, q = source.split(":")
            q = int(q)
        except ValueError:
            raise TableError(f"bad generated-table source {source!r} "
                             f"(want gen:psl2:Q or gen:pgl2:Q)") from None
        return psl2.gen_table(family, q)
    if source.startswith("embedded:"):
        return datasets.load_embedded(source.split(":", 1)[1])
    path = source.split(":", 1)[1] if source.startswith("file:") else source
    with open(path) as fh:
        return chartab.parse_table(fh.read())


def _select_chars(table, selector: str | None):
    """Comma list of names; 'all'; 'deg=N' picks every character of that degree."""
    if selector is None or selector == "all":
        return list(table.characters)
    out = []
    for token in selector.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("deg="):
            try:
                degree = int(token[4:])
            except ValueError:
                raise TableError(f"bad character selector {token!r} (want deg=N)") from None
            hits = [c for c in table.characters if c.degree == degree]
            if not hits:
                raise TableError(f"no character of degree {degree}")
            out.extend(hits)
        else:
            out.append(table.character_by_name(token))
    seen, uniq = set(), []
    for c in out:
        if id(c) not in seen:
            seen.add(id(c))
            uniq.append(c)
    return uniq


def _default_cap(args) -> int | None:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("HELIX_PQ_CAP")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"HELIX_PQ_CAP must be an integer, got {env!r}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _chain_lines(chain) -> list[str]:
    return [
        f"    {m}: " + ", ".join(f"{c}={v}" for c, v in sorted(ch.items()) if v)
        for m, ch in ((m, chain.entries[m]) for m in chain.levels())
    ]


def _cmd_gen(args) -> int:
    table = psl2.gen_table(args.family, args.q, include_brauer3=args.brauer3)
    _emit(json.dumps(chartab.render_table(table), indent=1), args.out)
    return 0


def _cmd_validate(args) -> int:
    table = _load_table(args.table)
    report = chartab.validate(table)
    lines = [f"table: {table.group_name} ({table.completeness}, "
             f"{len(table.classes)} classes, {len(table.characters)} characters)"]
    lines += [f"  ran: {name}" for name in report.checks_run]
    lines += [f"  PROBLEM: {p}" for p in report.problems]
    lines.append("result: " + ("ok" if report.ok else "INVALID"))
    _emit("\n".join(lines), args.out)
    return 0 if report.ok else 1


def _solution_payload(sol, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "group_name": sol.table_name,
                "unit_order": sol.unit_order,
                "status": sol.status,
                "count": len(sol.chains),
                "strategy": sol.strategy,
                "congruence_modes": list(sol.congruence_modes),
                "characters": list(sol.character_names),
                "detail": sol.detail,
                "chains": [chartab.render_chain(c) for c in sol.chains],
            },
            indent=1, sort_keys=True,
        )
    lines = [
        f"group: {sol.table_name}",
        f"unit order: {sol.unit_order}",
        f"characters: {', '.join(sol.character_names)}",
        f"strategy: {sol.strategy}"
        + (f" (congruences: {', '.join(sol.congruence_modes)})"
           if sol.congruence_modes else ""),
        f"status: {sol.status}",
        f"count: {len(sol.chains)}",
    ]
    if sol.detail:
        lines.append(f"note: {sol.detail}")
    for i, chain in enumerate(sol.chains, 1):
        lines.append(f"  chain {i} ({engine.classify_chain(chain)}):")
        lines += _chain_lines(chain)
    return "\n".join(lines)


def _cmd_solve(args) -> int:
    table = _load_table(args.table)
    chars = _select_chars(table, args.chars)
    cap = _default_cap(args)
    if args.s_constant is not None:
        s = args.s_constant
        if s < 1:
            raise TableError(f"--s-constant {s} is not a positive integer")
        if args.order % s:
            raise TableError(f"--s-constant {s} does not divide order {args.order}")
        t = args.order // s
        sol = engine.solve_s_constant(table, chars, s, t, cap=cap)
    else:
        sol = engine.solve_order(table, chars, args.order, cap=cap)
    _emit(_solution_payload(sol, args.format), args.out)
    return 0 if sol.status == "finite" else 2


def _load_chains(path: str) -> list:
    """A chain file holds either one chain or a solver output with "chains"."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TableError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(obj, dict) and "chains" in obj:
        if not isinstance(obj["chains"], list):
            raise TableError(f"{path}: chains must be an array, "
                             f"got {type(obj['chains']).__name__}")
        chains = [chartab.parse_chain(c) for c in obj["chains"]]
        if not chains:
            raise TableError(f"{path} contains an empty chain list")
        return chains
    return [chartab.parse_chain(obj)]


def _cmd_verify(args) -> int:
    table = _load_table(args.table)
    chars = _select_chars(table, args.chars)
    chains = _load_chains(args.chain)
    lines = []
    all_ok = True
    for chain in chains:
        if args.order is not None and args.order != chain.unit_order:
            raise TableError(
                f"--order {args.order} does not match the chain's unit order "
                f"{chain.unit_order}"
            )
        report = engine.verify_chain(table, chars, chain)
        all_ok = all_ok and report.ok
        lines += [f"chain of unit order {chain.unit_order} vs {table.group_name}: "
                  + ("satisfied" if report.ok else "VIOLATED"),
                  f"rows checked: {report.rows_checked}"]
        lines += [f"  level {m}: {what}" for m, what in report.failures]
    _emit("\n".join(lines), args.out)
    return 0 if all_ok else 1


def _parse_pair(chunk: str) -> tuple[int, int]:
    """One `--pairs` chunk: exactly two comma-separated integers."""
    try:
        p, q = (int(x) for x in chunk.split(","))
    except ValueError:
        raise pqmod.PQError(
            f"--pairs chunk {chunk!r} is not two comma-separated integers"
        ) from None
    return p, q


def _cmd_pq(args) -> int:
    table = _load_table(args.table)
    pairs = None
    if args.pairs is not None:
        pairs = [_parse_pair(chunk) for chunk in args.pairs.split(";") if chunk.strip()]
    report = pqmod.pq_check(
        table, _select_chars(table, args.chars),
        cap=_default_cap(args), pairs=pairs,
        assume_coverage=args.assume_coverage,
    )
    if args.format == "json":
        _emit(json.dumps(pqmod.report_to_dict(report), indent=1, sort_keys=True),
              args.out)
    else:
        _emit(pqmod.format_report(report), args.out)
    bad = [r for r in report.pairs if r.outcome == "error"]
    if bad:
        return 1
    undecidable = [r for r in report.pairs if r.status in ("infinite", "capped")]
    return 2 if undecidable else 0


def main(argv=None) -> int:
    parser = _Parser(prog="helixpq", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a PSL(2,q)/PGL(2,q) table")
    p_gen.add_argument("--family", required=True, choices=("psl2", "pgl2"))
    p_gen.add_argument("--q", required=True, type=int)
    p_gen.add_argument("--brauer3", action="store_true",
                       help="append the 3-dimensional defining-characteristic "
                            "Brauer character where defined")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=_cmd_gen)

    p_val = sub.add_parser("validate", help="check a table")
    p_val.add_argument("--table", required=True)
    p_val.add_argument("--out")
    p_val.set_defaults(func=_cmd_validate)

    p_sol = sub.add_parser("solve", help="enumerate chains of one unit order")
    p_sol.add_argument("--table", required=True)
    p_sol.add_argument("--order", required=True, type=int)
    p_sol.add_argument("--chars", help="comma list of names, deg=N selectors, or 'all'")
    p_sol.add_argument("--s-constant", dest="s_constant", type=int, metavar="S",
                       help="aggregate the order-S classes (requires S*T = order, "
                            "characters constant on them)")
    p_sol.add_argument("--cap", type=int)
    p_sol.add_argument("--format", choices=("text", "json"), default="text")
    p_sol.add_argument("--out")
    p_sol.set_defaults(func=_cmd_solve)

    p_ver = sub.add_parser("verify", help="re-check a chain file")
    p_ver.add_argument("--table", required=True)
    p_ver.add_argument("--chain", required=True, help="path to a chain JSON file")
    p_ver.add_argument("--order", type=int, help="expected unit order (cross-check)")
    p_ver.add_argument("--chars", help="character selection (default all)")
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=_cmd_verify)

    p_pq = sub.add_parser("pq", help="screen missing prime-graph edges")
    p_pq.add_argument("--table", required=True)
    p_pq.add_argument("--chars", help="character selection (default all)")
    p_pq.add_argument("--pairs", help="restrict to pairs, e.g. '2,3;3,11'")
    p_pq.add_argument("--cap", type=int)
    p_pq.add_argument("--assume-coverage", action="store_true",
                      help="accept a partial table, asserting its class list "
                           "covers the element orders of the requested pairs")
    p_pq.add_argument("--format", choices=("text", "json"), default="text")
    p_pq.add_argument("--out")
    p_pq.set_defaults(func=_cmd_pq)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"helixpq: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
