"""Test helpers for `helixpq.engine`: the trace-block oracle, which sums
the value's terms once for each k, so that `_trace_block`, which adds one
sliced root-trace table per term, can be tested against it; the recursive
solve route, which solves every proper power on its own and one flat
system per combination of their chains, so that the one joint system of
`solve_order`, and the collapsed one of `solve_s_constant`, can be tested
against it; and the per-level check, one flat system per level of a
chain, so that `verify_chain`, one joint system per chain, can be tested
against it.

Run as a script, it checks the two solve routes against each other on the
missing prime-graph edges of PSL(2,q) and PGL(2,q), and every chain they
emit against both checks:

    PYTHONPATH=src python tests/engine_oracle.py
"""

import itertools
import math
import sys

from helixpq import pq
from helixpq.chartab import (
    AGGREGATE_PREFIX,
    PAChain,
    check_chain_shape,
    render_chain,
)
from helixpq.cyclo import divisors, prime_divisors, root_trace_table, terms_at_level
from helixpq.engine import SolutionSet, VerifyReport, build_system, verify_chain
from helixpq.lattice import DEFAULT_CAP
from helixpq.pq import pq_check, prime_graph
from helixpq.psl2 import gen_table


def trace_block(value, level):
    """Tr(value * zeta_level^-k) for k = 0..level-1, each k its own sum
    over the value's terms at this level; None when a term is not
    integral."""
    terms = terms_at_level(value, level)
    if any(c.denominator != 1 for _, c in terms):
        return None
    tab = root_trace_table(level)
    return tuple(
        sum(c * tab[(e - k) % level] for e, c in terms) for k in range(level)
    )


def dict_chains(solved, cap):
    """The chains of a solve built as per-chain dicts, the way the solve
    built them before chains were packed.  `solved` lists each joint
    system the solve enumerated as (its variables, named "<level>:<class>";
    its points).  A chain is one dict per level of the variables, in
    variable order.  The chains are sorted by level and class name and
    cut at cap, as the solve orders and cuts them."""
    chains = []
    for variables, points in solved:
        slots = [(int(lvl), cname) for lvl, _, cname in
                 (v.partition(":") for v in variables)]
        for pt in points:
            entries = {}
            for (m, cname), x in zip(slots, pt):
                entries.setdefault(m, {})[cname] = x
            chains.append(entries)
    chains.sort(key=lambda e: [(m, sorted(e[m].items())) for m in sorted(e)])
    return chains[:cap]


def chain_key(chain):
    """The reference order of a solve's chains: by level, then by the
    entries in class-name order."""
    return tuple((m, tuple(sorted(chain.entry(m).items()))) for m in chain.levels())


def recursive_solve(table, characters, order, *, cap=None, collapse=None,
                    store=None, max_combos=None):
    """The recursive route to the chains of one unit order, the reference
    for `solve_order` (and, given `collapse`, for `solve_s_constant`).

    Every proper power u^p is solved on its own first, uncapped and
    memoized in `store` by order; the first sub-order whose set is not
    finite decides the result.  Each compatible combination of sub-chains
    (one per power, agreeing on the levels they share) fixes the lower
    levels of one flat `build_system`, and its points complete the
    chains.  With `collapse=s` the order-s power is not solved but fixed
    to "~s": 1, and the order-s classes are aggregated.  The chains are
    built as dicts, sorted by `chain_key` and cut at `cap`; the result is
    `capped` when a system was capped or the chains passed the cap.  The
    route costs one system per combination, so with `max_combos` an order
    of more combinations than that is not solved: the result is None."""
    chars = [table.character_by_name(c) if isinstance(c, str) else c
             for c in characters]
    names = tuple(ch.name for ch in chars)
    n = order
    cap = DEFAULT_CAP if cap is None else cap
    store = {} if store is None else store
    subs = []
    for m in sorted({n // p for p in prime_divisors(n)} - {1}):
        if collapse is not None and m == collapse:
            agg = f"{AGGREGATE_PREFIX}{collapse}"
            subs.append([PAChain(m, {m: {agg: 1}})])
            continue
        if m not in store:
            store[m] = recursive_solve(table, chars, m, store=store,
                                       max_combos=max_combos)
        sub = store[m]
        if sub is None:
            return None
        if sub.status != "finite":
            return SolutionSet(table.group_name, n, sub.status, (), names,
                               strategy="recursive", ray=sub.ray)
        subs.append(sub.chains)
    if max_combos is not None and math.prod(map(len, subs)) > max_combos:
        return None

    chains, status = [], "finite"
    for combo in itertools.product(*subs):
        fixed = _merge(combo)
        if fixed is None:
            continue
        system = build_system(table, chars, n, fixed, collapse_order=collapse)
        res = system.solve(cap=cap)
        if res.status == "infinite":
            ray = {v: r for v, r in zip(system.variables, res.ray) if r}
            return SolutionSet(table.group_name, n, "infinite", (), names,
                               strategy="recursive", ray=ray)
        for pt in res.points:
            entries = {m: dict(ent) for m, ent in fixed.items()}
            entries[n] = dict(zip(system.variables, pt))
            chains.append(PAChain(n, entries))
        if res.status == "capped" or len(chains) > cap:
            status = "capped"
            break
    chains.sort(key=chain_key)
    return SolutionSet(table.group_name, n, status, tuple(chains[:cap]), names,
                       strategy="recursive")


def _merge(combo):
    """The levels of the chains of one combination, or None when two
    chains differ on a level they share."""
    fixed = {}
    for chain in combo:
        for m in chain.levels():
            if fixed.setdefault(m, dict(chain.entry(m))) != chain.entry(m):
                return None
    return fixed


def flat_verify(table, characters, chain):
    """The per-level check of a chain, the reference for `verify_chain`.

    Each level m is one flat `build_system` with the chain's lower levels
    fixed, built with `collapse_order=s` when the chain aggregates the
    order-s classes and s divides m, and the level's nonzero entries are
    checked against it.  Failures come level by level, each row's
    provenance untagged; `rows_checked` sums the rows of every level's
    system, deduplicated within each level only."""
    aggregated = sorted(check_chain_shape(table, chain))
    failures, checked = [], 0
    for m in chain.levels():
        powers = {d: chain.entry(d) for d in divisors(m) if 1 < d < m}
        system = build_system(
            table, characters, m, powers,
            collapse_order=next((s for s in aggregated if m % s == 0), None),
        )
        entry = {k: v for k, v in chain.entry(m).items() if v}
        checked += len(system.rows)
        failures += [(m, fail) for fail in system.check_point(entry)]
    return VerifyReport(ok=not failures, rows_checked=checked, failures=failures)


def compare_solves(table, characters, got, want):
    """Differences between a solve `got` and the reference `want`: the
    status, and for a finite pair the chains in order; and every chain of
    `got` that fails `verify_chain` or `flat_verify`.  A capped set
    depends on the search order, so only its status is compared."""
    problems = []
    where = f"{table.group_name} order {got.unit_order}"
    if got.status != want.status:
        problems.append(f"{where}: status {got.status}, reference {want.status}")
    elif got.status == "finite" and got.chains != want.chains:
        problems.append(f"{where}: {len(got.chains)} chains, reference "
                        f"{len(want.chains)}, or another order")
    for chain in got.chains:
        for check in (verify_chain, flat_verify):
            if not check(table, characters, chain).ok:
                problems.append(f"{where}: chain {render_chain(chain)} fails "
                                f"{check.__name__}")
    return problems


def screen_differential(table, cap=None, max_combos=None):
    """`pq_check(table, cap=cap)` run twice, once as it solves and once
    with `recursive_solve` in place of `solve_order` and, with `collapse`,
    of `solve_s_constant`, and their differences: (problems, skipped), two
    lists of strings, both empty when the routes agree on every pair.
    Each pair's verdict fields and each solve are compared
    (`compare_solves`); a capped pair's count, nontrivial count and sample
    depend on the search order, so of those only the outcome and status
    are.  An order of more than `max_combos` combinations is not compared:
    the second run takes the solve's own route, and `skipped` names it."""
    runs, skipped = {}, []
    real_order, real_collapse = pq.solve_order, pq.solve_s_constant

    def solve(table, chars, order, collapse, cap):
        if collapse is None:
            return real_order(table, chars, order, cap=cap)
        return real_collapse(table, chars, collapse, order // collapse, cap=cap)

    def reference(table, chars, order, collapse, cap):
        sol = recursive_solve(table, chars, order, cap=cap, collapse=collapse,
                              max_combos=max_combos)
        if sol is None:
            skipped.append(f"{table.group_name} order {order}: more than "
                           f"{max_combos} combinations")
            sol = solve(table, chars, order, collapse, cap)
        return sol

    for route, route_solve in (("joint", solve), ("recursive", reference)):
        solved = []

        def record(table, chars, order, collapse, cap, route_solve=route_solve,
                   solved=solved):
            sol = route_solve(table, chars, order, collapse, cap)
            solved.append((chars, sol))
            return sol

        pq.solve_order = (lambda table, chars, order, *, cap=None, record=record:
                          record(table, chars, order, None, cap))
        pq.solve_s_constant = (lambda table, chars, s, t, *, cap=None, record=record:
                               record(table, chars, s * t, s, cap))
        try:
            runs[route] = (pq_check(table, cap=cap), solved)
        finally:
            pq.solve_order, pq.solve_s_constant = real_order, real_collapse
    (got, got_solved), (want, want_solved) = runs["joint"], runs["recursive"]

    def verdict(r):
        fields = (r.p, r.q, r.outcome, r.status, r.character_names)
        if r.status == "capped":
            return fields
        return fields + (r.count, r.nontrivial, r.sample)

    problems = []
    if got.verdict != want.verdict:
        problems.append(f"{table.group_name}: verdict {got.verdict}, "
                        f"reference {want.verdict}")
    for r, ref in zip(got.pairs, want.pairs):
        if verdict(r) != verdict(ref):
            problems.append(f"{table.group_name} {{{r.p},{r.q}}}: {verdict(r)}, "
                            f"reference {verdict(ref)}")
    for (chars, sol), (_, ref) in zip(got_solved, want_solved):
        problems += compare_solves(table, chars, sol, ref)
    return problems, skipped


def sweep_qs(top):
    """The prime powers q with 7 <= q <= top."""
    return [q for q in range(7, top + 1) if len(prime_divisors(q)) == 1]


# The script's sweep: every prime power q <= Q, at cap 2000.  The recursive
# route costs one flat system per combination of power chains, and six
# orders of the sweep have more than MAX_COMBOS of them (PSL(2,43) order 77
# alone has 1,859,550), which would take it hours; those orders are listed
# and not compared.
Q = 49
MAX_COMBOS = 10000


def main():
    """Run `screen_differential` on PSL(2,q) and PGL(2,q) for every prime
    power 7 <= q <= Q; exit 1 when the routes differ."""
    problems, skipped, tables, edges = [], [], 0, 0
    for q in sweep_qs(Q):
        for family in ("psl2", "pgl2"):
            table = gen_table(family, q)
            found, passed = screen_differential(table, 2000, MAX_COMBOS)
            problems += found
            skipped += passed
            tables += 1
            edges += len(prime_graph(table).non_edges())
    for line in skipped:
        print(f"not compared: {line}")
    for line in problems:
        print(line)
    print(f"{tables} tables, {edges} missing edges, {len(skipped)} orders not "
          f"compared: {f'{len(problems)} differences' if problems else 'the routes agree'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
