"""Test helper for `helixpq.engine`: the trace-block oracle, which sums the
value's terms once for each k, so that `_trace_block`, which adds one
sliced root-trace table per term, can be tested against it."""

from helixpq.cyclo import root_trace_table, terms_at_level


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


def dict_chains(n, solved, cap):
    """The chains of a solve of order n built as per-chain dicts, the way
    the solve built them before chains were packed.  `solved` lists each
    system the solve enumerated as (its fixed levels, None for a joint
    system; its variables; its points).  A chain is a copy of each fixed
    level, in the fixed levels' order, then one dict per level of the
    variables, named "<level>:<class>" in a joint system, in variable
    order.  The chains are sorted by level and class name and cut at cap,
    as the solve orders and cuts them."""
    chains = []
    for fixed, variables, points in solved:
        if fixed is None:
            slots = [(int(lvl), cname) for lvl, _, cname in
                     (v.partition(":") for v in variables)]
        else:
            slots = [(n, v) for v in variables]
        for pt in points:
            entries = {m: dict(ent) for m, ent in (fixed or {}).items()}
            for (m, cname), x in zip(slots, pt):
                entries.setdefault(m, {})[cname] = x
            chains.append(entries)
    chains.sort(key=lambda e: [(m, sorted(e[m].items())) for m in sorted(e)])
    return chains[:cap]
