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
