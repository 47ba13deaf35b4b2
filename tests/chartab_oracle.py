"""Test helpers for `helixpq.chartab`: references that do the per-entry
work that `validate` and `parse_table` share across equal values.

* `orthogonality` computes the inner product of every pair, where
  `validate` computes one pair per Galois orbit;
* `power_map_galois` checks each stored power map character by
  character, where `validate` compares columns of value ids;
* `parse_table_by_value` parses every value on its own with `parse_cyc`,
  where `parse_table` checks and canonicalises each distinct raw value
  once per call.
"""

import copy
import math

from helixpq import chartab
from helixpq.chartab import TableError, _pair_sum, parse_table
from helixpq.cyclo import galois_apply, parse_cyc


def orthogonality(vectors, weights, diagonal, label) -> str:
    """The detail of the first pair i <= j of vectors whose weighted inner
    product is not diagonal[i] (i == j) or 0 (i < j), headed by
    label(i, j); empty when every pair holds."""
    for i, u in enumerate(vectors):
        for j in range(i, len(vectors)):
            got = _pair_sum(zip(u, vectors[j], weights))
            want = diagonal[i] if i == j else 0
            if got != want:
                return f"{label(i, j)}{got!r}, expected {want}"
    return ""


def power_map_galois(table):
    """The `power-map-galois[...]` checks of `validate` and their problems,
    (checks, problems), from one loop over the ordinary characters per
    stored power map, each value twisted where it stands."""
    checks, problems = [], []
    for c in table.classes:
        for p, target in sorted(c.power_maps.items()):
            if c.element_order % p == 0 or c.element_order == 1:
                continue
            detail = None
            for ch in table.characters:
                if ch.characteristic and ch.characteristic != 0:
                    continue
                v, w = ch.values.get(c.name), ch.values.get(target)
                if v is None or w is None:
                    continue
                if math.gcd(p, v.conductor) != 1:
                    # no Galois twist by p exists in Q(zeta_conductor)
                    detail = (f"{ch.name} at {c.name} has conductor "
                              f"{v.conductor}, not coprime to {p}")
                    break
                if galois_apply(v, p) != w:
                    detail = f"ordinary values at {target} are not the {p}-th Galois twist"
                    break
            name = f"power-map-galois[{c.name}^{p}]"
            checks.append(name)
            if detail is not None:
                problems.append(f"{name}: {detail}")
    return checks, problems


def parse_table_by_value(data) -> chartab.CharacterTable:
    """`parse_table(data)` for table data whose only faults lie in its
    values: the rest is parsed by `parse_table` with every value left
    out, and each value by `parse_cyc` where it stands, sharing nothing
    with any other.  A bad value raises the TableError that names it."""
    shell = copy.deepcopy(data)
    for obj in shell["characters"]:
        obj["values"] = {}
    table = parse_table(shell)
    for obj, ch in zip(data["characters"], table.characters):
        for cname, raw in obj["values"].items():
            try:
                ch.values[str(cname)] = parse_cyc(raw)
            except (TypeError, ValueError) as exc:
                raise TableError(
                    f"character {ch.name!r}: bad value on class {cname!r}: {exc}"
                ) from exc
    chartab._structural_check(table)
    return table
