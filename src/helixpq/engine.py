"""Constraint systems for torsion units of a prescribed order.

A normalized torsion unit u of order n in an integral group ring has a
partial augmentation eps_C(u^d) at every conjugacy class C and every
divisor d of n, and classical vanishing results leave only the classes
whose element order divides n in play.  Every character chi then pins
the data down through eigenvalue multiplicities: writing D for the
degree, the quantity

    n * mult_k(chi, u)  =  sum_{d | n}  Tr( chi(u^d) * zeta_{n/d}^{-k} )

must, for each k mod n, be a nonnegative multiple of n.  Each trace is
taken from the full cyclotomic field at level n/d (the level matters:
only then do the n quantities sum to n*D).  The d = n term is the
degree; terms with 1 < d < n are integers once the partial
augmentations of the proper powers u^d are fixed; the d = 1 term is an
integer linear form in the unknown top-level partial augmentations.
So each (chi, k) yields one linear inequality and one congruence mod n
with integer coefficients, and the unit's augmentation itself
contributes the equality sum(eps) = 1.

On top of the multiplicity rows sit prime-power congruences: for every
prime p | n and every class C,

    sum_{K : K^p = C} eps_K(u)  ==  eps_C(u^p)   (mod p).

They hold for every torsion unit, so every system carries them.

When the table carries enough power-map data to resolve K -> K^p for
every class in the support, the congruence is emitted per class
("class" mode).  Otherwise the rows are first summed over all classes
of a fixed element order, which eliminates the power maps entirely
("order" mode): for o dividing n/p,

    eps~_{p*o}(u) + [p does not divide o] * eps~_o(u)
        ==  eps~_o(u^p)   (mod p),

where eps~_o is the sum of the partial augmentations over the classes
of element order exactly o.

One generator builds every system.  The joint system
(`build_chain_system`) has unknowns at every level m > 1 dividing n and
the rows of every level; the trace term of u^d enters as an integer
block on the level-(n/d) unknowns, the correlation of the value's
coefficients with the traces of the roots of unity of that level.  The
flat system of order n (`build_system`) is the joint system's top level
with the lower levels fixed: the same blocks, weighted by the fixed
partial augmentations, fold into the constants.  Character values are
algebraic integers, so every block is integral and rows are built in
integer arithmetic.  A block depends only on the value and the level, so
it is computed once per (value, level) in a functools cache shared by
every build, as the sum of one root-trace table per term of the value,
each read backwards from the term's exponent and scaled by its
coefficient.  Each level's rows are read off the blocks column by column.
`_build` deduplicates them as it goes (unless deduplication is off): one
dict pass per (level, character) keeps the first k of each distinct
(coeffs, const), and of those a row is only built when its (kind,
coeffs, const, modulus) has not been seen before in the same system.

Systems are solved by exact integer enumeration (`lattice`).  An order
is solved as one joint system over u and all its proper powers, so the
rows of every level bound the unknowns of every level at once, and no
proper power is solved on its own.  For orders s*t with a large prime s
one can instead collapse all order-s classes into a single aggregated
unknown, which is sound whenever every character in use is constant on
the order-s classes: the joint system then has one unknown "~s" at each
level that s divides.  `verify_chain` checks a chain as one point of the
joint system it was solved in.

`solve_order` and `solve_s_constant` run with the cyclic garbage
collector paused, and restore it; a solve makes no reference cycle.
"""

from __future__ import annotations

import gc
import itertools
import re
from contextlib import contextmanager
from functools import lru_cache, partial
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .chartab import (
    AGGREGATE_PREFIX,
    Character,
    CharacterTable,
    PAChain,
    check_chain_shape,
)
from .cyclo import (as_integer, divisors, key_integer, prime_divisors, root_trace_table,
                    terms_at_level)
from .lattice import (
    DEFAULT_CAP,
    EnumerationResult,
    Polyhedron,
    enumerate_integer_points,
)

__all__ = [
    "EngineError",
    "Row",
    "ConstraintSystem",
    "SolutionSet",
    "VerifyReport",
    "build_system",
    "build_chain_system",
    "solve_order",
    "solve_s_constant",
    "verify_chain",
    "classify_chain",
]

class EngineError(ValueError):
    pass


class Row(NamedTuple):
    """One integer constraint: coeffs . x + const  (>= 0 | == 0 | == 0 mod modulus)."""

    coeffs: tuple[int, ...]
    const: int
    kind: str  # "ge" | "eq" | "cong"
    modulus: Optional[int]
    provenance: str


class ConstraintSystem(NamedTuple):
    table_name: str
    unit_order: int
    variables: tuple[str, ...]
    rows: list[Row]
    character_names: tuple[str, ...]
    congruence_mode: Mapping[int, str] = MappingProxyType({})

    def polyhedron(self) -> Polyhedron:
        ineqs, eqs, congs = [], [], []
        for r in self.rows:
            if r.kind == "ge":
                ineqs.append((r.coeffs, r.const))
            elif r.kind == "eq":
                eqs.append((r.coeffs, r.const))
            elif r.kind == "cong":
                congs.append((r.coeffs, r.const, r.modulus))
            else:  # pragma: no cover - Row construction is internal
                raise EngineError(f"unknown row kind {r.kind!r}")
        return Polyhedron(
            dim=len(self.variables), ineqs=ineqs, eqs=eqs, congruences=congs
        )

    def solve(self, cap: Optional[int] = None) -> EnumerationResult:
        return enumerate_integer_points(self.polyhedron(), cap=cap)

    def check_point(self, values: Mapping[str, int]) -> list[str]:
        """Provenance strings of every row the given assignment violates."""
        unknown = set(values) - set(self.variables)
        if unknown:
            raise EngineError(
                f"assignment mentions unknown variables {sorted(unknown)}"
            )
        x = [as_integer(values.get(v, 0), f"value of {v!r}", EngineError)
             for v in self.variables]
        bad = []
        for r in self.rows:
            val = sum(map(mul, r.coeffs, x)) + r.const
            if r.kind == "ge":
                ok = val >= 0
            elif r.kind == "eq":
                ok = val == 0
            else:
                ok = val % r.modulus == 0
            if not ok:
                bad.append(f"{r.provenance}: value {val}")
        return bad


def _unit_order(order) -> int:
    n = as_integer(order, "unit order", EngineError)
    if n < 2:
        raise EngineError(f"unit order must be at least 2, got {n}")
    return n


def _resolve_chars(
    table: CharacterTable, characters: Sequence[Union[str, Character]]
) -> list[Character]:
    out = []
    for c in characters:
        out.append(table.character_by_name(c) if isinstance(c, str) else c)
    return out


def _key_order(table: CharacterTable, key: str) -> int:
    if key.startswith(AGGREGATE_PREFIX):
        return key_integer(key[len(AGGREGATE_PREFIX):],
                           f"element order of aggregated key {key!r}", EngineError)
    return table.class_by_name(key).element_order


def _constant_value(table: CharacterTable, ch: Character, o: int):
    """The value of ch shared by every class of element order o; None when
    some such class has no value, two values differ or there is no class."""
    vals = {ch.values.get(c.name) for c in table.classes if c.element_order == o}
    return vals.pop() if len(vals) == 1 else None


def build_system(
    table: CharacterTable,
    characters: Sequence[Union[str, Character]],
    order: int,
    powers: Optional[Mapping[int, Mapping[str, int]]] = None,
    *,
    collapse_order: Optional[int] = None,
    dedupe: bool = True,
) -> ConstraintSystem:
    """Integer constraint system for the top-level partial augmentations:
    the multiplicity rows, the augmentation and the power congruences.
    Every solve and `verify_chain` build a joint system
    (`build_chain_system`); this flat one is the reference of the tests'
    recursive solve and per-level check, and perfbench's spans patch it.

    `powers` maps each order m of a proper power (1 < m < order, m | order)
    to that power's partial augmentations; all such m must be present.
    Entries may use an aggregated key "~s" for "total over the order-s
    classes" provided every character in use is constant on those classes.
    `collapse_order=s` replaces the order-s unknowns by one aggregated
    unknown named "~s" under the same constancy requirement.
    """
    return _build(
        table, characters, order, powers or {},
        collapse_order=collapse_order, dedupe=dedupe,
    )


def build_chain_system(
    table: CharacterTable,
    characters: Sequence[Union[str, Character]],
    order: int,
    *,
    collapse_order: Optional[int] = None,
    dedupe: bool = True,
) -> ConstraintSystem:
    """One system over the augmentations of u *and all its proper powers*.

    Variables are named "<level>:<class>" for every divisor level > 1 of
    the unit order.  Every constraint of every level is linear in these:
    the order-m/d power of u^(order/m) is u^(order/(m/d)), so the trace
    terms that `build_system` folds into constants become coefficient
    blocks on the lower-level variables.  Solving this in one sweep lets
    bounds flow across levels, which matters when some proper power is
    badly underdetermined on its own.  `collapse_order=s` replaces the
    order-s unknowns of every level by one aggregated unknown "<level>:~s",
    as in `build_system`.
    """
    return _build(table, characters, order, None,
                  collapse_order=collapse_order, dedupe=dedupe)


@lru_cache(maxsize=None)
def _trace_block(value, level):
    """Tr(value * zeta_level^-k) for k = 0..level-1, the cyclic correlation
    of the value's terms at this level with the traces of the level's roots
    of unity; None when a term is not integral.

    A term c * zeta^e contributes c * Tr(zeta^(e-k)) at k, which is c
    times the root-trace table read backwards from e, so the block is
    the elementwise sum of one scaled, sliced table per term."""
    terms = terms_at_level(value, level)
    if any(c.denominator != 1 for _, c in terms):
        return None
    tab = root_trace_table(level)
    block = [0] * level
    for e, c in terms:
        block = [b + c * t for b, t in zip(block, tab[e::-1] + tab[:e:-1])]
    return tuple(block)


def _fixed_levels(table, n, powers):
    """`powers` checked, in level order: every key a proper divisor m of
    the unit order n (1 < m < n), each present, and every entry an integer
    on a class, or an aggregated key "~s", whose element order divides m.
    A class the table lacks is left to fail where its value is read."""
    checked = {}
    for m, entry in powers.items():
        m = as_integer(m, "power level", EngineError)
        if not 1 < m < n or n % m:
            raise EngineError(
                f"power level {m} is not a proper divisor of the unit order {n}"
            )
        checked[m] = out = {}
        for key, eps in entry.items():
            out[key] = as_integer(
                eps, f"partial augmentation of {key!r} at power level {m}", EngineError)
            try:
                o = _key_order(table, key)
            except ValueError:  # no such class: reading its value says so
                continue
            if o < 1 or m % o:
                raise EngineError(
                    f"power level {m}: class {key!r} has element order {o}, "
                    f"which does not divide {m}"
                )
    levels = [m for m in divisors(n) if 1 < m < n]
    missing = [m for m in levels if m not in checked]
    if missing:
        raise EngineError(f"missing partial augmentations for power orders {missing}")
    return {m: checked[m] for m in levels}


def _build(table, characters, order, powers, *, collapse_order, dedupe):
    """The row generator behind `build_system` and `build_chain_system`.

    With `powers=None` (joint) every level m > 1 dividing the order has
    free columns "m:<class>" and its own rows, tagged "@m".  Otherwise
    `powers` fixes every lower level, only the top level has columns and
    rows, and the fixed levels enter the constants with the same integer
    blocks the joint system puts on their columns.

    The blocks come from `_trace_block`, cached per (value, level) across
    calls.  `block` checks a value on every call, naming this call's
    character and class: it must exist (on an aggregated key "~s", be
    constant on the order-s classes, which is worked out once per
    character and order in a call) and have integral terms, which
    `_trace_block` reports by returning None.  Each character's rows of a
    level are the transpose of its column blocks, repeated to the level's
    length, and its constants the degree plus each fixed block, tiled to
    that length and weighted by its partial augmentation.  A fixed entry
    of 0 adds no block, but its value must exist all the same.

    With `dedupe` the system keeps the first row of each (kind, coeffs,
    const, modulus), with its provenance, in generation order; without it
    every row is kept.  Most rows of a level repeat, so one dict pass per
    (level, character) first keeps the first k of each distinct (coeffs,
    const); only those are tested against the keys kept so far, and a
    row's provenance is only built when it is kept.
    """
    n = _unit_order(order)
    chars = _resolve_chars(table, characters)
    if not chars:
        raise EngineError("need at least one character")
    for ch in chars:
        if ch.characteristic and n % ch.characteristic == 0:
            raise EngineError(
                f"character {ch.name!r} has characteristic {ch.characteristic}, "
                f"which divides the unit order {n}"
            )
    joint = powers is None
    free_levels = [m for m in divisors(n) if m > 1] if joint else [n]
    support = {}
    for m in free_levels:
        support[m] = table.classes_of_order_dividing(m)
        if not support[m]:
            raise EngineError(
                f"table {table.group_name!r} has no classes of order dividing {m}"
            )
    fixed = {} if joint else _fixed_levels(table, n, powers)

    # -- columns: (level, class name or aggregated "~s") ----------------------
    agg = None
    if collapse_order is not None:
        s = as_integer(collapse_order, "collapse_order", EngineError)
        agg = f"{AGGREGATE_PREFIX}{s}"
        if not any(c.element_order == s for c in support[n]):
            raise EngineError(f"no classes of order {s} to collapse")
    columns = list(dict.fromkeys(
        (m, agg if agg is not None and c.element_order == s else c.name)
        for m in free_levels
        for c in support[m]
    ))

    constants = {}  # (id of a character, order s) -> its value on "~s"

    def value(ch, key):
        """ch's value on one column or fixed class; an aggregated key "~s"
        takes the value ch shares on the order-s classes."""
        if key.startswith(AGGREGATE_PREFIX):
            o = _key_order(table, key)
            if (id(ch), o) not in constants:
                constants[id(ch), o] = _constant_value(table, ch, o)
            val = constants[id(ch), o]
            missing = "is not constant on the classes of"
        else:
            val = ch.values.get(key)
            missing = "has no value on class"
        if val is None:
            raise EngineError(f"character {ch.name!r} {missing} {key!r}")
        return val

    def block(ch, level, key):
        """The trace block of ch's value on a key at a level it divides."""
        b = _trace_block(value(ch, key), level)
        if b is None:
            raise EngineError(
                f"character {ch.name!r} value on {key!r} has a non-integral "
                f"term; table data is corrupt"
            )
        return b

    rows: list[Row] = []
    # the (kind, coeffs, const, modulus) of every row kept; empty without
    # `dedupe`, so that every row is new
    seen: set[tuple] = set()

    # -- multiplicity and augmentation rows -----------------------------------
    for m in free_levels:
        tag = f"@{m}" if joint else ""
        zeros = (0,) * m
        for ch in chars:
            # column-major: each column's entries in the m rows of this level
            cols = [
                block(ch, l, key) * (m // l) if m % l == 0 else zeros
                for l, key in columns
            ]
            consts = [ch.degree] * m
            for l, entry in fixed.items():
                for key, eps in entry.items():
                    if eps:
                        fb = block(ch, l, key) * (m // l)
                        consts = [c + eps * b for c, b in zip(consts, fb)]
                    else:  # adds nothing, but its value must exist
                        value(ch, key)
            level_rows = list(zip(zip(*cols), consts))
            if dedupe:  # the first k of each distinct (coeffs, const)
                first = {}
                for k, row in enumerate(level_rows):
                    first.setdefault(row, k)
                ks = first.values()
            else:
                ks = range(m)
            for k in ks:
                coeffs, const = level_rows[k]
                ge, cong = ("ge", coeffs, const, None), ("cong", coeffs, const, m)
                new_ge, new_cong = ge not in seen, cong not in seen
                if not (new_ge or new_cong):
                    continue
                if dedupe:
                    seen.add(ge)
                    seen.add(cong)
                prov = f"{ch.name}:mult[{k}]{tag}"
                if new_ge:
                    rows.append(Row(coeffs, const, "ge", None, prov))
                if new_cong:
                    rows.append(Row(coeffs, const, "cong", m, f"{prov}%{m}"))
        # each level's augmentation has its own support: never a repeat
        aug = tuple(int(l == m) for l, _ in columns)
        rows.append(Row(aug, -1, "eq", None, f"augmentation{tag}"))

    # -- prime-power congruences ----------------------------------------------
    mode: dict[int, str] = {}
    for m in free_levels:
        for p in prime_divisors(m):
            prows, pmode = _power_rows(
                table, columns, m, p, fixed.get(m // p), f"@{m}" if joint else ""
            )
            for r in prows:
                key = (r.kind, r.coeffs, r.const, r.modulus)
                if key not in seen:
                    if dedupe:
                        seen.add(key)
                    rows.append(r)
            if mode.get(p) != "order":  # report the weakest level's mode
                mode[p] = pmode

    return ConstraintSystem(
        table_name=table.group_name,
        unit_order=n,
        variables=tuple(f"{m}:{key}" if joint else key for m, key in columns),
        rows=rows,
        character_names=tuple(ch.name for ch in chars),
        congruence_mode=mode,
    )


def _power_rows(table, columns, m, p, sub, tag):
    """Congruences of level m for the prime p.  Each row sums the level-m
    columns whose p-th powers land on one target and subtracts the
    level-m/p data on that target: columns with coefficient -1, or, when
    that level is fixed to `sub`, constants.  The targets are classes
    when every level-m column has a resolvable p-th power class ("class"
    mode), else element orders ("order" mode)."""
    l = m // p
    own = [key for lv, key in columns if lv == m]
    class_mode = not any(
        key.startswith(AGGREGATE_PREFIX) for key in own + list(sub or ())
    )
    if class_mode:
        image = {key: table.power_class(key, p) for key in own}
        class_mode = None not in image.values()
    # a target is a class name or an element order; `group` maps a
    # level-m/p key to its target, `image` a level-m key
    group = (lambda key: key) if class_mode else partial(_key_order, table)
    if class_mode:
        targets = [
            (c.name, c.name, c.element_order == 1)
            for c in table.classes_of_order_dividing(l, include_identity=True)
        ]
    else:
        targets = [(o, f"order[{o}]", o == 1) for o in divisors(l)]
        image = {
            key: group(key) // p if group(key) % p == 0 else group(key)
            for key in own
        }

    # each target's coefficients, bucketed in one pass over the columns,
    # and the sum of the fixed level-m/p data on it
    coeffs = {target: [0] * len(columns) for target, _, _ in targets}
    for i, (lv, key) in enumerate(columns):
        if lv == m:
            row, sign = coeffs.get(image[key]), 1
        elif lv == l:
            row, sign = coeffs.get(group(key)), -1
        else:
            continue
        if row is not None:
            row[i] += sign
    totals = {}
    for key, eps in (sub or {}).items():
        totals[group(key)] = totals.get(group(key), 0) + eps

    rows = []
    for target, label, unit in targets:
        if unit:
            const = -1 if l == 1 else 0
        else:
            const = -totals.get(target, 0)
        rows.append(
            Row(tuple(coeffs[target]), const, "cong", p, f"power[{p}]:{label}{tag}")
        )
    return rows, "class" if class_mode else "order"


# ---------------------------------------------------------------------------
# order solving


class SolutionSet(NamedTuple):
    table_name: str
    unit_order: int
    status: str  # "finite" | "infinite" | "capped"
    chains: tuple[PAChain, ...]
    character_names: tuple[str, ...]
    strategy: str = "joint"
    congruence_modes: tuple[str, ...] = ()
    detail: Optional[str] = None
    ray: Optional[dict[str, int]] = None


def _cap_or_default(cap: Optional[int]) -> int:
    """DEFAULT_CAP for None, else the cap, which must be nonnegative."""
    if cap is None:
        return DEFAULT_CAP
    cap = as_integer(cap, "cap", EngineError)
    if cap < 0:
        raise EngineError(f"cap must be nonnegative, got {cap}")
    return cap


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block when it is enabled,
    and enable it again on the way out, also on an exception; a collector
    that is already paused, by a caller or an enclosing solve, stays as it
    is.  A solve leaves no reference cycle, so the pause keeps nothing
    alive, and its chains are not walked by a full collection while they
    are built."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@_collector_paused()
def solve_order(
    table: CharacterTable,
    characters: Sequence[Union[str, Character]],
    order: int,
    *,
    cap: Optional[int] = None,
    store: Optional[dict] = None,
) -> SolutionSet:
    """All chains of partial augmentations for units of the given order,
    under the multiplicity rows and the power congruences of every level.

    The chains are the integer points of one joint system over u and all
    its proper powers (`build_chain_system`), enumerated exactly.  `store`
    memoizes finished solves by unit order: an order already in it returns
    the stored set, and a new solve stores its own order only.  Every
    solve that shares a store must use the same table, characters and cap.
    """
    n = _unit_order(order)
    cap = _cap_or_default(cap)
    chars = _resolve_chars(table, characters)
    if store is None:
        store = {}
    if n not in store:
        system = build_chain_system(table, chars, n)
        store[n] = _solve_system(system, cap=cap, strategy="joint")
    return store[n]


@_collector_paused()
def solve_s_constant(
    table: CharacterTable,
    characters: Sequence[Union[str, Character]],
    s: int,
    t: int,
    *,
    cap: Optional[int] = None,
) -> SolutionSet:
    """Chains for order s*t with the order-s classes aggregated into one unknown.

    Sound when every character in use is constant on the order-s classes
    and the table has no classes of order s*t: then no row can tell the
    order-s partial augmentations apart, so only their total matters.
    The chains are the integer points of one joint system over the levels
    s, t and s*t (`build_chain_system` with `collapse_order=s`), whose
    order-s classes are one unknown "~s" at the levels s and s*t,
    enumerated exactly as `solve_order` enumerates its system.
    """
    s, t = as_integer(s, "s", EngineError), as_integer(t, "t", EngineError)
    cap = _cap_or_default(cap)
    if s == t or tuple(prime_divisors(s)) != (s,) or tuple(prime_divisors(t)) != (t,):
        raise EngineError(f"need two distinct primes, got s={s}, t={t}")
    n = s * t
    chars = _resolve_chars(table, characters)
    if any(c.element_order == n for c in table.classes):
        raise EngineError(
            f"table {table.group_name!r} has classes of order {n}; the "
            f"aggregated strategy does not apply"
        )
    for o, label in ((s, "s"), (t, "t")):
        if not any(c.element_order == o for c in table.classes):
            raise EngineError(
                f"table {table.group_name!r} has no classes of order {o} ({label})"
            )

    system = build_chain_system(table, chars, n, collapse_order=s)
    return _solve_system(system, cap=cap, strategy=f"collapse[{s}]")


def _solve_system(system: ConstraintSystem, *, cap: int, strategy: str) -> SolutionSet:
    """The chains of the system's unit order: the points of one joint
    system, its variables named "<level>:<class>".

    Chains are sorted by their values in (level, class name) order.  The
    system's points come in lexicographic order, which is the chains'
    order unless the variables are out of (level, class name) order; then
    the points are sorted by their values permuted into it.  Each chain is
    packed (`PAChain.packed`) on one layout, the variables' levels in
    variable order, shared by every chain of the solve; its values are
    the point itself, so no chain builds a dict until its entries are
    read."""
    slots = [(int(lvl), cname) for lvl, cname in
             (v.split(":", 1) for v in system.variables)]
    perm = sorted(range(len(slots)), key=slots.__getitem__)
    # each level's variables are consecutive
    layout = tuple(
        (lvl, tuple(cname for _, cname in group))
        for lvl, group in itertools.groupby(slots, key=itemgetter(0))
    )
    res = system.solve(cap=cap)
    points, detail, ray = res.points, None, None
    if res.status == "infinite":
        levels = sorted({lvl for (lvl, _), r in zip(slots, res.ray) if r})
        detail = (f"the system admits an integer ray on level"
                  f"{'s' if len(levels) > 1 else ''} {', '.join(map(str, levels))}")
        ray = {v: r for v, r in zip(system.variables, res.ray) if r}
    elif res.status == "capped":
        stop = {
            "cap": f"beyond {cap} chains",
            "node_budget": "at the search-node budget",
            "probe": "without an integer point in the probe windows of "
                     "an unbounded relaxation",
        }[res.limit]
        detail = f"enumeration stopped {stop}"
    if perm != list(range(len(perm))):
        points = sorted(points, key=itemgetter(*perm))
    n, pack = system.unit_order, PAChain.packed
    return SolutionSet(
        table_name=system.table_name,
        unit_order=n,
        status=res.status,
        chains=tuple(pack(n, layout, pt) for pt in points),
        character_names=system.character_names,
        strategy=strategy,
        congruence_modes=tuple(sorted(set(system.congruence_mode.values()))),
        detail=detail,
        ray=ray,
    )


# ---------------------------------------------------------------------------
# chain checking


class VerifyReport(NamedTuple):
    ok: bool
    rows_checked: int
    failures: list[tuple[int, str]]  # (level, "provenance: value v")


def verify_chain(
    table: CharacterTable,
    characters: Sequence[Union[str, Character]],
    chain: PAChain,
) -> VerifyReport:
    """Check the chain as one point of the joint system it was solved in:
    `build_chain_system`, with `collapse_order=s` when the chain aggregates
    the order-s classes as "~s", every row of every level.  A failure is
    reported at its row's "@m" level, the tag dropped, in level order; a
    row that repeats across levels is kept once, at its lowest level."""
    n = _unit_order(chain.unit_order)
    aggregated = check_chain_shape(table, chain)
    if len(aggregated) > 1:
        raise EngineError(f"chain aggregates the classes of the orders "
                          f"{sorted(aggregated)}; a solve aggregates one order at most")
    system = build_chain_system(table, characters, n,
                                collapse_order=min(aggregated, default=None))
    point = {f"{m}:{key}": v for m in chain.levels()
             for key, v in chain.entry(m).items() if v}
    # each failure reads "<head>@<level><rest>", "%m" or ": value" after the tag
    tagged = (re.fullmatch(r"(.*)@(\d+)(.*)", fail, re.S).groups()
              for fail in system.check_point(point))
    failures = sorted(((int(m), head + rest) for head, m, rest in tagged),
                      key=itemgetter(0))
    return VerifyReport(not failures, len(system.rows), failures)


def classify_chain(chain: PAChain) -> str:
    """"trivial" when the chain could come from a group element (all entries
    nonnegative, hence every power rationally conjugate to one); else
    "nontrivial"."""
    return "trivial" if chain.is_nonnegative() else "nontrivial"
