"""Character table data model, text encoding and validation.

A table records conjugacy classes (name, element order, optionally size and
power maps) and characters (ordinary or p-modular Brauer) with values in
cyclotomic fields.  Tables are either `full` (every class and every ordinary
character of the group, which enables the strong global checks: both
orthogonality relations, sum of squared degrees, class equation) or `partial`
(any subset of rows/columns; only local sanity checks apply).  The column
relation is derived from the row relation when the table is square and every
class size divides |G|, and computed by its own pass otherwise.

Classes are kept in canonical order: ascending element order, then name.
Partial-augmentation chains for a unit of order n store, for every divisor
m > 1 of n, the augmentation vector of u^{n/m} over the classes whose element
order divides m (the identity class is excluded: its augmentation vanishes
for nontrivial torsion units).
"""

from __future__ import annotations

import json
import math
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .cyclo import (
    Coeff,
    CycValue,
    _factor,
    as_integer,
    divisors,
    galois_apply,
    isprime,
    key_integer,
    parse_cyc,
    render_cyc,
)

__all__ = [
    "ConjClass",
    "Character",
    "CharacterTable",
    "PAChain",
    "ValidationReport",
    "parse_table",
    "render_table",
    "validate",
    "parse_chain",
    "render_chain",
    "trivial_chain",
    "check_chain_shape",
    "TableError",
]


class TableError(ValueError):
    """Malformed or inconsistent character-table data."""


class ConjClass(NamedTuple):
    name: str
    element_order: int
    size: Optional[int] = None
    power_maps: Mapping[int, str] = MappingProxyType({})  # shared, hence read-only


class Character(NamedTuple):
    name: str
    degree: int
    values: dict[str, CycValue]
    characteristic: int = 0  # 0 = ordinary, prime p = Brauer character mod p


class CharacterTable:
    __hash__ = None  # unhashable: == compares its fields, which are mutable

    def __init__(self, group_name: str, classes: list[ConjClass], characters: list[Character],
                 order: Optional[int] = None, completeness: str = "full",
                 notes: Optional[str] = None):
        self.group_name, self.characters = group_name, characters
        self.order, self.completeness, self.notes = order, completeness, notes
        self.classes = sorted(classes, key=lambda c: (c.element_order, c.name))
        self._by_name = {c.name: c for c in self.classes}
        if len(self._by_name) != len(self.classes):
            raise TableError(f"duplicate class names in table {self.group_name!r}")

    def __eq__(self, other):  # _by_name is equal when the classes are
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return (f"CharacterTable(group_name={self.group_name!r}, classes={self.classes!r}, "
                f"characters={self.characters!r}, order={self.order!r}, "
                f"completeness={self.completeness!r}, notes={self.notes!r})")

    # -- lookups -------------------------------------------------------------

    def class_by_name(self, name: str) -> ConjClass:
        try:
            return self._by_name[name]
        except KeyError:
            raise TableError(
                f"table {self.group_name!r} has no class named {name!r}"
            ) from None

    def identity_name(self) -> Optional[str]:
        for c in self.classes:
            if c.element_order == 1:
                return c.name
        return None

    def classes_of_order_dividing(self, n: int, include_identity: bool = False):
        return [
            c
            for c in self.classes
            if n % c.element_order == 0 and (include_identity or c.element_order > 1)
        ]

    def character_by_name(self, name: str) -> Character:
        for ch in self.characters:
            if ch.name == name:
                return ch
        raise TableError(f"table {self.group_name!r} has no character named {name!r}")

    # -- power maps ----------------------------------------------------------

    def _prime_power_step(self, cls: ConjClass, p: int) -> Optional[ConjClass]:
        o = cls.element_order
        if p % o == 1 % o:
            return cls
        target = o // p if o % p == 0 else o
        if target == 1:
            ident = self.identity_name()
            return self._by_name[ident] if ident else None
        stored = cls.power_maps.get(p)
        if stored is not None:
            return self.class_by_name(stored)
        candidates = [c for c in self.classes if c.element_order == target]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _power_walk(self, cls: ConjClass, k: int) -> Optional[str]:
        cur = cls
        for p, a in _factor(k):
            for _ in range(a):
                cur = self._prime_power_step(cur, p)
                if cur is None:
                    return None
        return cur.name

    def power_class(self, name: str, k: int) -> Optional[str]:
        """Name of the class of x^k for x in the named class, if determined.

        Uses stored prime power maps plus the two safe inferences: exponent
        killing the order lands in the identity class, and a unique class of
        the target element order must be the image.  Returns None when the
        data does not pin the class down.
        """
        cur = self.class_by_name(name)
        red = k % cur.element_order
        if red == 0:
            return self.identity_name()
        found = self._power_walk(cur, red)
        if found is None and k != red:
            # the class only depends on k mod the order, but the stored
            # prime steps may resolve the unreduced exponent instead
            found = self._power_walk(cur, k)
        return found


# ---------------------------------------------------------------------------
# parsing / rendering


def _expect(value, kind, what: str):
    """`value` when it is a `kind` (Mapping or list), else a TableError
    naming the field."""
    if not isinstance(value, kind):
        want = "an object" if kind is Mapping else "an array"
        raise TableError(f"{what} must be {want}, got {type(value).__name__}")
    return value


def _is_prime(n: int, what: str) -> bool:
    """`isprime(n)`; a number too large to decide is a TableError naming
    the field."""
    try:
        return isprime(n)
    except ValueError as exc:
        raise TableError(f"{what}: {exc}") from None


def _parse_class(obj) -> ConjClass:
    try:
        name = str(obj["name"])
        order, size = obj["element_order"], obj.get("size")
    except (KeyError, TypeError) as exc:
        raise TableError(f"malformed class entry {obj!r}") from exc
    order = as_integer(order, f"class {name!r}: element_order", TableError)
    if size is not None:
        size = as_integer(size, f"class {name!r}: size", TableError)
    if order < 1:
        raise TableError(f"class {name!r} has non-positive element order {order}")
    if size is not None and size < 1:
        raise TableError(f"class {name!r} has non-positive size {size}")
    pm_raw = _expect(obj.get("power_maps", {}), Mapping, f"class {name!r}: power_maps")
    pmaps, keys = {}, {}
    what = f"class {name!r}: power-map key"
    for key, target in pm_raw.items():
        p = key_integer(key, what, TableError)
        if not _is_prime(p, what):
            raise TableError(f"class {name!r}: power-map key {key!r} is not prime")
        if p in keys:
            raise TableError(f"class {name!r}: power-map keys {keys[p]!r} and "
                             f"{key!r} name the same prime {p}")
        keys[p] = key
        pmaps[p] = str(target)
    return ConjClass(name=name, element_order=order, size=size, power_maps=pmaps)


def _raw_key(v):
    """The key of a raw value in `parse_table`'s memo: an int by itself, a
    {"conductor", "terms"} object by (conductor, term tuples) when the
    conductor and every term field are exactly ints (True == 1 and
    1.0 == 1 would share a key otherwise); None for any other value."""
    if type(v) is int:
        return v
    if type(v) is not dict:
        return None
    n, terms = v.get("conductor"), v.get("terms")
    if type(n) is not int or type(terms) is not list:
        return None
    key = [n]
    for t in terms:
        if type(t) is not list or not all(type(x) is int for x in t):
            return None
        key.append(tuple(t))
    return tuple(key)


def _parse_character(obj, seen: dict) -> Character:
    try:
        name = str(obj["name"])
        degree, values_raw = obj["degree"], obj["values"]
        characteristic = obj.get("characteristic", 0)
    except (KeyError, TypeError) as exc:
        raise TableError(f"malformed character entry {obj!r}") from exc
    degree = as_integer(degree, f"character {name!r}: degree", TableError)
    characteristic = as_integer(characteristic, f"character {name!r}: characteristic",
                                TableError)
    values = {}
    for cname, v in _expect(values_raw, Mapping, f"character {name!r}: values").items():
        key = _raw_key(v)
        value = seen.get(key)
        if value is None:
            try:
                value = parse_cyc(v)
            except (TypeError, ValueError) as exc:
                raise TableError(
                    f"character {name!r}: bad value on class {cname!r}: {exc}"
                ) from exc
            if key is not None:
                seen[key] = value
        values[str(cname)] = value
    return Character(name=name, degree=degree, values=values, characteristic=characteristic)


def parse_table(source) -> CharacterTable:
    """Build a CharacterTable from a dict or a JSON string.

    A table repeats a few values many times, so each distinct raw value is
    checked and canonicalised once per call: a value written exactly as
    one parsed before in this call, every field an int (`_raw_key`),
    reuses that one's result, and any other value is parsed and checked
    where it stands.  Equal values written differently are parsed apart,
    into equal values.
    """
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise TableError(f"not valid JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise TableError(f"expected an object, got {type(source).__name__}")
    seen: dict = {}
    try:
        group_name = str(source["group_name"])
        classes = [_parse_class(c) for c in _expect(source["classes"], list, "classes")]
        characters = [_parse_character(c, seen)
                      for c in _expect(source["characters"], list, "characters")]
    except KeyError as exc:
        raise TableError(f"missing required key {exc}") from exc
    completeness = source.get("completeness", "full")
    if completeness not in ("full", "partial"):
        raise TableError(f"completeness must be 'full' or 'partial', got {completeness!r}")
    order = source.get("order")
    table = CharacterTable(
        group_name=group_name,
        classes=classes,
        characters=characters,
        order=None if order is None else as_integer(order, "order", TableError),
        completeness=completeness,
        notes=source.get("notes"),
    )
    _structural_check(table)
    return table


def _structural_check(table: CharacterTable) -> None:
    """Checks that must hold for the object to be usable at all."""
    names = {c.name for c in table.classes}
    idents = [c for c in table.classes if c.element_order == 1]
    if len(idents) > 1:
        raise TableError("more than one identity class")
    for c in table.classes:
        for p, target in c.power_maps.items():
            if target not in names:
                raise TableError(
                    f"class {c.name!r}: power map for {p} targets unknown class {target!r}"
                )
    for ch in table.characters:
        if ch.degree < 1:
            raise TableError(f"character {ch.name!r} has degree {ch.degree} < 1")
        if ch.characteristic and not _is_prime(
            ch.characteristic, f"character {ch.name!r}: characteristic"
        ):
            raise TableError(
                f"character {ch.name!r} has non-prime characteristic {ch.characteristic}"
            )
        for cname in ch.values:
            if cname not in names:
                raise TableError(
                    f"character {ch.name!r} has a value on unknown class {cname!r}"
                )


def render_table(table: CharacterTable) -> dict:
    """Inverse of parse_table; classes come out in canonical order."""
    out: dict = {"group_name": table.group_name}
    if table.order is not None:
        out["order"] = table.order
    out["completeness"] = table.completeness
    if table.notes:
        out["notes"] = table.notes
    cls_objs = []
    for c in table.classes:
        obj: dict = {"name": c.name, "element_order": c.element_order}
        if c.size is not None:
            obj["size"] = c.size
        if c.power_maps:
            obj["power_maps"] = {str(p): c.power_maps[p] for p in sorted(c.power_maps)}
        cls_objs.append(obj)
    out["classes"] = cls_objs
    ch_objs = []
    for ch in table.characters:
        obj = {"name": ch.name, "degree": ch.degree}
        if ch.characteristic:
            obj["characteristic"] = ch.characteristic
        obj["values"] = {
            c.name: render_cyc(ch.values[c.name])
            for c in table.classes
            if c.name in ch.values
        }
        ch_objs.append(obj)
    out["characters"] = ch_objs
    return out


# ---------------------------------------------------------------------------
# validation


class ValidationReport(NamedTuple):
    ok: bool
    checks_run: list[str]
    problems: list[str]


def _pair_sum(entries: Iterable[tuple[CycValue, CycValue, int]]) -> CycValue:
    """Exact sum of weight * a * conj(b) without per-term canonicalization.
    Terms with both values rational are summed apart, as one number."""
    lev = 1
    rational: Coeff = 0
    irrational = []
    for a, b, w in entries:
        if a._c and b._c:
            if a._n == b._n == 1:
                rational += w * a._c[0] * b._c[0]
            else:
                irrational.append((a, b, w))
                lev = math.lcm(lev, a._n, b._n)
    raw: dict[int, Coeff] = {0: rational}
    for a, b, w in irrational:
        sa = lev // a._n
        sb = lev // b._n
        # conj(b): negate its exponents
        bt = [(eb * sb, cb) for eb, cb in b._c.items()]
        for ea, ca in a._c.items():
            ea *= sa
            wca = w * ca
            for eb, cb in bt:
                e = (ea - eb) % lev
                raw[e] = raw.get(e, 0) + wca * cb
    return CycValue._canonical(lev, raw)


def _unit_generators(n: int) -> list[int]:
    """Generators of (Z/n)^*: for each q = p^e || n, a generator of (Z/q)^*
    (for p = 2: -1 when e >= 2, and 5 when e >= 3), lifted by CRT to 1 mod
    n/q."""
    gens = []
    for p, e in _factor(n):
        q = p**e
        if p == 2:
            local = [-1, 5][: e - 1]
        else:  # a primitive root mod p; g or g + p is one mod every p^e
            g = next(g for g in range(2, p)
                     if all(pow(g, (p - 1) // r, p) != 1 for r, _ in _factor(p - 1)))
            local = [g + p if e > 1 and pow(g, p - 1, p * p) == 1 else g]
        rest = n // q
        gens += [(1 + rest * (g - 1) * pow(rest, -1, q)) % n for g in local]
    return gens


def _twist(twists: dict, v: CycValue, k: int) -> CycValue:
    """galois_apply(v, k), memoised in `twists` by (v, k); a rational is
    fixed by every automorphism."""
    if v._n == 1:
        return v
    out = twists.get((v, k))
    if out is None:
        out = twists[v, k] = galois_apply(v, k)
    return out


def _orthogonality(rows, ids, weights, diagonal, label, twists) -> str:
    """The detail of the first pair i <= j of vectors whose weighted inner
    product is not diagonal[i] (i == j) or 0 (i < j), headed by
    label(i, j); empty when every pair holds.  Each vector is a tuple of
    the ids that `ids` gives its values.

    sigma_k, k prime to the conductors, commutes with conjugation and fixes
    the rational wanted value, so a pair holds iff its image does.  A pair
    that holds marks its orbit under `_unit_generators` as holding, where a
    vector maps to the one of equal diagonal holding its entries' twists;
    pairs go in order, so the first failure is the pairwise loop's."""
    values = list(ids)
    vectors = [[values[x] for x in row] for row in rows]
    used = set().union(*rows)
    where: dict = {}
    for i, row in enumerate(rows):
        where.setdefault((row, diagonal[i]), i)
    maps = []
    for k in _unit_generators(math.lcm(*(values[x]._n for x in used))):
        image = {x: ids.get(_twist(twists, values[x], k)) for x in used}
        maps.append([where.get((tuple(map(image.__getitem__, row)), diagonal[i]))
                     for i, row in enumerate(rows)])
    held = set()
    for i, u in enumerate(vectors):
        for j in range(i, len(vectors)):
            if (i, j) in held:
                continue
            got = _pair_sum(zip(u, vectors[j], weights))
            want = diagonal[i] if i == j else 0
            if got != want:
                return f"{label(i, j)}{got!r}, expected {want}"
            todo = [(i, j)]
            while todo:
                a, b = todo.pop()
                for m in maps:
                    c, d = m[a], m[b]
                    # only equal vectors map a != b to c == d; the guard keeps
                    # each step exact without leaning on the pair order
                    if c is None or d is None or (a != b and c == d):
                        continue
                    pair = (c, d) if c <= d else (d, c)
                    if pair not in held:
                        held.add(pair)
                        todo.append(pair)
    return ""


def _galois_detail(table, c, p, target, twists) -> Optional[str]:
    """Why the ordinary values at `target` are not those at class `c`
    twisted by p, from the first character that shows it; None if none
    does."""
    for ch in table.characters:
        if ch.characteristic:
            continue
        v, w = ch.values.get(c.name), ch.values.get(target)
        if v is None or w is None:
            continue
        if math.gcd(p, v.conductor) != 1:
            # no Galois twist by p exists in Q(zeta_conductor)
            return (f"{ch.name} at {c.name} has conductor "
                    f"{v.conductor}, not coprime to {p}")
        if _twist(twists, v, p) != w:
            return f"ordinary values at {target} are not the {p}-th Galois twist"
    return None


def validate(table: CharacterTable) -> ValidationReport:
    """Run every check that the table's completeness allows, in a fixed
    order, and report each check's name and each failure's detail.  Each
    distinct value gets one id, so that it is tested for integrality once
    and a stored power map is checked by comparing two columns of ids,
    and each distinct irrational (value, k) is twisted once per call.  The
    orthogonality relations compute one pair per Galois orbit, as
    <sigma_k u, sigma_k v> = sigma_k <u, v> and every wanted value is
    rational (`_orthogonality`)."""
    checks: list[str] = []
    problems: list[str] = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append(name)
        if not ok:
            problems.append(f"{name}: {detail}" if detail else name)

    ident = table.identity_name()
    if ident is not None:
        icls = table.class_by_name(ident)
        check("identity-size", icls.size in (None, 1), f"size {icls.size} != 1")

    for c in table.classes:
        for p, target in sorted(c.power_maps.items()):
            tcls = table.class_by_name(target)
            want = c.element_order // p if c.element_order % p == 0 else c.element_order
            check(
                f"power-map-order[{c.name}^{p}]",
                tcls.element_order == want,
                f"target {target} has order {tcls.element_order}, expected {want}",
            )

    # each distinct value gets one id, and the checks below read the ids
    ids: dict[CycValue, int] = {}
    id_rows = [{c: ids.setdefault(v, len(ids)) for c, v in ch.values.items()}
               for ch in table.characters]
    nonintegral = {i for v, i in ids.items() if not v.is_integral()}

    for ch, row in zip(table.characters, id_rows):
        if ident is not None and ident in ch.values:
            check(
                f"degree-at-identity[{ch.name}]",
                ch.values[ident] == ch.degree,
                f"value at {ident} != degree {ch.degree}",
            )
        bad = [c for c, i in row.items() if i in nonintegral]
        check(
            f"integral-values[{ch.name}]",
            not bad,
            f"non-algebraic-integer values on {bad}",
        )
        if ch.characteristic:
            p = ch.characteristic
            singular = [
                c for c in ch.values if table.class_by_name(c).element_order % p == 0
            ]
            check(
                f"brauer-domain[{ch.name}]",
                not singular,
                f"p-singular classes {singular} carry values (characteristic {p})",
            )

    # galois consistency of stored power maps for exponents coprime to the
    # order: the column of ids at the target must be the column at c with
    # each value twisted, and a column that differs or lacks a value is
    # looked at character by character for the detail
    full = table.completeness == "full"
    twists: dict[tuple[CycValue, int], CycValue] = {}
    values = list(ids)
    names = [c.name for c in table.classes]
    ordinary_rows = [tuple(map(row.get, names))
                     for ch, row in zip(table.characters, id_rows) if not ch.characteristic]
    columns = (dict(zip(names, zip(*ordinary_rows))) if ordinary_rows
               else dict.fromkeys(names, ()))
    images: dict[int, dict] = {}  # p -> {id: id of its p-th twist, None if none}

    def twisted(col, p):
        image = images.setdefault(p, {})
        for x in set(col).difference(image):
            v = values[x]
            image[x] = ids.get(_twist(twists, v, p)) if math.gcd(p, v._n) == 1 else None
        return tuple(map(image.__getitem__, col))

    for c in table.classes:
        for p, target in sorted(c.power_maps.items()):
            if c.element_order % p == 0 or c.element_order == 1:
                continue
            col, want = columns[c.name], columns[target]
            detail = None
            if None in col or None in want or twisted(col, p) != want:
                detail = _galois_detail(table, c, p, target, twists)
            check(f"power-map-galois[{c.name}^{p}]", detail is None, detail or "")

    if not full:
        return ValidationReport(ok=not problems, checks_run=checks, problems=problems)

    # ---- full tables only ---------------------------------------------------
    check("order-present", table.order is not None)
    sizes_known = all(c.size is not None for c in table.classes)
    check("sizes-present", sizes_known)
    complete_rows = all(
        set(ch.values) == {c.name for c in table.classes}
        for ch in table.characters
        if ch.characteristic == 0
    )
    check("rows-complete", complete_rows)
    if table.order is None or not sizes_known or not complete_rows:
        return ValidationReport(ok=False, checks_run=checks, problems=problems)

    g = table.order
    check(
        "class-equation",
        sum(c.size for c in table.classes) == g,
        f"sum of class sizes != group order {g}",
    )
    ordinary = [ch for ch in table.characters if ch.characteristic == 0]
    check(
        "sum-of-squared-degrees",
        sum(ch.degree**2 for ch in ordinary) == g,
        f"sum deg^2 = {sum(ch.degree ** 2 for ch in ordinary)} != {g}",
    )

    # first (row) and second (column) orthogonality
    classes = table.classes
    detail = _orthogonality(
        ordinary_rows, ids,
        [c.size for c in classes], [g] * len(ordinary),
        lambda i, j: f"<{ordinary[i].name},{ordinary[j].name}> = ", twists,
    )
    check("row-orthogonality", not detail, detail)
    # X D X* = g I with X square and D invertible gives X* X = g D^-1, the
    # column relation whenever g / size is the integer it is checked against
    if detail or len(ordinary) != len(classes) or g <= 0 or not all(
        c.size >= 1 and g % c.size == 0 for c in classes
    ):
        detail = _orthogonality(
            list(columns.values()), ids,
            [1] * len(ordinary), [g // c.size for c in classes],
            lambda i, j: f"columns {classes[i].name},{classes[j].name}: ", twists,
        )
    check("column-orthogonality", not detail, detail)

    return ValidationReport(ok=not problems, checks_run=checks, problems=problems)


# ---------------------------------------------------------------------------
# augmentation chains


# a chain key "~s" stands for the total over the order-s classes
AGGREGATE_PREFIX = "~"


class PAChain:
    """Partial augmentations of u and all its proper powers, by divisor.

    A chain is packed: `layout`, ((level, (class, ...)), ...), names its
    slots, and `values` holds their partial augmentations in that order;
    the chains of one solve share one layout object.  `entries`, {level:
    {class: value}} in layout order, is built on first read and kept, so it
    is a read-only view: to change a chain, build a new one from a copy.
    Two chains are equal when their unit orders and entries are, whatever
    the order of the keys."""

    __slots__ = ("unit_order", "layout", "values", "_entries")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, unit_order: int, entries: Mapping[int, Mapping[str, int]]):
        self.unit_order = unit_order
        self.layout = tuple((m, tuple(ent)) for m, ent in entries.items())
        self.values = tuple(v for ent in entries.values() for v in ent.values())

    @classmethod
    def packed(cls, unit_order: int, layout: tuple, values: tuple) -> "PAChain":
        """The chain with these slots and values, taken as they are."""
        chain = object.__new__(cls)
        chain.unit_order, chain.layout, chain.values = unit_order, layout, values
        return chain

    @property
    def entries(self) -> dict[int, dict[str, int]]:
        try:
            return self._entries
        except AttributeError:
            vals = iter(self.values)  # zip takes each level's values from it
            self._entries = {m: dict(zip(classes, vals)) for m, classes in self.layout}
            return self._entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.unit_order == other.unit_order and self.entries == other.entries

    def __repr__(self) -> str:
        return f"PAChain(unit_order={self.unit_order!r}, entries={self.entries!r})"

    def levels(self) -> list[int]:
        return sorted(m for m, _ in self.layout)

    def entry(self, m: int) -> dict[str, int]:
        return self.entries[m]

    def is_nonnegative(self) -> bool:
        return min(self.values, default=0) >= 0


def check_chain_shape(table: CharacterTable, chain: PAChain) -> set[int]:
    """Structural validity: level set, class supports, augmentation sums.

    A level m may carry the aggregated key "~s", the total over the
    order-s classes, when s divides m and the level names none of those
    classes on its own.  Returns the orders s aggregated at some level."""
    n = chain.unit_order
    want_levels = [d for d in divisors(n) if d > 1]
    if chain.levels() != want_levels:
        raise TableError(
            f"chain levels {chain.levels()} != divisors of {n} greater than 1"
        )
    ident = table.identity_name()
    aggregated: set[int] = set()
    for m in want_levels:
        ent = chain.entries[m]
        orders = {c.name: c.element_order for c in table.classes_of_order_dividing(m)}
        summed = set()
        for cname, eps in ent.items():
            if cname == ident:
                raise TableError(f"level {m}: identity class carries augmentation")
            if cname not in orders:
                s = {f"{AGGREGATE_PREFIX}{o}": o for o in orders.values()}.get(cname)
                if s is None:
                    raise TableError(f"level {m}: class {cname!r} absent or has "
                                     f"order not dividing {m}")
                summed.add(s)
            as_integer(eps, f"level {m}: augmentation of {cname!r}", TableError)
        if summed:
            mixed = sorted(c for c in ent if orders.get(c) in summed)
            if mixed:
                raise TableError(f"level {m}: class {mixed[0]!r} is also counted "
                                 f"in '{AGGREGATE_PREFIX}{orders[mixed[0]]}'")
            aggregated |= summed
        if sum(ent.values()) != 1:
            raise TableError(
                f"level {m}: augmentations sum to {sum(ent.values())}, not 1"
            )
    return aggregated


def parse_chain(source) -> PAChain:
    """Build a PAChain from a dict or a JSON string."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise TableError(f"not valid JSON: {exc}") from exc
    try:
        n, raw = source["unit_order"], source["entries"]
    except (KeyError, TypeError) as exc:
        raise TableError(f"malformed chain {source!r}") from exc
    n = as_integer(n, "chain unit_order", TableError)
    if n < 1:
        raise TableError(f"chain unit_order must be at least 1, got {n}")
    entries, keys = {}, {}
    for m, vec in _expect(raw, Mapping, "chain entries").items():
        where = f"chain entries[{m!r}]"
        vec = _expect(vec, Mapping, where)
        level = key_integer(m, f"{where} level", TableError)
        if level in keys:
            raise TableError(f"chain entries {keys[level]!r} and {m!r} name the "
                             f"same level {level}")
        keys[level] = m
        entries[level] = {str(c): as_integer(v, f"{where}[{c!r}]", TableError)
                          for c, v in vec.items()}
    return PAChain(unit_order=n, entries=entries)


def render_chain(chain: PAChain) -> dict:
    """The chain as JSON data, levels and classes sorted; read off the
    packed values, without building the chain's `entries`."""
    vals = iter(chain.values)
    levels = {m: sorted(zip(classes, vals)) for m, classes in chain.layout}
    return {
        "unit_order": chain.unit_order,
        "entries": {str(m): dict(levels[m]) for m in sorted(levels)},
    }


def trivial_chain(table: CharacterTable, class_name: str) -> PAChain:
    """The chain of an actual group element from the named class."""
    cls = table.class_by_name(class_name)
    n = cls.element_order
    entries: dict[int, dict[str, int]] = {}
    for m in divisors(n):
        if m == 1:
            continue
        target = table.power_class(class_name, n // m)
        if target is None:
            raise TableError(
                f"power maps cannot resolve {class_name}^{n // m} in {table.group_name!r}"
            )
        vec = {c.name: 0 for c in table.classes_of_order_dividing(m)}
        vec[target] = 1
        entries[m] = vec
    return PAChain(unit_order=n, entries=entries)
