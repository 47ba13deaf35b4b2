"""Numbered end-to-end checks of the shipped functionality.

Each test covers one acceptance criterion: exact cyclotomic arithmetic,
generated-table validity, reproduction of the reference chain counts on
the embedded and generated tables, prime-pair screening verdicts, solver
cross-validation against a brute-force oracle, and triviality soundness.
Every test prints a single "criterion NN: PASS" line with its wall-clock
time and asserts the time budget it must run within.

The tests run top to bottom in this file; a module fixture records every
constraint system built along the way so the coefficient-level row-sum
identity can be replayed over all of them near the end.
"""

import math
import random
import time

import pytest

from helixpq import datasets, engine
from helixpq.chartab import PAChain, trivial_chain, validate
from helixpq.cyclo import (
    cyc_rational,
    divisors,
    galois_apply,
    mobius,
    rational_trace,
    root_of_unity,
)
from helixpq.engine import (
    classify_chain,
    solve_order,
    solve_s_constant,
    verify_chain,
)
from helixpq.lattice import Polyhedron, enumerate_integer_points
from helixpq.pq import pq_check
from helixpq.psl2 import gen_table
from lattice_oracle import oracle_enumerate

_QS = (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49)
_CACHE: dict = {}

# -- build recording -------------------------------------------------------------
# Wrap the two system builders for the duration of this module so that the
# row-sum replay (criterion 11) sees every system the earlier criteria built.

_ORIG_BUILD_SYSTEM = engine.build_system
_ORIG_BUILD_CHAIN_SYSTEM = engine.build_chain_system
_BUILDS: list[tuple[str, tuple, dict]] = []


def _recording_build_system(*args, **kwargs):
    _BUILDS.append(("flat", args, kwargs))
    return _ORIG_BUILD_SYSTEM(*args, **kwargs)


def _recording_build_chain_system(*args, **kwargs):
    _BUILDS.append(("joint", args, kwargs))
    return _ORIG_BUILD_CHAIN_SYSTEM(*args, **kwargs)


@pytest.fixture(scope="module", autouse=True)
def _record_builds():
    engine.build_system = _recording_build_system
    engine.build_chain_system = _recording_build_chain_system
    try:
        yield
    finally:
        engine.build_system = _ORIG_BUILD_SYSTEM
        engine.build_chain_system = _ORIG_BUILD_CHAIN_SYSTEM


# -- shared helpers ---------------------------------------------------------------


def _ok(num: int, t0: float, budget: float, msg: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, (
        f"criterion {num:02d} took {elapsed:.1f}s, budget {budget:.0f}s"
    )
    print(f"criterion {num:02d}: PASS ({elapsed:.1f}s) — {msg}")


def _tables24() -> dict:
    if "tables24" not in _CACHE:
        _CACHE["tables24"] = {
            (fam, q): gen_table(fam, q)
            for fam in ("psl2", "pgl2")
            for q in _QS
        }
    return _CACHE["tables24"]


def _gen(family: str, q: int):
    key = (family, q)
    tabs = _tables24()
    if key in tabs:
        return tabs[key]
    if key not in _CACHE:
        _CACHE[key] = gen_table(family, q)
    return _CACHE[key]


def _steinberg_expectation(cls, q: int) -> int:
    if cls.element_order == 1:
        return q
    if cls.size in (q * q - 1, (q * q - 1) // 2):
        return 0  # unipotent
    if cls.size in (q * (q + 1), q * (q + 1) // 2):
        return 1  # split torus
    if cls.size in (q * (q - 1), q * (q - 1) // 2):
        return -1  # nonsplit torus
    raise AssertionError(f"unclassifiable class {cls.name} in q={q}")


def _random_cyc(rng: random.Random, n: int):
    value = cyc_rational(0)
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(-3, 3)
        e = rng.randrange(n)
        value = value + cyc_rational(c) * root_of_unity(n, e)
    return value


def _unit_mod(rng: random.Random, n: int) -> int:
    while True:
        k = rng.randrange(1, max(n, 2))
        if math.gcd(k, n) == 1:
            return k


# -- criteria ---------------------------------------------------------------------


def test_criterion_01():
    t0 = time.perf_counter()
    for n in range(1, 201):
        assert rational_trace(root_of_unity(n)) == mobius(n), n
    rng = random.Random(11)
    conductors = [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24]
    checks = 0
    for _ in range(500):
        n = rng.choice(conductors)
        a, b = _random_cyc(rng, n), _random_cyc(rng, n)
        assert rational_trace(a + b, n) == rational_trace(a, n) + rational_trace(b, n)
        q = rng.randint(-4, 4)
        assert rational_trace(cyc_rational(q) * a, n) == q * rational_trace(a, n)
        checks += 2
    for _ in range(500):
        n = rng.choice(conductors)
        v = _random_cyc(rng, n)
        j, k = _unit_mod(rng, n), _unit_mod(rng, n)
        assert galois_apply(galois_apply(v, j), k) == galois_apply(v, (j * k) % n)
        assert rational_trace(galois_apply(v, j), n) == rational_trace(v, n)
        checks += 2
    assert checks >= 1000
    _ok(1, t0, 10, f"200 root traces and {checks} randomized identities")


def test_criterion_02():
    t0 = time.perf_counter()
    tables = _tables24()
    assert len(tables) == 24
    for (fam, q), table in tables.items():
        report = validate(table)
        assert report.ok, (fam, q, report.problems[:3])
        st = table.character_by_name("st")
        assert st.degree == q, (fam, q)
        for cls in table.classes:
            expect = cyc_rational(_steinberg_expectation(cls, q))
            assert st.values[cls.name] == expect, (fam, q, cls.name)
    _ok(2, t0, 60, "24 generated tables validate; all q-degree rows exact")


def test_criterion_03():
    t0 = time.perf_counter()
    psp = datasets.load_embedded("psp4_7_partial")
    sol2 = solve_order(psp, ["phi"], 2)
    assert sol2.status == "finite" and len(sol2.chains) == 3
    top = {(c.entry(2)["2a"], c.entry(2)["2b"]) for c in sol2.chains}
    assert top == {(1, 0), (0, 1), (-1, 2)}
    sol10 = solve_order(psp, ["chi", "phi"], 10)
    assert sol10.status == "finite" and sol10.chains == ()
    aut = datasets.load_embedded("psp4_7_aut_partial")
    sol15 = solve_order(aut, ["chi", "phi"], 15)
    assert sol15.status == "finite" and sol15.chains == ()
    _ok(3, t0, 10, "symplectic-group counts 3 / 0 / 0, exact")


def test_criterion_04():
    t0 = time.perf_counter()
    table = _gen("psl2", 243)
    deg121 = [ch.name for ch in table.characters if ch.degree == 121]
    assert deg121
    sol = solve_s_constant(table, [deg121[0]], 11, 3)
    assert sol.status == "finite" and sol.chains == ()
    _ok(4, t0, 120, "order 33 via one degree-121 character: 0 chains")


def test_criterion_05():
    t0 = time.perf_counter()
    table = datasets.load_embedded("pgl2_243_rows")
    chars = [ch.name for ch in table.characters]
    assert len(chars) == 6
    top = {c.name: 0 for c in table.classes_of_order_dividing(33)}
    top["3a"] = 12
    top["11c"] = -11
    chain = PAChain(
        unit_order=33,
        entries={
            3: {"3a": 1},
            11: {
                c.name: (1 if c.name == "11a" else 0)
                for c in table.classes
                if c.element_order == 11
            },
            33: top,
        },
    )
    report = verify_chain(table, chars, chain)
    assert report.ok, report.failures[:4]
    pq_report = pq_check(table, pairs=[(3, 11)], cap=5, assume_coverage=True)
    (pair,) = pq_report.pairs
    assert (pair.p, pair.q) == (3, 11)
    assert pair.outcome == "undecided"
    assert pair.nontrivial >= 1
    _ok(5, t0, 120, "(12, -11) chain accepted; pair {3,11} stays undecided")


def test_criterion_06():
    t0 = time.perf_counter()
    small = _gen("psl2", 32)
    sol32 = solve_order(small, [ch.name for ch in small.characters], 6)
    assert sol32.status == "finite" and len(sol32.chains) == 3
    big = _gen("pgl2", 243)
    sol243 = solve_order(big, [ch.name for ch in big.characters], 6)
    assert sol243.status == "finite" and len(sol243.chains) == 28
    _ok(6, t0, 300, "order-6 counts 3 (q=32) and 28 (q=243), exact")


def test_criterion_07():
    t0 = time.perf_counter()
    chain = PAChain(
        unit_order=6,
        entries={
            2: {"2a": 1},
            3: {"3a": 1, "3b": 0},
            6: {"2a": -2, "3a": 2, "3b": 1},
        },
    )
    pair = datasets.load_embedded("psl2_3f_eta")
    rep1 = verify_chain(pair, [ch.name for ch in pair.characters], chain)
    assert rep1.ok, rep1.failures[:4]
    full = _gen("psl2", 27)
    rep2 = verify_chain(full, [ch.name for ch in full.characters], chain)
    assert rep2.ok, rep2.failures[:4]
    _ok(7, t0, 30, "(1, 1, 0, -2, 2, 1) survives both character sets")


def test_criterion_08():
    t0 = time.perf_counter()
    table = _gen("psl2", 32)
    for s in (31, 11):
        sol = solve_s_constant(table, ["st"], s, 2)
        assert sol.status == "finite" and sol.chains == (), s
    _ok(8, t0, 30, "orders 62 and 22 ruled out by the degree-q character")


def test_criterion_09():
    t0 = time.perf_counter()
    table = datasets.load_embedded("l3_17_aut_partial")
    sol614 = solve_s_constant(table, ["chi1", "chi4912"], 307, 2)
    assert sol614.status == "finite" and sol614.chains == ()
    sol51 = solve_order(table, ["chi306", "chi4912", "chi9216"], 51)
    assert sol51.status == "finite" and len(sol51.chains) == 126
    _ok(9, t0, 300, "order 614: 0 chains; order 51: 126 chains, exact")


def test_criterion_10():
    t0 = time.perf_counter()
    insufficient = pq_check(_gen("psl2", 16))
    by_pair = {frozenset((p.p, p.q)): p for p in insufficient.pairs}
    pair23 = by_pair[frozenset((2, 3))]
    assert pair23.outcome == "undecided" and pair23.nontrivial >= 1
    assert insufficient.verdict == "HeLP_insufficient"
    sufficient = pq_check(_gen("psl2", 5))
    assert len(sufficient.pairs) == 3
    assert all(p.outcome == "ruled_out" for p in sufficient.pairs)
    assert sufficient.verdict == "HeLP_sufficient"
    _ok(10, t0, 60, "q=16 leaves {2,3} undecided; q=5 fully ruled out")


def _row_sum_identity(system, table, per_level: bool) -> int:
    """Sum of the multiplicity rows over all shifts k must vanish on every
    coefficient and add up to (level x degree) in the constants."""
    checked = 0
    levels = (
        [m for m in divisors(system.unit_order) if m > 1]
        if per_level
        else [system.unit_order]
    )
    for name in system.character_names:
        degree = table.character_by_name(name).degree
        for m in levels:
            rows = [
                r
                for r in system.rows
                if r.kind == "ge"
                and r.provenance.startswith(f"{name}:mult[")
                and (not per_level or r.provenance.rsplit("@", 1)[1] == str(m))
            ]
            assert len(rows) == m, (system.table_name, name, m)
            coeff_sum = [sum(col) for col in zip(*(r.coeffs for r in rows))]
            assert all(c == 0 for c in coeff_sum), (system.table_name, name, m)
            assert sum(r.const for r in rows) == m * degree, (
                system.table_name,
                name,
                m,
            )
            checked += 1
    return checked


def test_criterion_11():
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    trials = 120
    for trial in range(trials):
        dim = rng.randint(1, 5)
        lo, hi = (-4, 4) if dim >= 4 else (-6, 6)
        ineqs = [
            (tuple(1 if j == k else 0 for j in range(dim)), -lo)
            for k in range(dim)
        ]
        ineqs += [
            (tuple(-1 if j == k else 0 for j in range(dim)), hi)
            for k in range(dim)
        ]
        for _ in range(rng.randint(0, 3)):
            a = tuple(rng.randint(-3, 3) for _ in range(dim))
            ineqs.append((a, rng.randint(-4, 8)))
        eqs = []
        if rng.random() < 0.5:
            eqs.append(
                (tuple(rng.randint(-2, 2) for _ in range(dim)), rng.randint(-3, 3))
            )
        congs = []
        if rng.random() < 0.5:
            congs.append(
                (
                    tuple(rng.randint(-2, 2) for _ in range(dim)),
                    rng.randint(-2, 2),
                    rng.choice([2, 3, 4, 6]),
                )
            )
        poly = Polyhedron(dim=dim, ineqs=ineqs, eqs=eqs, congruences=congs)
        res = enumerate_integer_points(poly)
        assert res.status == "finite", trial
        assert res.points == oracle_enumerate(poly, [(lo, hi)] * dim), trial
    assert trials >= 100

    recorded = list(_BUILDS)
    assert recorded, "earlier criteria must have built systems"
    identities = 0
    for kind, args, kwargs in recorded:
        replay = dict(kwargs)
        replay["dedupe"] = False
        if kind == "flat":
            system = _ORIG_BUILD_SYSTEM(*args, **replay)
            identities += _row_sum_identity(system, args[0], per_level=False)
        else:
            system = _ORIG_BUILD_CHAIN_SYSTEM(*args, **replay)
            identities += _row_sum_identity(system, args[0], per_level=True)
    _ok(
        11,
        t0,
        120,
        f"{trials} oracle matches; row-sum identity on {len(recorded)} "
        f"systems ({identities} character blocks)",
    )


def test_criterion_12():
    t0 = time.perf_counter()
    tables = _tables24()
    checked = 0
    for (fam, q), table in tables.items():
        chars = [ch.name for ch in table.characters]
        for cls in table.classes:
            if cls.element_order == 1:
                continue
            chain = trivial_chain(table, cls.name)
            report = verify_chain(table, chars, chain)
            assert report.ok, (fam, q, cls.name, report.failures[:3])
            assert classify_chain(chain) == "trivial", (fam, q, cls.name)
            checked += 1
    assert checked > 0
    _ok(12, t0, 120, f"{checked} trivial chains verified across 24 tables")
