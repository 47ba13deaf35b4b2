"""Generated PSL(2,q)/PGL(2,q) tables: structure, known values, power maps."""

import hashlib
import json

import pytest

from helixpq.chartab import render_table, validate
from helixpq.cyclo import cyc_rational, root_of_unity
from helixpq.psl2 import gen_brauer3, gen_table, resolve_params

SPOT = [("psl2", q) for q in (4, 5, 7, 9, 27)] + \
       [("pgl2", q) for q in (5, 7, 9, 27)]


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        resolve_params("psu3", 5)
    with pytest.raises(ValueError):
        resolve_params("psl2", 6)
    with pytest.raises(ValueError):
        resolve_params("psl2", 3)


@pytest.mark.parametrize("family,q", SPOT)
def test_generated_tables_validate(family, q):
    table = gen_table(family, q)
    report = validate(table)
    assert report.ok, report.problems


@pytest.mark.parametrize("family,q", SPOT)
def test_group_order_and_class_sizes(family, q):
    table = gen_table(family, q)
    d = 2 if (family == "psl2" and q % 2) else 1
    assert table.order == q * (q * q - 1) // d
    assert sum(c.size for c in table.classes) == table.order
    assert table.completeness == "full"


def _steinberg_expectation(cls, q):
    if cls.element_order == 1:
        return q
    if cls.size in (q * q - 1, (q * q - 1) // 2):
        return 0  # unipotent
    if cls.size in (q * (q + 1), q * (q + 1) // 2):
        return 1  # split torus
    if cls.size in (q * (q - 1), q * (q - 1) // 2):
        return -1  # nonsplit torus
    raise AssertionError(f"unclassifiable class {cls}")


@pytest.mark.parametrize("family,q", SPOT)
def test_steinberg_row(family, q):
    table = gen_table(family, q)
    st = table.character_by_name("st")
    assert st.degree == q
    for cls in table.classes:
        assert st.values[cls.name] == cyc_rational(
            _steinberg_expectation(cls, q)
        ), cls.name


def test_known_degree_multisets():
    # alternating/symmetric group isomorphisms pin these down
    cases = {
        ("psl2", 5): [1, 3, 3, 4, 5],             # A5
        ("psl2", 7): [1, 3, 3, 6, 7, 8],
        ("psl2", 9): [1, 5, 5, 8, 8, 9, 10],      # A6
        ("pgl2", 5): [1, 1, 4, 4, 5, 5, 6],       # S5
        ("pgl2", 7): [1, 1, 6, 6, 6, 7, 7, 8, 8],
    }
    for (family, q), degrees in cases.items():
        table = gen_table(family, q)
        assert sorted(ch.degree for ch in table.characters) == degrees, (family, q)


def test_even_q_psl_equals_pgl():
    a = render_table(gen_table("psl2", 8))
    b = render_table(gen_table("pgl2", 8))
    assert a["characters"] == b["characters"]
    assert a["classes"] == b["classes"]


def test_halved_pair_values_on_unipotent_classes():
    # the two degree-13 characters of PSL(2,27) take 1 + 3*z3 and 1 + 3*z3^2
    # on the two order-3 classes, in opposite assignments
    table = gen_table("psl2", 27)
    pair = [ch for ch in table.characters if ch.degree == 13]
    assert len(pair) == 2
    unis = [c.name for c in table.classes if c.element_order == 3]
    assert len(unis) == 2
    want = {cyc_rational(1) + cyc_rational(3) * root_of_unity(3),
            cyc_rational(1) + cyc_rational(3) * root_of_unity(3, 2)}
    seen = []
    for ch in pair:
        got = {ch.values[u] for u in unis}
        assert got == want, ch.name
        seen.append(tuple(ch.values[u] for u in unis))
    assert seen[0] == tuple(reversed(seen[1]))


def test_steinberg_value_on_nonsplit_psl2_32():
    table = gen_table("psl2", 32)
    st = table.character_by_name("st")
    three = [c for c in table.classes if c.element_order == 3]
    assert len(three) == 1
    assert st.values[three[0].name] == cyc_rational(-1)


def test_cube_map_on_order_13_classes_of_pgl2_27():
    # 3 has multiplicative order 3 mod 13, so cubing splits the six
    # order-13 split classes into two 3-cycles
    table = gen_table("pgl2", 27)
    names = [c.name for c in table.classes if c.element_order == 13]
    assert len(names) == 6
    image = {n: table.power_class(n, 3) for n in names}
    assert set(image.values()) == set(names)
    assert all(image[n] != n for n in names)
    for n in names:
        assert image[image[image[n]]] == n


def test_power_maps_cover_primes_of_group_order():
    table = gen_table("psl2", 7)  # order 168 = 2^3 * 3 * 7
    for cls in table.classes:
        for k in (2, 3, 4, 6, 7, 8, 12):
            assert table.power_class(cls.name, k) is not None, (cls.name, k)
    # squares mod 7 are {1,2,4}: squaring fixes each order-7 class,
    # cubing swaps the two
    assert table.power_class("7a", 2) == "7a"
    assert table.power_class("7a", 3) == "7b"
    assert table.power_class("7b", 3) == "7a"


def test_brauer3_shape():
    ch = gen_brauer3("pgl2", 9)
    assert ch.degree == 3 and ch.characteristic == 3
    table = gen_table("pgl2", 9, include_brauer3=True)
    got = table.character_by_name(ch.name)
    ident = table.identity_name()
    assert got.values[ident] == cyc_rational(3)
    for cls in table.classes:
        if cls.element_order % 3 == 0:
            assert cls.name not in got.values  # p-singular: undefined
        else:
            assert cls.name in got.values
    # split torus element with parameter 1: eigenvalues t, 1, 1/t
    z8 = root_of_unity(8)
    want = cyc_rational(1) + z8 + root_of_unity(8, 7)
    assert want in got.values.values()


def test_brauer3_rejected_for_odd_psl():
    with pytest.raises(ValueError):
        gen_table("psl2", 7, include_brauer3=True)


def test_generation_is_deterministic():
    assert render_table(gen_table("pgl2", 9)) == render_table(gen_table("pgl2", 9))


# sha256 of `json.dumps(render_table(gen_table(family, q)), indent=1)`, the
# text `helixpq gen` writes, for the 24 acceptance tables, recorded at 3680958
TABLE_DIGESTS = {
    ("psl2", 4): "da5cf0de2bdccfa8492466f62332e4f4af60679191234bb9d74529c16d11393d",
    ("psl2", 5): "1940569fc9d6254a25a670caa7e677cbdea56455b554d6c31c1816725d25d214",
    ("psl2", 7): "b7d26f3af7c6e4d1d60f9b4c118bceaf4da9df3c63bba0d13c56033aa4afaed9",
    ("psl2", 8): "2a6fffe5c63e3f6777ae0c57de7ec2794bf6133d8f9a5236e494dca0781a8e8c",
    ("psl2", 9): "c4291d3e2ec141e327a1d969c8cab853d10f2c6f9108a6bade90af019a905283",
    ("psl2", 11): "88c4d33c74838de5015059a1a981f3620c9f68fe4abc5c8259ee359c6fe68a49",
    ("psl2", 13): "efef4b8ae8b4476d3c986f47f97458d4aa21791481674ff1a4198570fbac26c9",
    ("psl2", 16): "01c8849eb2897e7923ec7b8bc22a3361a37029a1615c02d67d9170ec51c796bb",
    ("psl2", 25): "f5d77fd4799d9654df18329d7a5b7915e6b23f58ea7c4ad024bdfeaab28a5fa7",
    ("psl2", 27): "75088b0ca2d6c847c54a8923c4a72c2d90ea237ace9a7e1b26ce2e8373241cb7",
    ("psl2", 32): "04ad2b00e5d517eebf0be82d21c4faecc738f96a51254163e7d5f8e8b97e34f6",
    ("psl2", 49): "a042f29428b6b3ee4f6ab5072aa2641f0d68b17659eb3faae6d352f58825d7aa",
    ("pgl2", 4): "bc315b5481c2dd55f51b2948ef14279a7355548227a144a6a0f35476d3bfdad4",
    ("pgl2", 5): "4cfe7e03835bd6bea4c86ff580fe80a2e10a4284a9c012a367eeb9da9db76b23",
    ("pgl2", 7): "fb03419442c74e78b48e99cca0fede6a5e71e3a5ffe6ea1e7aa1d96a46f5e2ad",
    ("pgl2", 8): "33445c19ef1ac08cbb144ac32d4b368d138aaaeafc3e7c590cd2017d2463b983",
    ("pgl2", 9): "cefd62177815757da270e8078d4d9b20aa9fdeca1472c5d98d878a3b2e3e7bf1",
    ("pgl2", 11): "9b4ad3cbdb2d9470923994d93f9eb9f98a04f0e8d5a55edf0a05545f51ee6d2c",
    ("pgl2", 13): "cf6cffca7579e6cea29faff0060d2b918b991e1fd1ab0f2880294ab2e25a8c08",
    ("pgl2", 16): "a4fb9b7bcc97e1652382c6e6224838d3830106fc871d9fe2b9e07daad92434bf",
    ("pgl2", 25): "6ff8001d98db22c14903a33f5049986edd13b3e47232e53a97b13619ea482076",
    ("pgl2", 27): "b0a2166a5eb61b7b5e9368be66f392e83999c74e19798d04d81339789eb550d3",
    ("pgl2", 32): "a3516a75888e765fca0b00e6d0060f6a6d94dddb923aa8f0ff8b759f4eb2582e",
    ("pgl2", 49): "356403da6fe38aee0d1331350dbcb052251f346d9f50b191ff974891d40276fa",
}


@pytest.mark.parametrize("family,q", sorted(TABLE_DIGESTS))
def test_rendered_tables_are_pinned(family, q):
    text = json.dumps(render_table(gen_table(family, q)), indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[family, q]
