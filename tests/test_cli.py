"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from helixpq.chartab import parse_table, validate
from helixpq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- gen / validate -----------------------------------------------------------

def test_gen_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _, _ = run(capsys, "gen", "--family", "pgl2", "--q", "9",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", "--table", str(path))
    assert code == 0
    assert "result: ok" in out


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "--family", "psl2", "--q", "27", "--out", str(a))
    run(capsys, "gen", "--family", "psl2", "--q", "27", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_validate_flags_corrupt_table(tmp_path, capsys):
    path = tmp_path / "t.json"
    run(capsys, "gen", "--family", "psl2", "--q", "5", "--out", str(path))
    data = json.loads(path.read_text())
    data["characters"][1]["values"]["1a"] = 999
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--table", str(path))
    assert code == 1
    assert "INVALID" in out


@pytest.mark.parametrize("command,term", [
    ("validate", [0, -1.4, 1]),  # read as -1 and passed validation before
    ("pq", [0, 1, 0]),           # ended in a ZeroDivisionError traceback before
])
def test_bad_table_term_is_a_data_error(tmp_path, capsys, command, term):
    path = tmp_path / "t.json"
    run(capsys, "gen", "--family", "psl2", "--q", "5", "--out", str(path))
    data = json.loads(path.read_text())
    data["characters"][1]["values"]["3a"] = {"conductor": 3, "terms": [term]}
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, "--table", str(path))
    assert code == 1
    assert "result: ok" not in out
    assert err.startswith("helixpq: error:") and "term" in err


def test_value_outside_the_power_maps_galois_field_is_a_failed_check(tmp_path, capsys):
    # zeta_8 at the order-5 class 5a: the power map 5a^2 asks for the Galois
    # twist by 2, which does not exist in Q(zeta_8), and raised before
    path = tmp_path / "t.json"
    run(capsys, "gen", "--family", "psl2", "--q", "5", "--out", str(path))
    data = json.loads(path.read_text())
    data["characters"][1]["values"]["5a"] = {"conductor": 8, "terms": [[1, 1]]}
    path.write_text(json.dumps(data))
    report = validate(parse_table(path.read_text()))
    assert not report.ok
    assert "power-map-galois[5a^2]: st at 5a has conductor 8, not coprime to 2" \
        in report.problems
    code, out, err = run(capsys, "validate", "--table", str(path))
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == "result: INVALID"


# sha256 of stdout and of each file written, for the README's examples run
# in order in one directory (`verify` reads the file `solve --out` wrote),
# plus `pq gen:psl2:16 --format json`; recorded at 63eaf0d, and again when
# every order became one joint system: in the order-2 and order-6 solves and
# both pq runs only "strategy" ("plain" to "joint") and "detail" moved
README_EXAMPLES = [
    (("gen", "--family", "psl2", "--q", "27", "--out", "psl2_27.json"), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     {"psl2_27.json": "630916a8e01d3e16840e15be92043587586b9d3fcd750a581737db211f481e75"}),
    (("validate", "--table", "psl2_27.json"), 0,
     "362de95c0ae2f079500f88c4c0a9c297a85e0ffd4d8b11de1a01f9c81478de64", {}),
    (("solve", "--table", "embedded:psp4_7_partial", "--chars", "phi",
      "--order", "2", "--format", "text"), 0,
     "1dae61e9c788c45de440a73e0ece549dd9ffc3a69fa349dc34cc70746e1e652b", {}),
    (("solve", "--table", "gen:psl2:243", "--chars", "deg=121", "--order", "33",
      "--s-constant", "11", "--format", "text"), 0,
     "b8ce5faf956cc42acc5e6776c725bb1d111abf07157002839e0a1f350b9c45ed", {}),
    (("solve", "--table", "embedded:psl2_2f_rows", "--chars", "all", "--order", "6",
      "--format", "json", "--out", "solutions.json"), 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     {"solutions.json": "1bd13f2a8424a91e31799c8f72f2ba5914b0f3652653de1597e24a1ab0d6ea2e"}),
    (("verify", "--table", "embedded:psl2_2f_rows", "--chain", "solutions.json",
      "--order", "6"), 0,
     "09dfb39f53734e004ddc6a1f9a0e89919d701e18610845161019c16b4b21296f", {}),
    (("pq", "--table", "gen:psl2:5", "--format", "text"), 0,
     "a2e8806c4ddbdcbea8cf23d858bcd00057ca6ac59aca3a8b1ffa06dc7ab52bbc", {}),
    (("pq", "--table", "gen:psl2:16", "--format", "json"), 0,
     "4a7bfa622e66740677083f91b18c25fd10a4c4dc3f5631450f5aa8b4c7a6671e", {}),
]


def test_readme_examples_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, want_code, want_out, want_files in README_EXAMPLES:
        before = set(tmp_path.iterdir())
        code, out, _ = run(capsys, *argv)
        assert code == want_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want_out, argv
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(set(tmp_path.iterdir()) - before)
        }
        assert written == want_files, argv


# exit code and sha256 of `solve --format json` stdout: the six solves of
# perfbench/workloads.py SOLVES (same tables, characters, orders and caps),
# then the collapsed PSL(2,7) order-6 solve, whose chain file `verify`
# reads back (its stdout digest is the last entry); recorded at 00953fd, and
# again when every order became one joint system: in the first six only
# "strategy" ("plain" to "joint") and "detail" (the combination count
# dropped) moved
SOLVE_JSON = [
    (("--table", "embedded:l3_17_aut_partial", "--chars", "chi306,chi4912,chi9216",
      "--order", "51"), 0,
     "dd65071174a2130d0e0c7ba1d4a480ff74d8b3eda45db861e3dcf245589d453c"),
    (("--table", "embedded:pgl2_243_rows", "--order", "11", "--cap", "20000"), 2,
     "6623fc2d5b3ebc81c3d09961fdcd402100ecd7a89bfff0012b18d23b4d424487"),
    (("--table", "embedded:pgl2_3f_rows", "--order", "6"), 0,
     "dd1a916c9bbd3c05738cb9d3bf7399ea71f698632f476e3d0dda45895445b7e0"),
    (("--table", "embedded:psl2_3f_eta", "--order", "6"), 0,
     "e30eee05a1421af4655b9fa54d93c84529f3516ba0a105774db025ab5174d029"),
    (("--table", "gen:psl2:25", "--order", "39"), 0,
     "b9607559147709520c45fae1c802647360f5b52ea6516114804aa947ea0a1654"),
    (("--table", "gen:psl2:25", "--order", "26"), 0,
     "788ba906c494a59e12db0577f8b6bff42948d9df67b53af5297f4dd3cf536c9a"),
    (("--table", "gen:psl2:7", "--order", "6", "--s-constant", "2", "--chars", "st"), 0,
     "9779aa6825ee73c445a7d725cc157d35d6683d42b26f1271df1c4b3a90f1765c"),
]
VERIFY_C6_SHA256 = "cbbe09687b127839dc4aad652ecc17ce3825046ec314843fdf7078609576800e"


def test_solve_json_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HELIX_PQ_CAP", raising=False)
    for argv, want_code, want in SOLVE_JSON:
        code, out, _ = run(capsys, "solve", *argv, "--format", "json")
        assert code == want_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv
    path = tmp_path / "c6.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--table", "gen:psl2:7", "--chars", "st",
                       "--chain", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_C6_SHA256


# --- solve ----------------------------------------------------------------------

def test_solve_involutions_text(capsys):
    code, out, _ = run(capsys, "solve", "--table", "embedded:psp4_7_partial",
                       "--chars", "phi", "--order", "2")
    assert code == 0
    assert "count: 3" in out
    assert "status: finite" in out


def test_solve_json_matches_text_count(capsys):
    code, out, _ = run(capsys, "solve", "--table", "embedded:psp4_7_partial",
                       "--chars", "chi,phi", "--order", "10",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 0 and blob["status"] == "finite"
    assert blob["characters"] == ["chi", "phi"]


def test_solve_output_is_deterministic(capsys):
    args = ("solve", "--table", "gen:psl2:16", "--order", "6",
            "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_solve_degree_selector(capsys):
    code, out, _ = run(capsys, "solve", "--table", "embedded:psl2_3f_eta",
                       "--chars", "deg=13", "--order", "6")
    assert code == 0
    assert "characters: eta, eta_prime" in out


@pytest.mark.parametrize("selector", ["deg=x", "st,deg=1.5", "deg="])
def test_bad_degree_selector_is_named(capsys, selector):
    # a non-integer degree was reported as int()'s "invalid literal" message
    code, out, err = run(capsys, "solve", "--table", "gen:psl2:5",
                         "--chars", selector, "--order", "6")
    token = selector.split(",")[-1]
    assert (code, out) == (1, "")
    assert err == f"helixpq: error: bad character selector {token!r} (want deg=N)\n"


def test_pq_refuses_an_empty_character_selection(capsys):
    # it reported every pair as having no character constant on the
    # aggregated classes, though no pair was aggregated
    code, out, err = run(capsys, "pq", "--table", "gen:psl2:5", "--chars", ",")
    assert (code, out) == (1, "")
    assert err == "helixpq: error: need at least one character\n"


def test_pq_refuses_an_empty_pair_selection(capsys):
    # it printed "verdict: HeLP_sufficient" and exited 0 with no pair checked
    for pairs in (";", ""):
        code, out, err = run(capsys, "pq", "--table", "gen:psl2:7", "--pairs", pairs)
        assert (code, out) == (1, "")
        assert err == "helixpq: error: need at least one pair\n"


def test_solve_aggregated(capsys):
    code, out, _ = run(capsys, "solve", "--table", "gen:psl2:32",
                       "--chars", "st", "--order", "62",
                       "--s-constant", "31")
    assert code == 0
    assert "count: 0" in out
    assert "collapse[31]" in out


def test_solve_cap_exit_2(capsys):
    code, out, _ = run(capsys, "solve", "--table", "gen:psl2:32",
                       "--order", "6", "--cap", "1")
    assert code == 2
    assert "status: capped" in out


def test_solve_cap_over_several_combinations_prints_cap_chains(capsys):
    code, out, _ = run(capsys, "solve", "--table", "embedded:pgl2_3f_rows",
                       "--order", "6", "--cap", "20", "--format", "json")
    assert code == 2
    blob = json.loads(out)
    assert blob["status"] == "capped" and blob["count"] == 20 == len(blob["chains"])


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HELIX_PQ_CAP", "1")
    code, out, _ = run(capsys, "solve", "--table", "gen:psl2:32",
                       "--order", "6")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("solve", "--table", "gen:psl2:5", "--order", "6", "--cap", "-1"),
    ("solve", "--table", "gen:psl2:32", "--chars", "st", "--order", "62",
     "--s-constant", "31", "--cap", "-1"),
    ("pq", "--table", "gen:psl2:5", "--cap", "-1"),
], ids=["solve", "s_constant", "pq"])
def test_negative_cap_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "cap must be nonnegative, got -1" in err


def test_negative_cap_env_var_rejected(capsys, monkeypatch):
    monkeypatch.setenv("HELIX_PQ_CAP", "-1")
    code, _, err = run(capsys, "solve", "--table", "gen:psl2:5", "--order", "6")
    assert code == 1
    assert "cap must be nonnegative, got -1" in err


def test_non_integer_cap_env_var_named(capsys, monkeypatch):
    monkeypatch.setenv("HELIX_PQ_CAP", "x")
    code, _, err = run(capsys, "pq", "--table", "gen:psl2:5")
    assert code == 1
    assert "HELIX_PQ_CAP must be an integer, got 'x'" in err


def test_negative_cap_is_a_typed_api_error():
    from helixpq import engine, pq, psl2

    table = psl2.gen_table("psl2", 5)
    with pytest.raises(engine.EngineError, match="nonnegative"):
        engine.solve_order(table, table.characters, 6, cap=-1)
    with pytest.raises(engine.EngineError, match="nonnegative"):
        engine.solve_s_constant(table, table.characters, 3, 2, cap=-1)
    with pytest.raises(engine.EngineError, match="nonnegative"):
        pq.pq_check(table, cap=-1)


def test_solve_error_cases(capsys):
    code, _, err = run(capsys, "solve", "--table", "embedded:nope",
                       "--order", "2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "solve", "--table", "gen:psl2:243",
                       "--chars", "chi121", "--order", "33")
    assert code == 1 and "no character named" in err
    code, _, err = run(capsys, "solve", "--table", "gen:psl2:6",
                       "--order", "2")
    assert code == 1
    code, _, err = run(capsys, "solve", "--table", "embedded:psp4_7_partial",
                       "--order", "10", "--s-constant", "3")
    assert code == 1 and "does not divide" in err


@pytest.mark.parametrize("s", ["0", "-2"])
def test_solve_refuses_a_non_positive_s_constant(capsys, s):
    # S = 0 ran the plain solve and exited 0; S < 0 split on its sign
    code, out, err = run(capsys, "solve", "--table", "gen:psl2:7", "--order", "6",
                         "--s-constant", s)
    assert (code, out) == (1, "")
    assert err == f"helixpq: error: --s-constant {s} is not a positive integer\n"


@pytest.mark.parametrize("order", ["0", "-6"])
def test_solve_refuses_a_unit_order_below_2(capsys, order):
    # the message came from factoring the order: "positive integer required"
    code, out, err = run(capsys, "solve", "--table", "gen:psl2:7", "--order", order)
    assert (code, out) == (1, "")
    assert err == f"helixpq: error: unit order must be at least 2, got {order}\n"


@pytest.mark.parametrize("source", ["gen:psl2:x", "gen:psl2:3.0", "gen:psl2"])
def test_bad_generated_table_source_is_named(capsys, source):
    # a non-integer q was reported as int()'s "invalid literal" message
    code, out, err = run(capsys, "validate", "--table", source)
    assert (code, out) == (1, "")
    assert err == (f"helixpq: error: bad generated-table source {source!r} "
                   f"(want gen:psl2:Q or gen:pgl2:Q)\n")


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--order", "2"])  # no --table
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# --- verify ----------------------------------------------------------------------

@pytest.fixture()
def chain_file(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--table", "embedded:psp4_7_partial",
                       "--chars", "phi", "--order", "2", "--format", "json")
    assert code == 0
    chain = json.loads(out)["chains"][0]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    return path


def test_verify_accepts_solver_output(chain_file, capsys):
    code, out, _ = run(capsys, "verify", "--table", "embedded:psp4_7_partial",
                       "--chars", "phi", "--chain", str(chain_file),
                       "--order", "2")
    assert code == 0
    assert "satisfied" in out


def test_verify_rejects_corrupt_chain(chain_file, tmp_path, capsys):
    chain = json.loads(chain_file.read_text())
    chain["entries"]["2"] = {"2a": 30, "2b": -29}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(chain))
    code, out, _ = run(capsys, "verify", "--table", "embedded:psp4_7_partial",
                       "--chain", str(bad))
    assert code == 1
    assert "VIOLATED" in out


def test_verify_order_cross_check(chain_file, capsys):
    code, _, err = run(capsys, "verify", "--table", "embedded:psp4_7_partial",
                       "--chain", str(chain_file), "--order", "10")
    assert code == 1
    assert "does not match" in err


def test_verify_order_zero_is_cross_checked(chain_file, capsys):
    # --order 0 skipped the cross-check and reported the chain satisfied
    code, out, err = run(capsys, "verify", "--table", "embedded:psp4_7_partial",
                         "--chain", str(chain_file), "--order", "0")
    assert (code, out) == (1, "")
    assert err == ("helixpq: error: --order 0 does not match the chain's unit "
                   "order 2\n")


def test_verify_refuses_a_unit_order_below_2(tmp_path, capsys):
    # a chain of unit order 1 has no levels, so it was reported satisfied
    # with 0 rows checked, while solve --order 1 is refused
    path = tmp_path / "u1.json"
    path.write_text(json.dumps({"unit_order": 1, "entries": {}}))
    code, out, err = run(capsys, "verify", "--table", "gen:psl2:7",
                         "--chain", str(path))
    assert (code, out) == (1, "")
    assert err == "helixpq: error: unit order must be at least 2, got 1\n"


def test_verify_accepts_whole_solver_file(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--table", "embedded:psl2_2f_rows",
                       "--chars", "all", "--order", "6", "--format", "json")
    assert code == 0
    path = tmp_path / "solutions.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--table", "embedded:psl2_2f_rows",
                       "--chain", str(path), "--order", "6")
    assert code == 0
    assert out.count("satisfied") == 3


def test_verify_reads_what_solve_s_constant_writes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "solve", "--table", "gen:psl2:7", "--order", "6",
                     "--s-constant", "2", "--chars", "st", "--format", "json",
                     "--out", "c6.json")
    assert code == 0
    verify = ("verify", "--table", "gen:psl2:7", "--chars", "st", "--chain")
    code, out, _ = run(capsys, *verify, "c6.json")
    assert code == 0 and "satisfied" in out
    (chain,) = json.loads((tmp_path / "c6.json").read_text())["chains"]
    assert chain["entries"]["6"] == {"3a": 3, "~2": -2}
    chain["entries"]["6"] = {"3a": 10, "~2": -9}
    (tmp_path / "bad.json").write_text(json.dumps(chain))
    code, out, _ = run(capsys, *verify, "bad.json")
    assert code == 1 and "VIOLATED" in out
    chain["entries"]["6"] = {"2a": 0, "3a": 3, "~2": -2}
    (tmp_path / "mixed.json").write_text(json.dumps(chain))
    code, _, err = run(capsys, *verify, "mixed.json")
    assert code == 1
    assert err == "helixpq: error: level 6: class '2a' is also counted in '~2'\n"


def test_verify_rejects_empty_chain_list(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"chains": []}))
    code, _, err = run(capsys, "verify", "--table", "embedded:psl2_2f_rows",
                       "--chain", str(path))
    assert code == 1
    assert "empty chain list" in err


def test_verify_names_a_chain_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "notes.txt"
    path.write_text("not json")
    code, out, err = run(capsys, "verify", "--table", "gen:psl2:7",
                         "--chain", str(path))
    assert code == 1 and out == ""
    assert err == (f"helixpq: error: {path}: not valid JSON: "
                   f"Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("chain, edit, field", [
    ({"unit_order": 6, "entries": [1, 2]}, None, "chain entries"),
    ({"unit_order": 2, "entries": {"2": [1]}}, None, "chain entries['2']"),
    ({"chains": 5}, None, "chains"),
    (None, lambda t: t.update(classes=5), "classes"),
    (None, lambda t: t["classes"][1].update(power_maps=[2]), "power_maps"),
    (None, lambda t: t["characters"][1].update(values=[1]), "values"),
    ({"unit_order": 2, "entries": {"2": {"2a": 1.7}}}, None,
     "chain entries['2']['2a'] must be an integer"),
    (None, lambda t: t.update(order=[60]), "order must be an integer"),
    (None, lambda t: t["classes"][1]["power_maps"].update(x="1a"),
     "class '2a': power-map key must be an integer, got 'x'"),
    # the later of two keys that read as one integer won without a word:
    # the chain verified as satisfied, the table validated ok
    ({"unit_order": 2, "entries": {"02": {"2a": 3}, "2": {"2a": 1}}}, None,
     "chain entries '02' and '2' name the same level 2"),
    (None, lambda t: t["classes"][1].update(
        power_maps={"02": "2a", **t["classes"][1]["power_maps"]}),
     "class '2a': power-map keys '02' and '2' name the same prime 2"),
    # the message came from factoring the order: "positive integer required"
    *[({"unit_order": n, "entries": {}}, None,
       f"chain unit_order must be at least 1, got {n}") for n in (0, -6)],
    (None, lambda t: t["characters"][1].update(characteristic=10**30 + 57),
     "characteristic: 1000000000000000000000000000057 is too large"),
    # int() read 5.5 as conductor 5 and True as 1
    *[(None, lambda t, n=n: t["characters"][1]["values"].update(
        {"3a": {"conductor": n, "terms": [[0, 1, 1]]}}),
       f"character 'st': bad value on class '3a': malformed cyclotomic value "
       f"{{'conductor': {n!r}") for n in (5.5, 5.0, True)],
    # building Phi_n for the reduction ended in an OverflowError traceback
    (None, lambda t: t["characters"][1]["values"].update(
        {"3a": {"conductor": 10**30, "terms": [[0, 1, 1]]}}),
     "character 'st': bad value on class '3a': "
     "conductor 1000000000000000000000000000000 is too large"),
    # a term past phi(n) needs the n x phi(n) reduction table: building it
    # ended in a MemoryError traceback
    (None, lambda t: t["characters"][1]["values"].update(
        {"3a": {"conductor": 10**18, "terms": [[5 * 10**17 + 1, 1, 1]]}}),
     "character 'st': bad value on class '3a': conductor 1000000000000000000 "
     "needs a reduction table of 1000000000000000000 x 400000000000000000 "
     "entries, more than the limit of 10000000"),
], ids=["entries-list", "level-list", "chains-int", "classes-int",
        "power-maps-list", "values-list", "augmentation-float", "order-list",
        "power-map-key", "duplicate-level", "duplicate-power-map-key",
        "unit-order-0", "unit-order-negative", "huge-characteristic", "conductor-5.5",
        "conductor-5.0", "conductor-true", "huge-conductor",
        "huge-reduction-table"])
def test_malformed_json_is_a_data_error(tmp_path, capsys, chain, edit, field):
    # each is a data error: not a traceback, and no float read as an integer
    table = tmp_path / "t.json"
    run(capsys, "gen", "--family", "psl2", "--q", "5", "--out", str(table))
    if chain is None:
        data = json.loads(table.read_text())
        edit(data)
        table.write_text(json.dumps(data))
        argv = ("validate", "--table", str(table))
    else:
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain))
        argv = ("verify", "--table", str(table), "--chain", str(path))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("helixpq: error:") and field in err


# --- pq --------------------------------------------------------------------------

def test_pq_sufficient_group(capsys):
    code, out, _ = run(capsys, "pq", "--table", "gen:psl2:5")
    assert code == 0
    assert "HeLP_sufficient" in out


def test_pq_json_and_pair_filter(capsys):
    code, out, _ = run(capsys, "pq", "--table", "gen:psl2:16",
                       "--pairs", "2,3", "--format", "json")
    assert code == 0  # finitely many candidate chains is a decided outcome
    blob = json.loads(out)
    assert blob["verdict"] == "HeLP_insufficient"
    assert len(blob["pairs"]) == 1
    assert blob["pairs"][0]["outcome"] == "undecided"


def test_pq_capped_exit_2(capsys):
    code, out, _ = run(capsys, "pq", "--table", "gen:psl2:16",
                       "--pairs", "2,3", "--cap", "1")
    assert code == 2


def test_pq_edge_pair_rejected(capsys):
    code, _, err = run(capsys, "pq", "--table", "gen:psl2:16",
                       "--pairs", "3,5")
    assert code == 1
    assert "not missing" in err


@pytest.mark.parametrize("pairs", ["2", "2,3,5", "2,x;2,3"])
def test_pq_malformed_pairs_chunk_rejected(capsys, pairs):
    code, out, err = run(capsys, "pq", "--table", "gen:psl2:16", "--pairs", pairs)
    assert code == 1
    assert out == ""
    chunk = pairs.split(";")[0]
    assert f"--pairs chunk {chunk!r} is not two comma-separated integers" in err


def test_pq_repeated_prime_pair_rejected(capsys):
    code, out, err = run(capsys, "pq", "--table", "gen:psl2:16", "--pairs", "2,2")
    assert code == 1
    assert out == ""
    assert "requested pair (2, 2) is not two distinct integers" in err


# --- installed entry point ---------------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "helixpq.cli", "validate",
         "--table", "embedded:pgl2_243_rows"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: ok" in proc.stdout


def test_package_imports_without_sympy():
    modules = ", ".join(f"helixpq.{m}" for m in (
        "cli", "chartab", "cyclo", "engine", "lattice", "pq", "psl2", "datasets"))
    code = f"import sys, {modules}; sys.exit('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "sympy was imported"


def test_package_imports_without_dataclasses():
    # the records are NamedTuples and plain classes; dataclasses would pull
    # in inspect, ast, dis and tokenize, and generate code for each record
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import helixpq.chartab, helixpq.datasets, helixpq.engine, helixpq.pq, helixpq.psl2; "
            "sys.exit('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "dataclasses was imported"


def test_huge_order_is_an_error_not_a_hang():
    # solve_order factors the order first; a prime beyond the primality
    # bound is refused at once rather than trial-divided for ever
    proc = subprocess.run(
        [sys.executable, "-m", "helixpq.cli", "solve", "--table", "gen:psl2:5",
         "--order", str(10**30 + 57)],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("helixpq: error:")
