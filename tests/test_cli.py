import argparse
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from minplus import MinPlusValue, plant_separated_instance
from minplus.cli import _dumps_indented, build_parser, main
from conftest import EXAMPLE_7X7_TEXT


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example7.txt"
    path.write_text(EXAMPLE_7X7_TEXT + "\n")
    return str(path)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def test_charpoly_both_methods(run, example_file):
    code, out, _ = run("charpoly", "--method", "both", example_file)
    assert code == 0
    assert "tropdet coeffs: 0 3 8 6 20 inf inf inf" in out
    assert "flv coeffs: 0 3 6 6 9 12 12 15" in out


def test_charpoly_canonical_json(run, example_file):
    code, out, _ = run("charpoly", "--method", "tropdet", "--canonical", "--format", "json", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["tropdet"]["coeffs"] == [0, 3, 8, 6, 20, "inf", "inf", "inf"]
    assert payload["tropdet"]["canonical_coeffs"] == [0, 2, 4, 6, 20, "inf", "inf", "inf"]


def test_charpoly_identity_and_epsilon(run, tmp_path):
    ident = tmp_path / "identity.txt"
    ident.write_text("0 inf inf\ninf 0 inf\ninf inf 0\n")
    code, out, _ = run("charpoly", "--method", "tropdet", str(ident))
    assert code == 0
    assert "tropdet coeffs: 0 0 0 0" in out

    allinf = tmp_path / "allinf.txt"
    allinf.write_text("inf inf\ninf inf\n")
    code, out, _ = run("charpoly", "--method", "tropdet", str(allinf))
    assert code == 0
    assert "tropdet: x^2\n" in out


def test_factor_and_roots(run, example_file):
    code, out, _ = run("factor", example_file)
    assert code == 0
    assert out.strip() == "(x ⊕ 2)^3 ⊗ (x ⊕ 14) ⊗ x^3"

    code, out, _ = run("factor", "--method", "flv", example_file)
    assert code == 0
    assert out.strip() == "(x ⊕ 2)^6 ⊗ (x ⊕ 3)"

    code, out, _ = run("roots", "--format", "json", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "factors": [
            {"root": 2, "multiplicity": 3},
            {"root": 14, "multiplicity": 1},
        ],
        "xpower": 3,
    }


def test_factor_accepts_polynomial_file(run, tmp_path):
    poly = tmp_path / "quad.json"
    poly.write_text('{"degree": 2, "coeffs": [0, 2, 6]}')
    code, out, _ = run("factor", str(poly))
    assert code == 0
    assert out.strip() == "(x ⊕ 2) ⊗ (x ⊕ 4)"


def test_eigenvalue_all_agree(run, example_file):
    code, out, _ = run("eigenvalue", example_file)
    assert code == 0
    assert "karp: 2" in out
    assert "tropdet: 2" in out
    assert "flv: 2" in out
    assert "agree: true" in out


def test_eigenvalue_acyclic_and_loop(run, tmp_path):
    acyclic = tmp_path / "acyclic.txt"
    acyclic.write_text("inf 1\ninf inf\n")
    code, out, _ = run("eigenvalue", str(acyclic))
    assert code == 0
    assert "karp: inf" in out

    loop = tmp_path / "loop.txt"
    loop.write_text("5\n")
    code, out, _ = run("eigenvalue", "--method", "karp", str(loop))
    assert code == 0
    assert out.strip() == "karp: 5"


def test_circuits_formats(run, example_file):
    code, out, _ = run("circuits", example_file)
    assert code == 0
    assert "circuit 1->3->2 length 3 weight 6 average 2" in out
    assert "separated: false" in out
    assert "min_cycle_mean: 2" in out

    code, out, _ = run("circuits", "--format", "tsv", example_file)
    assert code == 0
    assert "1-3-2\t3\t6\t2" in out

    code, out, _ = run("circuits", "--format", "json", example_file)
    payload = json.loads(out)
    assert payload["separated"] is False
    assert payload["min_cycle_mean"] == 2
    assert len(payload["circuits"]) == 4


def test_plot_data(run, tmp_path):
    poly = tmp_path / "quad.json"
    poly.write_text('{"degree": 2, "coeffs": [0, 2, 6]}')
    code, out, _ = run("plot-data", str(poly))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "anchor x=1 y=2 slope_left=2 slope_right=2"
    assert lines[1] == "breakpoint x=2 y=4 slope_left=2 slope_right=1"
    assert lines[2] == "breakpoint x=4 y=6 slope_left=1 slope_right=0"
    assert lines[3] == "anchor x=5 y=6 slope_left=0 slope_right=0"

    code, out, _ = run("plot-data", "--format", "tsv", str(poly))
    assert code == 0
    assert "2\t4\t2\t1" in out

    pure = tmp_path / "pure.json"
    pure.write_text('{"degree": 3, "coeffs": [0, "inf", "inf", "inf"]}')
    code, out, _ = run("plot-data", str(pure))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith("anchor") for line in lines)

    # no breakpoint: the one finite coefficient c_j fixes the line c_j + (n-j)·x
    for coeffs, expected in (
        ('["inf", 5, "inf"]', ["anchor x=0 y=5 slope_left=1 slope_right=1", "anchor x=1 y=6 slope_left=1 slope_right=1"]),
        ('["7/2"]', ["anchor x=0 y=7/2 slope_left=0 slope_right=0", "anchor x=1 y=7/2 slope_left=0 slope_right=0"]),
    ):
        single = tmp_path / "single.json"
        single.write_text(f'{{"coeffs": {coeffs}}}')
        assert run("plot-data", str(single)) == (0, "\n".join(expected) + "\n", "")

    empty = tmp_path / "empty.json"
    empty.write_text('{"coeffs": ["inf", "inf"]}')
    assert run("plot-data", str(empty)) == (
        2, "", "error: the polynomial has no finite coefficients; nothing to plot\n"
    )


def test_plot_data_from_matrix_flv(run, example_file):
    code, out, _ = run("plot-data", "--method", "flv", "--format", "json", example_file)
    assert code == 0
    payload = json.loads(out)
    breaks = [row for row in payload if row["kind"] == "breakpoint"]
    assert [row["x"] for row in breaks] == [2, 3]


def test_verify_example7(run, example_file):
    code, out, _ = run("verify", "--format", "json", example_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    by_name = {check["check"]: check for check in payload["checks"]}
    assert by_name["coefficients"]["pass"] is True
    assert by_name["separated"]["details"][0]["separated"] is False
    assert by_name["corollary_equivalence"]["hypothesis_met"] is False
    assert by_name["corollary_equivalence"]["pass"] is True
    assert by_name["tropdet_oracle"]["pass"] is True


def test_verify_reports_equivalence_failure(run, tmp_path):
    # two loops with different weights: separated, but the two polynomials
    # are genuinely different functions, so the asserted check fails
    loops = tmp_path / "loops.txt"
    loops.write_text("1 inf\ninf 2\n")
    code, out, _ = run("verify", "--format", "json", str(loops))
    assert code == 4
    payload = json.loads(out)
    assert payload["pass"] is False
    by_name = {check["check"]: check for check in payload["checks"]}
    assert by_name["corollary_equivalence"]["hypothesis_met"] is True
    assert by_name["corollary_equivalence"]["pass"] is False
    assert by_name["separated_factorization"]["pass"] is True


def test_verify_random_separated_reproducible(run):
    code1, out1, _ = run("verify", "--random-separated", "3", "--seed", "11", "--format", "json")
    code2, out2, _ = run("verify", "--random-separated", "3", "--seed", "11", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert len(payload["instances"]) == 3
    for instance in payload["instances"]:
        by_name = {check["check"]: check for check in instance["checks"]}
        assert by_name["separated_factorization"]["pass"] is True
        assert by_name["coefficients"]["pass"] is True


def test_parse_error_exit_code(run, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 oops\n")
    code, _, err = run("charpoly", str(bad))
    assert code == 2
    assert "line 2" in err

    code, _, err = run("charpoly", str(tmp_path / "missing.txt"))
    assert code == 2


def test_parse_errors_count_blank_lines(run, tmp_path):
    # blank lines are skipped, but an error names the line of the file it is on
    cases = {
        "1 2\n\n3 x\n": "error: bad matrix entry 'x' (line 3, column 2)\n",
        "\n\n1 2\n3 4 5\n": "error: expected 2 entries, found 3 (line 4)\n",
        "1 inf\n  \n\t\ninf 2/0\n": "error: bad matrix entry '2/0' (line 4, column 2)\n",
    }
    for k, (text, message) in enumerate(cases.items()):
        path = tmp_path / f"blank{k}.txt"
        path.write_text(text)
        for command in ("circuits", "verify", "charpoly", "factor"):
            assert run(command, str(path)) == (2, "", message)
    ok = tmp_path / "spaced.txt"
    ok.write_text("\n1 inf\n\n   \ninf 2\n\n")
    assert run("circuits", str(ok)) == (0, "circuit 1 length 1 weight 1 average 1\n"
                                            "circuit 2 length 1 weight 2 average 2\n"
                                            "separated: true\nmin_cycle_mean: 1\n", "")


def test_polynomial_file_errors_exit_2(run, tmp_path):
    bad_json = tmp_path / "truncated.json"
    bad_json.write_text('{"coeffs": [0, 1')
    code, out, err = run("factor", str(bad_json))
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: Expecting ',' delimiter (line 1, column 17)\n"

    bad_coeff = tmp_path / "coeff.json"
    bad_coeff.write_text('{"degree": 2, "coeffs": [0, "oops", 1]}')
    code, out, err = run("roots", str(bad_coeff))
    assert (code, out) == (2, "")
    assert err == "error: bad coefficient 'oops' at index 1: not a min-plus value: 'oops'\n"


def test_json_headers_must_be_ints_exit_2(run, tmp_path):
    # "n" and "degree" are counts: a bool or float that equals the count is still refused
    cases = [
        ('{"n": true, "rows": [[1]]}', ("circuits", "verify", "charpoly"), '"n" must be an integer, got True'),
        ('{"n": 1.0, "rows": [[1]]}', ("circuits", "eigenvalue"), '"n" must be an integer, got 1.0'),
        ('{"degree": true, "coeffs": [0, 1]}', ("factor", "roots", "plot-data"), '"degree" must be an integer, got True'),
        ('{"degree": 1.0, "coeffs": [0, 1]}', ("factor",), '"degree" must be an integer, got 1.0'),
    ]
    for k, (text, commands, message) in enumerate(cases):
        path = tmp_path / f"header{k}.json"
        path.write_text(text)
        for command in commands:
            assert run(command, str(path)) == (2, "", f"error: {message}\n")
    path.write_text('{"degree": 1, "coeffs": [0, 1]}')
    assert run("factor", str(path))[0] == 0


def test_cap_exceeded_exit_code(run, example_file):
    code, _, err = run("charpoly", "--cap-subsets", "3", example_file)
    assert code == 3
    assert "capped" in err


def test_hull_commands_above_order_16(run, tmp_path):
    # three planted cycles (lengths 11, 2, 6) and five circuit-free vertices
    matrix, planted = plant_separated_instance(random.Random(6), 24)
    path = tmp_path / "planted24.json"
    path.write_text(json.dumps(matrix.to_json()))
    multiplicity = {}
    for cycle, weights in planted:
        mean = sum(weights) / len(cycle)
        multiplicity[mean] = multiplicity.get(mean, 0) + len(cycle)
    roots = sorted(multiplicity)
    xpower = 24 - sum(multiplicity.values())
    assert len(roots) == 3 and xpower == 5
    expected = {
        "factors": [{"root": MinPlusValue(r).to_json(), "multiplicity": multiplicity[r]} for r in roots],
        "xpower": xpower,
    }

    for command in ("factor", "roots"):
        code, out, _ = run(command, "--format", "json", str(path))
        assert code == 0
        assert json.loads(out) == expected

    code, out, _ = run("plot-data", "--format", "json", str(path))
    assert code == 0
    breaks = [row for row in json.loads(out) if row["kind"] == "breakpoint"]
    assert [row["x"] for row in breaks] == [factor["root"] for factor in expected["factors"]]
    assert breaks[-1]["slope_right"] == xpower

    code, out, _ = run("eigenvalue", "--method", "all", "--format", "json", str(path))
    assert code == 0
    least = expected["factors"][0]["root"]
    assert json.loads(out) == {"karp": least, "tropdet": least, "flv": least, "agree": True}


def test_values_past_the_digit_limit_exit_2(run, tmp_path):
    # 10^4300 has 4301 digits, as does 9·10^4299 + 9·10^4299, the order-2 coefficient below
    loop = tmp_path / "loop.txt"
    loop.write_text("1e4300\n")
    two_loops = tmp_path / "two_loops.txt"
    two_loops.write_text("9e4299 inf\ninf 9e4299\n")
    for argv in (("eigenvalue", str(loop)), ("charpoly", str(two_loops))):
        for fmt in ("text", "json"):
            code, out, err = run(*argv, "--format", fmt)
            assert (code, out) == (2, "")
            assert "4300 digits" in err
            assert "sys.set_int_max_str_digits" not in err


# each command's options, as documented in the README
OPTIONS = {
    "charpoly": {"--method", "--canonical", "--format", "--cap-subsets"},
    "factor": {"--method", "--format"},
    "roots": {"--method", "--format"},
    "plot-data": {"--method", "--format"},
    "eigenvalue": {"--method", "--format"},
    "circuits": {"--format", "--cap-circuits"},
    "verify": {"--random-separated", "--seed", "--size", "--format", "--cap-perms", "--cap-subsets"},
}
CAPS = ("--cap-perms", "--cap-subsets", "--cap-circuits")


def test_each_command_takes_exactly_its_options():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
        for name, parser in commands.choices.items()
    }
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 20
    assert sum(flag in CAPS for flags in found.values() for flag in flags) == 4


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in OPTIONS.items() for flag in CAPS if flag not in flags],
)
def test_a_cap_a_command_does_not_read_is_a_usage_error(command, flag, example_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "3", example_file])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_kept_cap_is_honoured(run, example_file):
    # the example's one strongly connected class with a circuit is {1, 2, 3, 4}, not one
    # circuit: the subset cap bounds its order, not the matrix's order 7
    for command in ("charpoly", "verify"):
        assert run(command, "--cap-subsets", "3", example_file) == (
            3, "", "error: principal-minor enumeration is capped at order 3 "
            "(got a strongly connected class of order 4)\n"
        )
        default = run(command, example_file)
        assert default[0] == 0
        assert run(command, "--cap-subsets", "4", example_file) == default
    # the example has four circuits
    assert run("circuits", "--cap-circuits", "3", example_file) == (
        3, "", "error: circuit enumeration exceeded the cap of 3\n"
    )
    assert run("circuits", "--cap-circuits", "4", example_file)[0] == 0
    code, out, _ = run("verify", "--cap-perms", "6", "--format", "json", example_file)
    assert code == 0
    oracle = json.loads(out)["checks"][0]
    assert (oracle["check"], oracle["hypothesis_met"]) == ("tropdet_oracle", False)
    assert oracle["details"] == [{"note": "order 7 above the brute-force cap 6"}]


def test_random_instances_above_the_subset_cap_fail_before_any_is_built(run):
    started = time.perf_counter()
    code, out, err = run("verify", "--random-separated", "2", "--size", "2000")
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (3, "")
    assert err == "error: principal-minor enumeration is capped at order 16 (got 2000)\n"


def test_closed_stdout_exits_1_without_a_traceback():
    # about 226 KB of JSON, well past a pipe's buffer, so the writer meets the closed pipe
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "minplus", "verify", "--random-separated", "50", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert proc.stdout.read(10) == b'{\n  "seed"'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_verify_complete_order_8(run, tmp_path):
    # every entry finite: about 16 000 circuits, none of them listed, and 2^8 vertex subsets
    rng = random.Random(8)
    path = tmp_path / "complete8.txt"
    path.write_text("\n".join(" ".join(str(rng.randint(-9, 20)) for _ in range(8)) for _ in range(8)) + "\n")
    code, out, _ = run("verify", "--format", "json", str(path))
    assert code in (0, 4)
    by_name = {check["check"]: check for check in json.loads(out)["checks"]}
    details = by_name["coefficients"]["details"]
    assert [d["j"] for d in details] == list(range(1, 9))
    assert all(d["match"] for d in details)


def test_verify_random_separated_above_order_10(run):
    code, out, _ = run("verify", "--random-separated", "3", "--size", "12", "--format", "json")
    assert code in (0, 4)
    instances = json.loads(out)["instances"]
    assert len(instances) == 3
    for instance in instances:
        by_name = {check["check"]: check for check in instance["checks"]}
        factorization = by_name["separated_factorization"]
        assert factorization["hypothesis_met"] is True
        assert factorization["details"][0]["predicted"] == factorization["details"][0]["actual"]
        assert by_name["coefficients"]["pass"] is True


def test_exponent_bomb_is_a_parse_error(run, tmp_path):
    bomb = tmp_path / "bomb.txt"
    bomb.write_text("1e5000000\n")
    started = time.perf_counter()
    code, out, err = run("eigenvalue", str(bomb))
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err == "error: bad matrix entry '1e5000000' (line 1, column 1)\n"

    exact = tmp_path / "exact.txt"
    exact.write_text("1e300 inf\ninf 2.5E-3\n")
    code, out, _ = run("charpoly", "--method", "tropdet", str(exact))
    assert code == 0
    assert f"tropdet coeffs: 0 1/400 {10**300 + Fraction(1, 400)}" in out


def test_output_determinism(run, example_file):
    first = run("verify", "--format", "json", example_file)
    second = run("verify", "--format", "json", example_file)
    assert first == second


def test_usage_error_exits_2(example_file):
    with pytest.raises(SystemExit) as exc:
        main(["circuits", "--format", "yaml", example_file])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        ("charpoly", "--cap-subsets"),
        ("circuits", "--cap-circuits"),
        ("verify", "--cap-perms"),
        ("verify", "--size"),
        ("verify", "--random-separated"),
    ],
)
@pytest.mark.parametrize("value", ["x", "0"])
def test_a_bad_positive_int_is_a_usage_error_that_names_it(command, flag, value, example_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, example_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be a positive integer, got '{value}'\n" in err
    assert "_positive_int" not in err


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one `main` call, a usage error or --help included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_shared_parser_keeps_no_state_between_calls(example_file, capsys):
    sequence = [
        ["charpoly", "--canonical", example_file],
        ["charpoly", "--cap-subsets", "x", example_file],
        ["charpoly", example_file],
        ["verify", "--random-separated", "1", "--seed", "3"],
        ["verify", "--help"],
        ["verify", "--random-separated", "1"],
        ["eigenvalue", "--method", "karp", example_file],
        ["eigenvalue", "--method", "tropdet", "--format", "yaml", example_file],
        ["eigenvalue", example_file],
    ]
    first = []
    for argv in sequence:
        build_parser.cache_clear()
        first.append(_outcome(capsys, argv))
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 0, 0, 0, 2, 0]
    build_parser.cache_clear()
    assert [_outcome(capsys, argv) for argv in sequence] == first


def test_main_builds_its_parser_once(example_file, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **kw: built.append(self) or init(self, *a, **kw)
    )
    build_parser.cache_clear()
    assert main(["roots", example_file]) == 0
    assert len(built) == 1 + len(OPTIONS)  # the root parser and one per command
    for _ in range(20):
        assert main(["roots", example_file]) == 0
    assert len(built) == 1 + len(OPTIONS)
    capsys.readouterr()


def test_deeply_nested_json_is_a_parse_error(run, tmp_path):
    depth = 200_000
    matrix = tmp_path / "deep-matrix.json"
    matrix.write_text('{"rows": [[' + "[" * depth + "]" * depth + "]]}")
    polynomial = tmp_path / "deep-polynomial.json"
    polynomial.write_text('{"coeffs": [0, ' + "[" * depth + "]" * depth + "]}")
    for path in (matrix, polynomial):
        for command in ("charpoly", "factor", "roots"):
            assert run(command, str(path)) == (2, "", "error: invalid JSON: nested too deeply\n")


def test_a_json_input_is_decoded_once(run, tmp_path, monkeypatch):
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(text) or loads(text, **kw))
    matrix = tmp_path / "m.json"
    matrix.write_text('{"rows": [[1, "inf"], ["7/2", 0]]}')
    polynomial = tmp_path / "p.json"
    polynomial.write_text('{"coeffs": [0, 1, 4]}')
    for path in (matrix, polynomial):
        decoded.clear()
        code, _, _ = run("factor", str(path))
        assert code == 0
        assert len(decoded) == 1


@pytest.mark.parametrize(
    "obj",
    [
        # tuples, {} and [] at every depth, and bare scalars
        {},
        [],
        (),
        [[[[]]]],
        {"a": ({}, [], ({"b": [[], {}, ()]},)), "c": [], "d": {}},
        ([{}, [], (), {"x": {}}],),
        5,
        "ε",
        None,
        # records over one key order, the bulk path; then records whose keys or order differ
        [{"kind": "anchor", "x": "-3/2", "y": -18, "slope": 12}, {"kind": "breakpoint", "x": 1, "y": None, "slope": 1.5}],
        {"rows": [{"a": 1, "b": 2}, {"b": 2, "a": 1}]},
        [{"a": 1}, {"b": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [{"a": 1, "v": [1, 2]}, {"a": 2, "v": []}],
        [{}, {}],
        [{"a": 1}, {}],
        # records mixed with scalars and other containers
        [{"a": 1}, 2, {"a": 3}, "x", None, [{"a": 4}]],
        [1, {"a": 1}, {"a": 2}],
        # strings that need escapes, as values and as keys
        {"\n": "a\nb", '"': '"q"', "\\": "\\\\", "\x00": "\x00\x1f", "ε": ["ε", "x \u2297 y", "\ud800"]},
        [{"\n": "\t", "ε": "ε"}, {"\n": "", "ε": "\u2028"}],
        # non-str keys, which json.dumps converts
        {1: "a", "b": [1], None: {}, True: 2.5},
    ],
)
def test_json_writer_equals_json_dumps(obj):
    assert _dumps_indented(obj) == json.dumps(obj, indent=2)


def test_json_writer_meets_the_int_digit_limit_as_json_dumps_does():
    # Python 3.10.7 on limits the digits of an int printed as text (4300 by
    # default, 0 for none); the writer raises json.dumps's ValueError past it
    # and prints the same text as json.dumps where there is no limit.
    big = 10 ** 5000
    objs = (big, [big], {"a": big}, [{"a": big}, {"a": 1}], {"a": [big, {}]})
    if not hasattr(sys, "set_int_max_str_digits"):
        for obj in objs:
            assert _dumps_indented(obj) == json.dumps(obj, indent=2)
        return
    before = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        for obj in objs:
            assert _dumps_indented(obj) == json.dumps(obj, indent=2)
        sys.set_int_max_str_digits(4300)
        for obj in objs:
            with pytest.raises(ValueError) as expected:
                json.dumps(obj, indent=2)
            with pytest.raises(ValueError, match=re.escape(str(expected.value))):
                _dumps_indented(obj)
    finally:
        sys.set_int_max_str_digits(before)
