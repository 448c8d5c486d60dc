"""Golden-output tests for the CLI on the 7x7 worked example: the full JSON
stdout of `verify`, of `charpoly --method both --canonical` and of the four
commands that read the parametric hull (`factor`, `roots`, `plot-data` and
`eigenvalue --method all`), and the JSON and TSV stdout of `circuits`, byte
for byte, so a kernel change that alters any reported figure fails here.

The worked example has integer entries (D = 1) and one class that holds a
circuit. A second input, a reducible 8x8 matrix with fractional entries
(D = 12), has three: a 2-cycle that is one circuit, a loop, and a class of
two circuits that share vertices, with two vertices on no circuit. Its JSON stdout
of `verify`, `circuits`, `eigenvalue --method all` and `charpoly --method
both --canonical` is pinned the same way."""

from pathlib import Path

import pytest

from minplus.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = "demos/data/worked_example_7x7.txt"
REDUCIBLE = "tests/data/cli/reducible_8x8.txt"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify", ("verify", "--format", "json", EXAMPLE)),
        ("charpoly", ("charpoly", "--method", "both", "--canonical", "--format", "json", EXAMPLE)),
        ("factor", ("factor", "--format", "json", EXAMPLE)),
        ("roots", ("roots", "--format", "json", EXAMPLE)),
        ("plot-data", ("plot-data", "--format", "json", EXAMPLE)),
        ("eigenvalue", ("eigenvalue", "--method", "all", "--format", "json", EXAMPLE)),
    ],
)
def test_worked_example_prints_golden_json(name, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the report names its input path as given
    assert main(list(argv)) == 0
    expected = (ROOT / "tests" / "data" / "cli" / f"worked_example_7x7.{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_worked_example_prints_golden_circuits(fmt, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["circuits", "--format", fmt, EXAMPLE]) == 0
    expected = (ROOT / "tests" / "data" / "cli" / f"worked_example_7x7.circuits.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify", ("verify", "--format", "json", REDUCIBLE)),
        ("circuits", ("circuits", "--format", "json", REDUCIBLE)),
        ("eigenvalue", ("eigenvalue", "--method", "all", "--format", "json", REDUCIBLE)),
        ("charpoly", ("charpoly", "--method", "both", "--canonical", "--format", "json", REDUCIBLE)),
    ],
)
def test_reducible_matrix_prints_golden_json(name, argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(list(argv)) == 0
    expected = (ROOT / "tests" / "data" / "cli" / f"reducible_8x8.{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
