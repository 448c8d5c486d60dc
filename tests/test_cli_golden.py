"""Golden-output tests for the CLI on the 7x7 worked example: the full JSON
stdout of `verify`, of `charpoly --method both --canonical` and of the four
commands that read the parametric hull (`factor`, `roots`, `plot-data` and
`eigenvalue --method all`), byte for byte, so a kernel change that alters
any reported figure fails here."""

from pathlib import Path

import pytest

from minplus.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE = "demos/data/worked_example_7x7.txt"


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
