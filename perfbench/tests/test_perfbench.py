"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _size(op):
    s = op.subject
    return len(s.rows) if isinstance(s, workloads.MatrixInput) else len(s.coeffs)


def _one_per_command(ops):
    """The cheapest op of each distinct command line shape."""
    picked = {}
    for op in sorted(ops, key=_size):
        if op.known_defect is None:
            picked.setdefault(op.label, op)
    return list(picked.values())


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    """Op lists per workload, inputs written to a temp dir."""
    run.WORK_DIR = str(tmp_path_factory.mktemp("work"))
    return {name: run.setup(name, 7)[1] for name in workloads.WORKLOADS}


@pytest.fixture
def cli(programs):
    # each set-up re-imports minplus; tracing patches the current modules
    return sys.modules["minplus.cli"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.generate(workload, 11, "w")
    second = workloads.generate(workload, 11, "w")
    other = workloads.generate(workload, 12, "w")
    assert first[0] == second[0]
    assert [op.argv for op in first[1]] == [op.argv for op in second[1]]
    assert first[0] != other[0]


def test_metric_names_match_benchmark_json(programs, cli):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    ops = sorted(programs["poly-highdeg"], key=_size)[: run.TAIL_SAMPLES + 2]
    scaled, wall, verdicts, attempted, _ = run.measure(cli, ops, 0)
    assert attempted == run.MIN_PASSES * len(ops)  # whole passes only
    emitted, _ = run.end_to_end(scaled, wall, verdicts, [(1.0, 1.0)])
    assert {k: v["unit"] for k, v in emitted.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in emitted.values())

    layer, _, _, _ = run.traced_run(cli, ops, str(Path(run.WORK_DIR) / "spans.jsonl"))
    assert {k: v["unit"] for k, v in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [(n, b) for n, _, b in tracer.PER_LAYER] == [(m["name"], m["better"]) for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _output(cli, op):
    _, code, stdout, error = run.run_op(cli, op)
    assert error is None
    return code, stdout


def test_checker_flags_corrupted_outputs(programs, cli):
    odd = "12345/7"
    corruptions = {
        "charpoly": lambda p: p["tropdet"]["coeffs"].__setitem__(1, odd),
        "factor": lambda p: p["factors"][0].__setitem__("multiplicity", p["factors"][0]["multiplicity"] + 1),
        "roots": lambda p: p.__setitem__("xpower", p["xpower"] + 1),
        "eigenvalue": lambda p: p.__setitem__("flv", odd),
        "plot-data": lambda p: p[0].__setitem__("y", odd),
        "circuits": lambda p: p["circuits"].pop(),
        "verify": lambda p: p["checks"][2]["details"][0].__setitem__("coefficient", odd),
    }
    seen = set()
    for ops in programs.values():
        for op in _one_per_command(ops):
            code, stdout = _output(cli, op)
            assert check.check(op, code, stdout) is None, op.label
            payload = json.loads(stdout)
            corruptions[op.argv[0]](payload)
            assert check.check(op, code, json.dumps(payload)) is not None, op.label
            seen.add(op.argv[0])
            if op.argv[0] != "verify":
                assert check.check(op, 4, stdout) is not None
    assert seen == set(corruptions)


def test_traced_and_untraced_outputs_are_identical(programs, cli):
    for ops in programs.values():
        ops = _one_per_command(ops)
        plain = [_output(cli, op) for op in ops]
        trace = tracer.Tracer()
        originals = {name: getattr(sys.modules["minplus.cli"], name) for name in ("main", "parse_matrix")}
        trace.install()
        try:
            spanned = [_output(cli, op) for op in ops]
        finally:
            trace.uninstall()
        assert plain == spanned
        assert trace.spans and trace.counts
        for name, fn in originals.items():
            assert getattr(sys.modules["minplus.cli"], name) is fn


def test_self_times_fit_in_traced_wall_time(programs, cli):
    ops = _one_per_command(programs["verify-circuits"])
    layer, _, _, _ = run.traced_run(cli, ops, str(Path(run.WORK_DIR) / "spans.jsonl"))
    assert 0 < layer["trace.self_s_sum"]["value"] <= layer["trace.ops_wall_s"]["value"]
