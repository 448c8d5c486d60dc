"""minplus benchmark: drives `minplus.cli.main(argv)` in-process.

    python3 perfbench/run.py --workload charpoly-dense --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each op (one CLI
command on a generated input file, always `--format json`) starts when
the previous one has finished. Outputs are checked exactly, outside the
timed interval. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 times the workload's fixed list of timed ops in whole passes,
at least three, for about --seconds, and reports the end-to-end metrics.
Times are reported at a fixed reference speed (see `probe`), so that
the figures follow the program, not the load on a shared host. --trace 1
runs the whole list (the timed ops and the larger traced-only inputs)
once untraced and once with spans and counters installed around the
public functions of each module, checks both give identical outputs,
and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "minplus").is_dir():
    sys.exit(f"no minplus sources under {ROOT / 'src'}: run from a minplus checkout")
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = "perfbench/out"
SETUP_REPEATS = 5
MIN_PASSES = 3  # a median of three executions drops one disturbed execution
PROBE_BURST = 5  # probes before and after each set-up
PROBE_WINDOW = 3  # probes on each side of an op that set its speed
TAIL_SAMPLES = 10  # the tail percentile keeps this many samples beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def load_program():
    """Import minplus afresh, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "minplus" or n.startswith("minplus.")]:
        del sys.modules[name]
    return importlib.import_module("minplus.cli")


PROBE_N = 9
_PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 23 - 9, 1 + (i + 2 * j) % 4) for j in range(PROBE_N)] for i in range(PROBE_N)]
# The nominal time of `probe`'s work: its median on a 2-vCPU x86-64 host
# with Python 3.11 running at its usual speed.
REFERENCE_S = 0.005


def probe() -> float:
    """Seconds for a fixed piece of reference work: two min-plus squarings
    of a small Fraction matrix, in this file, so no change to minplus
    moves it. On a shared host the speed of the machine drifts by a third
    over minutes; an op and the probes run right before and after it slow
    down together, and their ratio does not."""
    start = perf_counter()
    a = _PROBE_MATRIX
    for _ in range(2):
        a = [[min(a[i][k] + a[k][j] for k in range(PROBE_N)) for j in range(PROBE_N)] for i in range(PROBE_N)]
    return perf_counter() - start


def at_reference_speed(seconds: float, probes) -> float:
    """`seconds` of wall time, rescaled to the host speed at which the
    probe takes REFERENCE_S, from the median of the probe times around it."""
    return seconds * REFERENCE_S / statistics.median(probes)


def run_op(cli, op: workloads.Op) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, stdout, name of an uncaught exception)."""
    out = io.StringIO()
    error = None
    gc.collect()  # garbage of earlier ops is not this op's cost
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            code, error = None, type(exc).__name__
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), error


def setup(workload: str, seed: int):
    cli = load_program()
    workdir = f"{WORK_DIR}/{workload}"
    files, ops = workloads.generate(workload, seed, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    # warm-up: each command once, on its smallest input
    smallest: dict[str, workloads.Op] = {}
    for op in ops:
        if not op.timed:
            continue
        size = os.path.getsize(op.subject.path)
        if op.argv[0] not in smallest or size < os.path.getsize(smallest[op.argv[0]].subject.path):
            smallest[op.argv[0]] = op
    for op in smallest.values():
        run_op(cli, op)
    return cli, ops


class Verdicts:
    """Judges each op's outcome once and holds later executions to it."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, tuple] = {}
        self.ok: dict[int, bool] = {}
        self.wrong: dict[int, str] = {}

    def judge(self, index: int, code, stdout: str, error) -> bool:
        op = self.ops[index]
        outcome = (code, stdout, error)
        if index in self.first:
            if outcome != self.first[index]:
                self.ok[index] = False
                self.wrong[index] = "outcome changed between executions"
            return self.ok[index]
        self.first[index] = outcome
        if op.known_defect is not None and op.known_defect in (error, f"exit {code}"):
            self.ok[index] = False
        elif error is not None:
            self.ok[index] = False
            self.wrong[index] = f"raised {error}"
        else:
            reason = check.check(op, code, stdout)
            self.ok[index] = reason is None
            if reason:
                self.wrong[index] = reason
        return self.ok[index]

    @property
    def correct(self) -> bool:
        return not self.wrong

    def report(self) -> None:
        for index, reason in sorted(self.wrong.items()):
            print(f"# WRONG op {index} ({self.ops[index].label}, {self.ops[index].subject.path}): {reason}")
        for index, ok in sorted(self.ok.items()):
            if not ok and index not in self.wrong:
                print(f"# known defect op {index} ({self.ops[index].label}): {self.ops[index].known_defect}")


def measure(cli, ops, seconds: float):
    """Whole passes over the op list, so every op runs equally often; the
    last pass is the one that ends nearest to `seconds`. Returns each op's
    executions at reference speed and in wall time."""
    wall: list[list[float]] = [[] for _ in ops]
    probes = [probe()]  # probes[j] and probes[j + 1] enclose the j-th execution
    verdicts = Verdicts(ops)
    attempted = failed = passes = 0
    start = last = perf_counter()
    while True:
        for index, op in enumerate(ops):
            elapsed, code, stdout, error = run_op(cli, op)
            probes.append(probe())
            wall[index].append(elapsed)
            attempted += 1
            failed += not verdicts.judge(index, code, stdout, error)
        passes += 1
        now = perf_counter()
        if passes >= MIN_PASSES and now - start + (now - last) / 2 >= seconds:
            break
        last = now
    n = len(ops)
    scaled = [
        [
            at_reference_speed(t, probes[max(0, j - PROBE_WINDOW + 1) : j + PROBE_WINDOW + 1])
            for j, t in zip(range(index, len(probes) - 1, n), times)
        ]
        for index, times in enumerate(wall)
    ]
    return scaled, wall, verdicts, attempted, failed


def end_to_end(scaled, wall, verdicts, setups) -> tuple[dict, str]:
    """Each op of the list counts once, at the median of its executions.
    `setups` holds (reference-speed, wall) seconds per set-up."""
    per_op = sorted(statistics.median(t) for t in scaled)
    n = len(per_op)
    tail_rank = n - TAIL_SAMPLES  # 1-based rank with TAIL_SAMPLES samples above it
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": n / sum(per_op),
        "latency_p50_ms": 1000 * statistics.median(per_op),
        "latency_tail_ms": 1000 * per_op[tail_rank - 1],
        "success_ratio": sum(verdicts.ok.values()) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_per_op = sorted(statistics.median(t) for t in wall)
    note = (
        f"latency_tail_ms is p{100 * tail_rank / n:.1f} of {n} per-op median latencies "
        f"({len(scaled[0])} passes); in wall time: setup_s {statistics.median(w for _, w in setups):.4f}, "
        f"ops_per_s {n / sum(wall_per_op):.4f}, latency_p50_ms {1000 * statistics.median(wall_per_op):.2f}, "
        f"latency_tail_ms {1000 * wall_per_op[tail_rank - 1]:.2f}"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, note


def traced_run(cli, ops, spans_path: str):
    verdicts = Verdicts(ops)
    untraced = [run_op(cli, op) for op in ops]
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = []
        for index, op in enumerate(ops):
            trace.op = index
            traced.append(run_op(cli, op))
    finally:
        trace.uninstall()
    failed = 0
    for index, (plain, spanned) in enumerate(zip(untraced, traced)):
        failed += not verdicts.judge(index, *plain[1:])
        failed += not verdicts.judge(index, *spanned[1:])
    trace.write(spans_path)
    values = trace.metrics(len(ops))
    values["cli.output_bytes"] = sum(len(stdout.encode()) for _, _, stdout, _ in traced)
    untraced_s = sum(t for t, *_ in untraced)
    traced_s = sum(t for t, *_ in traced)
    values["trace.ops_per_s_untraced"] = len(ops) / untraced_s
    values["trace.ops_per_s_traced"] = len(ops) / traced_s
    values["trace.overhead_ops_per_s"] = values["trace.ops_per_s_untraced"] - values["trace.ops_per_s_traced"]
    values["trace.ops_wall_s"] = traced_s
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}
    return metrics, verdicts, 2 * len(ops), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    setups = []
    for _ in range(SETUP_REPEATS):
        around = [probe() for _ in range(PROBE_BURST)]
        start = perf_counter()
        cli, ops = setup(args.workload, args.seed)
        elapsed = perf_counter() - start
        around += [probe() for _ in range(PROBE_BURST)]
        setups.append((at_reference_speed(elapsed, around), elapsed))

    if args.trace:
        spans_path = f"{WORK_DIR}/spans-{args.workload}-s{args.seed}.jsonl"
        metrics, verdicts, attempted, failed = traced_run(cli, ops, spans_path)
        note = f"spans in {spans_path}"
    else:
        scaled, wall, verdicts, attempted, failed = measure(cli, [op for op in ops if op.timed], args.seconds)
        metrics, note = end_to_end(scaled, wall, verdicts, setups)
    verdicts.report()
    print(f"# {args.workload} seed {args.seed}: {sum(op.timed for op in ops)} timed ops of {len(ops)}; {note}")
    print(json.dumps({"correct": verdicts.correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
