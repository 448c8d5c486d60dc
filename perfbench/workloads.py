"""Seeded input generation and the fixed op list of each workload.

An op is one `minplus` command line, always with `--format json`. The
same (workload, seed) gives byte-identical input files and the same op
list. Sizes and counts are fixed per workload; the seed only draws the
values, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

Rows = list[list[Fraction | None]]


@dataclass
class MatrixInput:
    path: str
    rows: Rows
    planted: list | None = None  # (vertex tuple, edge weights) per planted cycle
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.rows)

    def expected(self, key: str):
        """Reference results, computed once per input on first use."""
        if key not in self._memo:
            compute = {
                "tropdet": lambda: oracle.tropdet_coeffs(self.rows),
                "flv": lambda: oracle.flv_coeffs(self.rows),
                "circuits": lambda: oracle.circuits(self.rows),
            }[key]
            self._memo[key] = compute()
        return self._memo[key]


@dataclass
class PolyInput:
    path: str
    coeffs: list[Fraction | None]


@dataclass
class Op:
    argv: tuple[str, ...]
    subject: MatrixInput | PolyInput
    # The documented failure this op shows at the seed commit ("exit 3" or
    # an exception name); it counts as a failed op, not as a wrong answer.
    known_defect: str | None = None
    # False for the ops that only the traced run executes: inputs too large
    # to repeat several times in a timed run, kept for the scaling rows.
    timed: bool = True

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a != self.subject.path and a not in ("--format", "json"))


def _value_text(q: Fraction | None) -> str:
    if q is None:
        return "inf"
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _matrix_text(rows: Rows) -> str:
    return "".join(" ".join(_value_text(x) for x in row) + "\n" for row in rows)


def _entry(values: random.Random, fractional: bool) -> Fraction:
    if fractional:
        return Fraction(values.randint(-40, 80), values.choice((2, 3, 4)))
    return Fraction(values.randint(-20, 40))


def _pattern(shape: random.Random, n: int, density: float) -> tuple[list, set]:
    """Exactly round(density * n^2) finite cells, a fifth of them fractional."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    finite = shape.sample(cells, round(density * n * n))
    return finite, set(shape.sample(finite, round(0.2 * len(finite))))


def _fill(values: random.Random, n: int, pattern: tuple[list, set]) -> Rows:
    finite, fractional = pattern
    rows: Rows = [[None] * n for _ in range(n)]
    for cell in finite:
        rows[cell[0]][cell[1]] = _entry(values, cell in fractional)
    return rows


def _stratified(rng: random.Random, low: float, high: float, count: int) -> list[float]:
    """One draw from each of count equal slices of [low, high)."""
    return [low + (high - low) * (k + rng.random()) / count for k in range(count)]


def _json(argv_head: tuple[str, ...], path: str) -> tuple[str, ...]:
    return argv_head + ("--format", "json", path)


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin merge, so every stretch of the list mixes op classes."""
    out: list[Op] = []
    longest = max(len(g) for g in groups)
    for k in range(longest):
        for group in groups:
            if k < len(group):
                out.append(group[k])
    return out


SMALL_ORDER_COMMANDS = (
    ("charpoly", "--method", "both", "--canonical"),
    ("factor",),
    ("roots",),
    ("eigenvalue", "--method", "all"),
    ("plot-data",),
)
FLV_COMMANDS = (("factor", "--method", "flv"), ("roots", "--method", "flv"))


def charpoly_dense(shape: random.Random, values: random.Random, workdir: str) -> tuple[dict[str, str], list[Op]]:
    files: dict[str, str] = {}
    groups: list[list[Op]] = []
    # (order, matrices, commands per matrix, command cycle, density range,
    # timed). Latency ranks of the 33 timed ops: the five order-10 and
    # order-16 ops, then 16 like-sized order-9 ops around both the median
    # and the tail rank, then the order-8 ops. Orders 12-24 are traced only.
    plan = (
        (8, 6, 2, SMALL_ORDER_COMMANDS, (0.5, 0.9), True),
        (9, 16, 1, SMALL_ORDER_COMMANDS[1:3] + SMALL_ORDER_COMMANDS[4:], (0.7, 0.7), True),
        (10, 3, 1, SMALL_ORDER_COMMANDS[::2], (0.7, 0.7), True),
        (16, 1, 2, FLV_COMMANDS, (0.7, 0.7), True),
        (12, 2, 1, SMALL_ORDER_COMMANDS[::3], (0.5, 0.9), False),
        (20, 1, 1, FLV_COMMANDS, (0.7, 0.7), False),
        (24, 1, 1, FLV_COMMANDS[1:], (0.7, 0.7), False),
    )
    for n, count, per_matrix, commands, (low, high), timed in plan:
        group: list[Op] = []
        for k, density in enumerate(_stratified(shape, low, high, count)):
            path = f"{workdir}/dense-n{n}-{k}.txt"
            rows = _fill(values, n, _pattern(shape, n, density))
            files[path] = _matrix_text(rows)
            subject = MatrixInput(path, rows)
            for t in range(per_matrix):
                head = commands[(k * per_matrix + t) % len(commands)]
                group.append(Op(_json(head, path), subject, timed=timed))
        groups.append(group)
    return files, _interleave(groups)


def _weights(values: random.Random, succ: list[list[int]]) -> Rows:
    m = len(succ)
    rows: Rows = [[None] * m for _ in range(m)]
    for t, heads in enumerate(succ):
        for h in heads:
            rows[t][h] = _entry(values, values.random() < 0.2)
    return rows


def verify_circuits(shape: random.Random, values: random.Random, workdir: str) -> tuple[dict[str, str], list[Op]]:
    from minplus.network import plant_separated_instance

    files: dict[str, str] = {}
    planted_ops: list[Op] = []
    for n, count in ((6, 1), (7, 2), (8, 3), (9, 1)):
        for k in range(count):
            matrix, planted = plant_separated_instance(shape, n)
            succ = [[j for j, x in enumerate(row) if not x.is_epsilon] for row in matrix.rows]
            rows = _weights(values, succ)
            planted = [
                (cycle, tuple(rows[v - 1][cycle[(i + 1) % len(cycle)] - 1] for i, v in enumerate(cycle)))
                for cycle, _ in planted
            ]
            path = f"{workdir}/planted-n{n}-{k}.json"
            files[path] = json.dumps({"n": n, "rows": [[oracle.to_json(x) for x in row] for row in rows]})
            # order 9 is traced only: one such op costs an eighth of a pass
            planted_ops.append(Op(_json(("verify",), path), MatrixInput(path, rows, planted=planted), timed=n < 9))

    sparse_ops: list[Op] = []
    # (order, matrices, one shared sparsity pattern). The 12 order-8 ops
    # are weightings of one pattern: like-sized ops around both the median
    # and the tail rank of the 30 timed ops.
    for n, count, shared in ((6, 1, False), (7, 2, False), (8, 12, True), (10, 2, True), (11, 2, False)):
        patterns = [_pattern(shape, n, density) for density in _stratified(shape, 0.25, 0.4, 1 if shared else count)]
        for k in range(count):
            path = f"{workdir}/sparse-n{n}-{k}.txt"
            rows = _fill(values, n, patterns[0 if shared else k])
            files[path] = _matrix_text(rows)
            # verify needs the circuit-family enumeration, capped at 10 vertices
            defect = "exit 3" if n > 10 else None
            sparse_ops.append(Op(_json(("verify",), path), MatrixInput(path, rows), known_defect=defect))

    digraph_ops: list[Op] = []
    for m in (20, 28, 32, 36, 40):
        succ = [sorted(shape.sample([h for h in range(m) if h != t], 2)) for t in range(m)]
        path = f"{workdir}/digraph-m{m}.txt"
        rows = _weights(values, succ)
        files[path] = _matrix_text(rows)
        digraph_ops.append(Op(_json(("circuits",), path), MatrixInput(path, rows), timed=m < 36))

    cycle_ops: list[Op] = []
    for m in (300, 600, 1200):
        order = list(range(m))
        shape.shuffle(order)
        succ: list[list[int]] = [[] for _ in range(m)]
        for idx, v in enumerate(order):
            succ[v].append(order[(idx + 1) % m])
        path = f"{workdir}/cycle-m{m}.txt"
        rows = _weights(values, succ)
        files[path] = _matrix_text(rows)
        # the recursive circuit search overflows the interpreter stack
        defect = "RecursionError" if m > 1000 else None
        cycle_ops.append(Op(_json(("circuits",), path), MatrixInput(path, rows), known_defect=defect, timed=m != 600))

    return files, _interleave([planted_ops, sparse_ops, digraph_ops, cycle_ops])


def _canonical_coeffs(values: random.Random, degree: int) -> list[Fraction | None]:
    """Expanded from a random root multiset: c_j is the sum of the j
    smallest roots, so every point lies on the lower hull."""
    distinct = [Fraction(values.randint(-10**4, 10**4), values.choice((1, 1, 2, 3, 4)))
                for _ in range(degree - degree // 10)]
    roots = sorted(distinct + values.choices(distinct, k=degree // 10))
    coeffs: list[Fraction | None] = [Fraction(0)]
    for r in roots:
        coeffs.append(coeffs[-1] + r)
    return coeffs


def _noisy_coeffs(shape: random.Random, values: random.Random, degree: int) -> list[Fraction | None]:
    """A canonical sequence with three quarters of its points lifted off
    the hull, interior ε runs, and a trailing ε run (an x^r factor)."""
    coeffs = _canonical_coeffs(values, degree)
    j = 1
    while j <= degree:
        if shape.random() < 0.05:
            run = shape.randint(1, 6)
            for k in range(j, min(j + run, degree + 1)):
                coeffs[k] = None
            j += run
            continue
        if shape.random() < 0.75:
            coeffs[j] += Fraction(values.randint(1, 4000), values.choice((1, 2, 3, 4)))
        j += 1
    for k in range(degree + 1 - shape.randint(1, 8), degree + 1):
        coeffs[k] = None
    return coeffs


def poly_highdeg(shape: random.Random, values: random.Random, workdir: str) -> tuple[dict[str, str], list[Op]]:
    files: dict[str, str] = {}
    groups: list[list[Op]] = []
    # (kind, degree, files, timed); each file gets factor, roots and
    # plot-data. Latency ranks of the 48 timed ops: the canonical degree-500
    # ops, then 18 like-sized noisy degree-600 ops around the tail rank,
    # then nine canonical degree-250 ops around the median, then the rest.
    # Degree 1000 is traced only.
    plan = (
        ("canonical", 250, 3, True), ("canonical", 500, 1, True), ("canonical", 1000, 1, False),
        ("noisy", 250, 5, True), ("noisy", 400, 1, True), ("noisy", 600, 6, True),
    )
    for kind, degree, count, timed in plan:
        group: list[Op] = []
        for k in range(count):
            if kind == "canonical":
                coeffs = _canonical_coeffs(values, degree)
            else:
                coeffs = _noisy_coeffs(shape, values, degree)
            path = f"{workdir}/{kind}-deg{degree}-{k}.json"
            files[path] = json.dumps({"degree": degree, "coeffs": [oracle.to_json(c) for c in coeffs]})
            subject = PolyInput(path, coeffs)
            for head in (("factor",), ("roots",), ("plot-data",)):
                group.append(Op(_json(head, path), subject, timed=timed))
        groups.append(group)
    return files, _interleave(groups)


WORKLOADS = {
    "charpoly-dense": charpoly_dense,
    "verify-circuits": verify_circuits,
    "poly-highdeg": poly_highdeg,
}


def generate(workload: str, seed: int, workdir: str) -> tuple[dict[str, str], list[Op]]:
    """The seed draws every weight, root and coefficient. Which entries are
    finite, and the other shape choices, come from a stream fixed per
    workload, so that every seed does the same amount of work."""
    shape = random.Random(f"{workload}:shape")
    values = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](shape, values, workdir)
