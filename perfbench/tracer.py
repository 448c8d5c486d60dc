"""Spans and call counts around minplus's public functions, for the traced run.

`Tracer.install()` replaces each named function by a wrapper in every
minplus module that holds a reference to it: the defining module (so
calls inside that module are seen) and each module that imported the
name. `uninstall()` puts the originals back. Untraced runs never install
anything.

A span records name, start, end, parent span, op id, and for the
functions whose cost curve is tracked, the input size. Spans stay in
memory until the run writes them out. Scalar semiring operations and
`evaluate` get call counters only: a span per scalar op would swamp the
run.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPANNED = {
    "cli": ("main",),
    "matrix": ("mat_otimes", "mat_oplus", "scalar_otimes", "parse_matrix"),
    "charpoly": ("charpoly_tropdet", "charpoly_flv", "tropdet_assignment", "tropdet_bruteforce"),
    "network": ("enumerate_circuits", "separated_check", "enumerate_extended_circuits", "min_cycle_mean"),
    "polynomial": ("canonicalize", "factorize", "breakpoints", "parse_polynomial"),
}
COUNTED = {
    "semiring": ("otimes", "oplus", "as_value", "parse_value"),
    "polynomial": ("evaluate",),
}
# span name -> (attribute of the first argument that is its size, metric key prefix, sizes reported)
SCALING = {
    "charpoly.charpoly_tropdet": ("n", "n", (8, 10, 12)),
    "charpoly.charpoly_flv": ("n", "n", (16, 20, 24)),
    "network.min_cycle_mean": ("m", "n", (8, 12, 32)),
    "polynomial.factorize": ("degree", "deg", (250, 500, 1000)),
}

# Per-layer metrics, in report order: (name, unit, better).
_TIMED = [
    ("matrix", ("mat_otimes", "mat_oplus", "scalar_otimes")),
    ("charpoly", ("charpoly_tropdet", "charpoly_flv", "tropdet_assignment", "tropdet_bruteforce")),
    ("network", ("enumerate_circuits", "separated_check", "enumerate_extended_circuits", "min_cycle_mean")),
    ("polynomial", ("canonicalize", "factorize", "breakpoints")),
]
PER_LAYER = (
    [("cli.main.self_s", "s", "lower"), ("cli.output_bytes", "bytes", "lower")]
    + [(f"semiring.{f}.calls", "count", "lower") for f in COUNTED["semiring"]]
    + [
        (f"{layer}.{f}.{kind}", unit, "lower")
        for layer, fns in _TIMED
        for f in fns
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("matrix.parse_matrix.self_s", "s", "lower"),
        ("charpoly.charpoly_tropdet.calls_per_op", "calls/op", "lower"),
        ("network.circuits_returned", "count", "lower"),
        ("network.enumerate_circuits.calls_per_input", "calls/input", "lower"),
        ("network.cap_exceeded", "count", "lower"),
        ("polynomial.evaluate.calls", "count", "lower"),
        ("polynomial.parse_polynomial.self_s", "s", "lower"),
    ]
    + [
        (f"{name}.{prefix}{size}.s_per_call", "s", "lower")
        for name, (_, prefix, sizes) in SCALING.items()
        for size in sizes
    ]
    + [
        ("trace.ops_per_s_untraced", "ops/s", "higher"),
        ("trace.ops_per_s_traced", "ops/s", "higher"),
        ("trace.overhead_ops_per_s", "ops/s", "lower"),
        ("trace.ops_wall_s", "s", "lower"),
        ("trace.self_s_sum", "s", "lower"),
    ]
)

NAME, START, END, PARENT, OP, SIZE, RETURNED, ERROR = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "minplus" or name.startswith("minplus.")]
        for layer, names in SPANNED.items():
            for fname in names:
                original = getattr(sys.modules[f"minplus.{layer}"], fname)
                self._replace(modules, original, self._span(f"{layer}.{fname}", original))
        for layer, names in COUNTED.items():
            for fname in names:
                original = getattr(sys.modules[f"minplus.{layer}"], fname)
                self._replace(modules, original, self._count(f"{layer}.{fname}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size_attr = SCALING.get(name, (None,))[0]

        def wrapper(*args, **kwargs):
            size = getattr(args[0], size_attr) if size_attr else None
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, size, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, list):
                    record[RETURNED] = len(result)
                return result
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "size", "returned", "error")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer totals over all traced ops (the trace.* rows are the caller's)."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record[PARENT] >= 0:
                child_time[record[PARENT]] += record[END] - record[START]
        calls: Counter = Counter(self.counts)
        self_s: defaultdict[str, float] = defaultdict(float)
        per_size: defaultdict[tuple[str, int], list[float]] = defaultdict(list)
        circuit_ops: set = set()
        returned = caps = 0
        for index, record in enumerate(self.spans):
            name, duration = record[NAME], record[END] - record[START]
            calls[name] += 1
            self_s[name] += duration - child_time[index]
            if record[SIZE] is not None:
                per_size[(name, record[SIZE])].append(duration)
            if name == "network.enumerate_circuits":
                circuit_ops.add(record[OP])
                returned += record[RETURNED] or 0
            parent = self.spans[record[PARENT]] if record[PARENT] >= 0 else None
            if (
                record[ERROR] == "CapExceeded"
                and name.startswith("network.")
                and not (parent and parent[NAME].startswith("network.") and parent[ERROR] == "CapExceeded")
            ):
                caps += 1

        out: dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[base]
            elif kind == "self_s":
                out[metric] = self_s[base]
        out["charpoly.charpoly_tropdet.calls_per_op"] = calls["charpoly.charpoly_tropdet"] / n_ops
        out["network.circuits_returned"] = returned
        out["network.enumerate_circuits.calls_per_input"] = (
            calls["network.enumerate_circuits"] / len(circuit_ops) if circuit_ops else 0
        )
        out["network.cap_exceeded"] = caps
        for name, (_, prefix, sizes) in SCALING.items():
            for size in sizes:
                durations = per_size.get((name, size), [])
                out[f"{name}.{prefix}{size}.s_per_call"] = sum(durations) / len(durations) if durations else 0.0
        out["trace.self_s_sum"] = sum(self_s.values())
        return out
