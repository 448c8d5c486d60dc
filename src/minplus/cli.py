"""Batch command-line front end.

Commands: charpoly, factor, roots, eigenvalue, circuits, verify,
plot-data. Inputs are matrix files (JSON or whitespace text) and, where a
polynomial is the natural subject, polynomial JSON files. All values
print exactly: integers, "p/q" rationals, or "inf"; decimals are never
emitted.

Exit codes: 0 success, 1 stdout closed early, 2 malformed input, 3 size
cap exceeded, 4 verification or cross-method agreement failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from .charpoly import (
    BRUTE_FORCE_CAP,
    SUBSET_CAP,
    _check_subset_cap,
    canonical_charpoly_tropdet,
    charpoly_flv,
    charpoly_tropdet,
    eigenvalue_from_charpoly,
)
from .errors import CapExceeded, ParseError, decode_json
from .matrix import MinPlusMatrix, _matrix_from_json, parse_matrix
from .network import (
    CIRCUIT_CAP,
    enumerate_circuits,
    min_cycle_mean,
    network_from_matrix,
    plant_separated_instance,
    separated_check,
    verify_matrix,
)
from .polynomial import (
    MinPlusPolynomial,
    _polynomial_from_json,
    breakpoints,
    canonicalize,
    factorize,
    format_factorization,
    format_polynomial,
)
from .semiring import MinPlusValue

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with exactly the options it reads.

    Built on the first call and shared after it: `main` may run many times
    in one process, and parsing keeps no state on the parser."""
    parser = argparse.ArgumentParser(
        prog="minplus",
        description="exact min-plus characteristic polynomials, factorization, and circuit reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, methods=(), default=None, formats=("text", "json"), subject="matrix file"):
        p = sub.add_parser(name, help=help)
        if methods:
            p.add_argument("--method", choices=methods, default=default)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("input", help=subject)
        return p

    def cap_subsets(p):
        p.add_argument("--cap-subsets", type=_positive_int, default=SUBSET_CAP,
                       help="cap on the order of each strongly connected class that takes a 2^k "
                            "pass over its subsets (the circuit-family program, and verify's "
                            "row-by-row expansion of the class's tropical determinant with x on "
                            "its diagonal); a class that is one circuit takes none")

    hull, either = ("tropdet", "flv"), "polynomial or matrix file"
    p = command("charpoly", "characteristic polynomial(s) of a matrix", ("tropdet", "flv", "both"), "both")
    p.add_argument("--canonical", action="store_true", help="also print the canonical form")
    cap_subsets(p)
    command("factor", "linear factorization of a polynomial or matrix charpoly", hull, "tropdet", subject=either)
    command("roots", "roots and multiplicities", hull, "tropdet", subject=either)
    command("eigenvalue", "eigenvalue by one or all methods", ("karp", "tropdet", "flv", "all"), "all")
    p = command("circuits", "elementary circuits of the network", formats=("text", "json", "tsv"))
    p.add_argument("--cap-circuits", type=_positive_int, default=CIRCUIT_CAP,
                   help="cap on the number of enumerated circuits")

    p = sub.add_parser("verify", help="run the structure checks on a matrix or random instances")
    p.add_argument("--random-separated", type=_positive_int, metavar="K",
                   help="verify K randomly planted separated instances instead of a file")
    p.add_argument("--seed", type=int, default=0, help="seed for the random instance generator")
    p.add_argument("--size", type=_positive_int, default=7,
                   help="vertex count for random instances")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--cap-perms", type=_positive_int, default=BRUTE_FORCE_CAP,
                   help="order cap for the permutation brute force")
    cap_subsets(p)
    p.add_argument("input", nargs="?", help="matrix file (omit with --random-separated)")

    command("plot-data", "breakpoints plus ray anchors of the function graph", hull, "tropdet",
            formats=("text", "json", "tsv"), subject=either)
    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _load_matrix(path: str) -> MinPlusMatrix:
    return parse_matrix(_read_file(path))


def _load_matrix_or_polynomial(path: str):
    """Returns ("matrix", m) or ("polynomial", p), sniffing JSON fields;
    a JSON file is decoded once."""
    text = _read_file(path)
    if not text.lstrip().startswith("{"):
        return "matrix", parse_matrix(text)
    obj = decode_json(text)
    if isinstance(obj, dict) and "coeffs" in obj:
        return "polynomial", _polynomial_from_json(obj)
    return "matrix", _matrix_from_json(obj)


def _polynomial_from_input(args) -> MinPlusPolynomial:
    kind, obj = _load_matrix_or_polynomial(args.input)
    if kind == "polynomial":
        return obj
    if args.method == "flv":
        return charpoly_flv(obj)
    return canonical_charpoly_tropdet(obj)


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _lay_out(obj, nl: str, pending: str, seps: list, leaves: list) -> str:
    """Lay out `obj` as `json.dumps(obj, indent=2)` does where its items are
    indented by `nl` (a newline and the indent): for each scalar, append
    the text before it to `seps` and the scalar to `leaves`. `pending` is
    the text since the last scalar; the return value, the text after
    `obj`'s last scalar."""
    if isinstance(obj, dict):
        if not obj:
            return pending + "{}"
        sep, inner = "{" + nl, nl + "  "
        for key, value in obj.items():
            pending += sep + _encode_key(key)
            sep = "," + nl
            if type(value) in _SCALARS:
                seps.append(pending)
                leaves.append(value)
                pending = ""
            else:
                pending = _lay_out(value, inner, pending, seps, leaves)
        return pending + nl[:-2] + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return pending + "[]"
        sep, inner = "[" + nl, nl + "  "
        if obj[0] and set(map(type, obj)) == {dict}:
            # records, as the rows of a report: flat dicts that share one key order
            order = tuple(obj[0])
            flat = _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, obj))))
            if flat and all(map(order.__eq__, map(tuple, obj))):
                fields = list(map(("," + inner).__add__, map(_encode_key, order)))
                start = "{" + fields[0][1:]
                fields[0] = pending + "[" + nl + start
                seps.extend(fields)
                fields[0] = nl + "}," + nl + start
                seps.extend(fields * (len(obj) - 1))
                leaves.extend(chain.from_iterable(map(dict.values, obj)))
                return nl + "}" + nl[:-2] + "]"
        for item in obj:
            pending += sep
            sep = "," + nl
            if type(item) in _SCALARS:
                seps.append(pending)
                leaves.append(item)
                pending = ""
            else:
                pending = _lay_out(item, inner, pending, seps, leaves)
        return pending + nl[:-2] + "]"
    seps.append(pending)
    leaves.append(obj)
    return ""


def _encode_key(key) -> str:
    return encode_basestring_ascii(key) + ": "


def _dumps_indented(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, with the scalars encoded
    by one call into the C encoder.

    Before Python 3.13, `json.dumps` reaches its C encoder only without
    `indent`, so an indented dump runs every value through pure-Python
    generators. Here one walk lays out the brackets, keys and separators,
    and `json.dumps(leaves, separators=("\\n", ": "))` encodes every
    scalar at once: with `ensure_ascii` no encoded scalar holds a raw
    newline, so splitting on "\\n" gives each one's text back. Every key
    is a str, as in every payload; any other key raises TypeError."""
    seps: list = []
    leaves: list = []
    tail = _lay_out(obj, "\n  ", "", seps, leaves)
    if not leaves:
        return tail
    texts = json.dumps(leaves, separators=("\n", ": "))[1:-1].split("\n")
    out = [""] * (2 * len(texts))
    out[::2] = seps
    out[1::2] = texts
    out.append(tail)
    del seps, leaves, texts  # the join is the peak of memory: drop what it does not read
    return "".join(out)


def _emit_json(obj) -> None:
    print(_dumps_indented(obj))


def cmd_charpoly(args) -> int:
    matrix = _load_matrix(args.input)
    methods = ("tropdet", "flv") if args.method == "both" else (args.method,)
    results = {}
    for method in methods:
        poly = charpoly_flv(matrix) if method == "flv" else charpoly_tropdet(matrix, cap=args.cap_subsets)
        results[method] = poly
    if args.format == "json":
        payload = {}
        for method, poly in results.items():
            entry = poly.to_json()
            if args.canonical:
                entry["canonical_coeffs"] = canonicalize(poly).to_json()["coeffs"]
            payload[method] = entry
        _emit_json(payload)
    else:
        for method, poly in results.items():
            print(f"{method}: {format_polynomial(poly)}")
            print(f"{method} coeffs: {' '.join(str(c) for c in poly.coeffs)}")
            if args.canonical:
                canon = canonicalize(poly)
                print(f"{method} canonical coeffs: {' '.join(str(c) for c in canon.coeffs)}")
    return EXIT_OK


def cmd_factor(args) -> int:
    factorization = factorize(_polynomial_from_input(args))
    if args.format == "json":
        _emit_json(factorization.to_json())
    else:
        print(format_factorization(factorization))
    return EXIT_OK


def cmd_roots(args) -> int:
    factorization = factorize(_polynomial_from_input(args))
    if args.format == "json":
        _emit_json(factorization.to_json())
    else:
        for root, mult in factorization.factors:
            print(f"root {root} multiplicity {mult}")
        print(f"xpower {factorization.xpower}")
    return EXIT_OK


def cmd_eigenvalue(args) -> int:
    matrix = _load_matrix(args.input)
    methods = ("karp", "tropdet", "flv") if args.method == "all" else (args.method,)
    values: dict[str, MinPlusValue] = {}
    for method in methods:
        if method == "karp":
            values[method] = min_cycle_mean(network_from_matrix(matrix))
        elif method == "tropdet":
            values[method] = eigenvalue_from_charpoly(canonical_charpoly_tropdet(matrix))
        else:
            values[method] = eigenvalue_from_charpoly(charpoly_flv(matrix))
    agree = len(set(values.values())) == 1
    if args.format == "json":
        payload = {method: value.to_json() for method, value in values.items()}
        if args.method == "all":
            payload["agree"] = agree
        _emit_json(payload)
    else:
        for method, value in values.items():
            print(f"{method}: {value}")
        if args.method == "all":
            print(f"agree: {'true' if agree else 'false'}")
    if args.method == "all" and not agree:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_circuits(args) -> int:
    matrix = _load_matrix(args.input)
    net = network_from_matrix(matrix)
    circuits = enumerate_circuits(net, cap=args.cap_circuits)
    separated = separated_check(net)
    mean = min_cycle_mean(net)
    if args.format == "json":
        _emit_json(
            {
                "circuits": [c.to_json() for c in circuits],
                "separated": separated,
                "min_cycle_mean": mean.to_json(),
            }
        )
    elif args.format == "tsv":
        for c in circuits:
            cycle = "-".join(str(v) for v in c.vertices)
            print(f"{cycle}\t{c.length}\t{MinPlusValue(c.weight)}\t{MinPlusValue(c.average)}")
    else:
        for c in circuits:
            cycle = "->".join(str(v) for v in c.vertices)
            print(
                f"circuit {cycle} length {c.length} weight {MinPlusValue(c.weight)} "
                f"average {MinPlusValue(c.average)}"
            )
        print(f"separated: {'true' if separated else 'false'}")
        print(f"min_cycle_mean: {mean}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.random_separated is None and args.input is None:
        raise ParseError("verify needs a matrix file or --random-separated K")
    if args.random_separated is not None and args.input is not None:
        raise ParseError("give either a matrix file or --random-separated, not both")
    caps = (args.cap_perms, args.cap_subsets)
    if args.random_separated is not None:
        # a planted instance's classes are single circuits, which need no scan, but its build
        # is O(size²): the order itself is bounded here, before any instance is built
        _check_subset_cap(args.size, args.cap_subsets)
        rng = random.Random(args.seed)
        instances = []
        for index in range(args.random_separated):
            matrix, _ = plant_separated_instance(rng, args.size)
            checks = [report.to_json() for report in verify_matrix(matrix, *caps)]
            instances.append({"instance": index, "matrix": matrix.to_json(), "checks": checks})
        labelled = [(f"instance {inst['instance']} ", inst["checks"]) for inst in instances]
        payload = {"seed": args.seed, "instances": instances}
    else:
        checks = [report.to_json() for report in verify_matrix(_load_matrix(args.input), *caps)]
        labelled = [("", checks)]
        payload = {"input": args.input, "checks": checks}
    payload["pass"] = all(check["pass"] for _, checks in labelled for check in checks)
    if args.format == "json":
        _emit_json(payload)
    else:
        for prefix, checks in labelled:
            for check in checks:
                status = "pass" if check["pass"] else "FAIL"
                extra = "" if check["hypothesis_met"] in (True, None) else " (hypothesis not met)"
                print(f"{prefix}{check['check']}: {status}{extra}")
        print(f"overall: {'pass' if payload['pass'] else 'FAIL'}")
    return EXIT_OK if payload["pass"] else EXIT_VERIFY


def cmd_plot_data(args) -> int:
    poly = _polynomial_from_input(args)
    points = breakpoints(poly)
    if points:
        # the function is linear outside its breakpoints
        x0, y0, slope0, _ = points[0]
        xk, yk, _, slopek = points[-1]
        rows = [("anchor", x0 - 1, y0 - slope0, slope0, slope0)]
        rows.extend(("breakpoint", x, y, sl, sr) for x, y, sl, sr in points)
        rows.append(("anchor", xk + 1, yk + slopek, slopek, slopek))
    else:
        # no breakpoint: a single line c_j + (n-j)·x, from the one finite c_j
        finite = [(j, c.rational) for j, c in enumerate(poly.coeffs) if not c.is_epsilon]
        if not finite:
            raise ParseError("the polynomial has no finite coefficients; nothing to plot")
        [(j, c)] = finite
        slope = poly.degree - j
        rows = [("anchor", 0, c, slope, slope), ("anchor", 1, c + slope, slope, slope)]
    if args.format == "json":
        _emit_json(
            [
                {
                    "kind": kind,
                    "x": MinPlusValue(x).to_json(),
                    "y": MinPlusValue(y).to_json(),
                    "slope_left": sl,
                    "slope_right": sr,
                }
                for kind, x, y, sl, sr in rows
            ]
        )
    elif args.format == "tsv":
        for _, x, y, sl, sr in rows:
            print(f"{MinPlusValue(x)}\t{MinPlusValue(y)}\t{sl}\t{sr}")
    else:
        for kind, x, y, sl, sr in rows:
            print(f"{kind} x={MinPlusValue(x)} y={MinPlusValue(y)} slope_left={sl} slope_right={sr}")
    return EXIT_OK


_COMMANDS = {
    "charpoly": cmd_charpoly,
    "factor": cmd_factor,
    "roots": cmd_roots,
    "eigenvalue": cmd_eigenvalue,
    "circuits": cmd_circuits,
    "verify": cmd_verify,
    "plot-data": cmd_plot_data,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below and not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early (as `| head` does): send the rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
