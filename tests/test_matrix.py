import json
import random
from fractions import Fraction

import pytest

from minplus import (
    EPSILON,
    E,
    MinPlusMatrix,
    MinPlusValue,
    ParseError,
    epsilon_matrix,
    identity,
    mat_oplus,
    mat_otimes,
    mat_power,
    oplus,
    parse_matrix,
    scalar_otimes,
    trace,
)
from conftest import EXAMPLE_7X7_TEXT, random_matrix

EPS = None  # shorthand for building literal matrices


def M(rows):
    return MinPlusMatrix(rows)


@pytest.mark.parametrize("build", [identity, epsilon_matrix])
def test_identity_and_epsilon_matrix_take_an_int_order(build):
    for order in (True, 2.0, "3"):
        with pytest.raises(TypeError, match=f"matrix order must be an int, not {order!r}"):
            build(order)
    with pytest.raises(ValueError, match="at least 1"):
        build(0)
    assert build(2).n == 2


def test_mat_oplus_entrywise_min():
    a = M([[1, EPS], [EPS, 2]])
    b = M([[0, EPS], [EPS, 5]])
    assert mat_oplus(a, b) == M([[0, EPS], [EPS, 2]])


def test_mat_oplus_idempotent_and_identity():
    rng = random.Random(7)
    a = random_matrix(rng, 4)
    assert mat_oplus(a, a) == a
    assert mat_oplus(a, epsilon_matrix(4)) == a


def test_mat_oplus_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        mat_oplus(identity(2), identity(3))


def test_mat_otimes_identity_law():
    rng = random.Random(11)
    a = random_matrix(rng, 3)
    assert mat_otimes(a, identity(3)) == a
    assert mat_otimes(identity(3), a) == a


def test_mat_otimes_hand_expanded():
    a = M([[1, 2], [3, EPS]])
    b = M([[0, 4], [1, EPS]])
    assert mat_otimes(a, b) == M([[1, 5], [3, 7]])


def test_mat_otimes_epsilon_absorbing():
    rng = random.Random(13)
    b = random_matrix(rng, 3)
    assert mat_otimes(epsilon_matrix(3), b) == epsilon_matrix(3)


def test_scalar_otimes():
    a = M([[1, EPS], [3, 0]])
    assert scalar_otimes(0, a) == a
    assert scalar_otimes(2, a) == M([[3, EPS], [5, 2]])
    assert scalar_otimes(EPSILON, a) == epsilon_matrix(2)


def test_mat_power():
    a = M([[EPS, 2], [3, EPS]])
    assert mat_power(a, 1) == a
    assert mat_power(a, 2) == M([[5, EPS], [EPS, 5]])
    assert mat_power(identity(4), 3) == identity(4)
    assert mat_power(a, 0) == identity(2)
    with pytest.raises(ValueError):
        mat_power(a, -1)
    for k in (True, False, 2.0):
        with pytest.raises(ValueError, match="nonnegative integer"):
            mat_power(a, k)


def test_trace():
    assert trace(identity(5)) == E
    assert trace(epsilon_matrix(3)) == EPSILON
    assert trace(parse_matrix(EXAMPLE_7X7_TEXT)) == MinPlusValue(3)


def test_trace_distributes_over_oplus():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert trace(mat_oplus(a, b)) == oplus(trace(a), trace(b))


def test_matrix_algebra_laws_random():
    rng = random.Random(19)
    for _ in range(12):
        n = rng.randint(2, 6)
        a, b, c = (random_matrix(rng, n) for _ in range(3))
        assert mat_oplus(mat_oplus(a, b), c) == mat_oplus(a, mat_oplus(b, c))
        assert mat_oplus(a, b) == mat_oplus(b, a)
        assert mat_otimes(mat_otimes(a, b), c) == mat_otimes(a, mat_otimes(b, c))
        assert mat_otimes(a, mat_oplus(b, c)) == mat_oplus(mat_otimes(a, b), mat_otimes(a, c))
        assert mat_otimes(mat_oplus(a, b), c) == mat_oplus(mat_otimes(a, c), mat_otimes(b, c))


def _min_walk_weight(a: MinPlusMatrix, i: int, j: int, k: int):
    """Brute-force minimum weight over all walks of exactly k edges."""
    if k == 0:
        return Fraction(0) if i == j else None
    best = None
    for mid in range(a.n):
        first = a.rows[i][mid]
        if first.is_epsilon:
            continue
        rest = _min_walk_weight(a, mid, j, k - 1)
        if rest is None:
            continue
        cand = first.rational + rest
        if best is None or cand < best:
            best = cand
    return best


def test_power_entries_are_min_walk_weights():
    rng = random.Random(23)
    for _ in range(8):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n, density=0.6)
        for k in range(1, 5):
            pk = mat_power(a, k)
            for i in range(n):
                for j in range(n):
                    expected = _min_walk_weight(a, i, j, k)
                    entry = pk.rows[i][j]
                    if expected is None:
                        assert entry.is_epsilon
                    else:
                        assert entry == MinPlusValue(expected)


def test_parse_text_matrix():
    a = parse_matrix("0 inf\n1/2 2.5\n")
    assert a == M([[0, EPS], [Fraction(1, 2), Fraction(5, 2)]])


def test_parse_json_matrix_and_round_trip():
    a = parse_matrix('{"n": 2, "rows": [[1, "inf"], ["7/2", 0]]}')
    assert a == M([[1, EPS], [Fraction(7, 2), 0]])
    again = parse_matrix(json.dumps(a.to_json()))
    assert again == a
    # "n" is a count: a bool, float or string is refused, even when it equals the row count
    for n in ("true", "1.0", '"1"', "null"):
        with pytest.raises(ParseError, match='"n" must be an integer'):
            parse_matrix(f'{{"n": {n}, "rows": [[1]]}}')


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_matrix("1 2\n3 oops\n")
    assert err.value.line == 2
    assert err.value.column == 2
    with pytest.raises(ParseError):
        parse_matrix("1 2 3\n4 5 6\n")  # not square
    with pytest.raises(ParseError):
        parse_matrix('{"n": 3, "rows": [[1]]}')
    with pytest.raises(ParseError):
        parse_matrix("")
    # a line ends at \n, \r\n or \r only: \v, \f, \x1c-\x1e, \x85, \u2028 and
    # \u2029 separate tokens, as split() reads them, and do not end a line
    for space in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        assert parse_matrix(f"1 2\n3{space}4\n") == M([[1, 2], [3, 4]])
        with pytest.raises(ParseError) as err:
            parse_matrix(f"1 2{space}\n3 x\n")
        assert (err.value.line, err.value.column) == (2, 2)
    for end in ("\n", "\r\n", "\r"):
        with pytest.raises(ParseError) as err:
            parse_matrix(f"1 2{end}{end}3 x{end}")
        assert (err.value.line, err.value.column) == (3, 2)


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        MinPlusMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        MinPlusMatrix([])


def test_principal_submatrix_takes_distinct_indices_in_any_order():
    a = parse_matrix("1 inf 2/3\n-4 5 inf\ninf 7 -1/2\n")
    sub = a.principal_submatrix([2, 0])
    assert sub == M([[Fraction(-1, 2), EPS], [Fraction(2, 3), 1]])
    assert (sub._cells, sub._d) == ((((0, -3),), ((0, 4), (1, 6))), 6)
    assert a.principal_submatrix(range(3)) == a
    assert a.principal_submatrix([1]) == M([[5]]) and a.principal_submatrix([1])._d == 1


@pytest.mark.parametrize(
    "indices, named",
    [([-1], "-1"), ([0, 0], "0"), ([2, 1, 2], "2"), ([True], "True"), ([1.0], "1.0"), (["0"], "'0'"), ([3], "3")],
    ids=["negative", "repeated", "repeated-later", "bool", "float", "str", "past-the-end"],
)
def test_principal_submatrix_refuses_a_bad_index(indices, named):
    a = parse_matrix("1 inf 2/3\n-4 5 inf\ninf 7 -1/2\n")
    with pytest.raises(ValueError, match=f"^bad principal submatrix index {named}: need distinct ints in 0..2$"):
        a.principal_submatrix(indices)
    with pytest.raises(ValueError, match="order must be at least 1"):
        a.principal_submatrix([])
