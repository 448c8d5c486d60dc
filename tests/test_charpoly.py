import random
import re
from fractions import Fraction

import pytest

from minplus import (
    CapExceeded,
    EPSILON,
    E,
    MinPlusMatrix,
    MinPlusValue,
    canonical_charpoly_tropdet,
    charpoly_flv,
    charpoly_tropdet,
    eigenvalue_from_charpoly,
    epsilon_matrix,
    evaluate,
    identity,
    mat_oplus,
    MinPlusPolynomial,
    scalar_otimes,
    breakpoints,
    tropdet_assignment,
    tropdet_bruteforce,
)
from conftest import random_matrix

EPS = None


def test_tropdet_simple_cases():
    assert tropdet_bruteforce(identity(4)) == E
    assert tropdet_bruteforce(MinPlusMatrix([[1, 2], [3, 4]])) == MinPlusValue(5)
    assert tropdet_bruteforce(epsilon_matrix(3)) == EPSILON
    assert tropdet_assignment(identity(4)) == E
    assert tropdet_assignment(epsilon_matrix(3)) == EPSILON


def test_tropdet_bruteforce_cap():
    with pytest.raises(CapExceeded, match="tropdet_assignment"):
        tropdet_bruteforce(identity(5), cap=4)


NOT_INTS = (True, False, 2.5, 9.0, "9", None, Fraction(9))


def test_tropdet_bruteforce_cap_must_be_an_int():
    a = MinPlusMatrix([[1, 2], [3, 4]])
    for cap in NOT_INTS:
        with pytest.raises(TypeError, match=f"^cap must be an int, not {re.escape(repr(cap))}$"):
            tropdet_bruteforce(a, cap=cap)
    # an int cap behaves as before: below the order it refuses it
    assert tropdet_bruteforce(a, cap=2) == MinPlusValue(5)
    with pytest.raises(CapExceeded, match="capped at order 1"):
        tropdet_bruteforce(a, cap=1)


def test_charpoly_tropdet_cap_must_be_an_int():
    a = MinPlusMatrix([[1, 2], [3, 4]])
    for cap in NOT_INTS:
        # checked before the classes are read, so even where no class needs a scan
        for b in (a, identity(3)):
            with pytest.raises(TypeError, match=f"^cap must be an int, not {re.escape(repr(cap))}$"):
                charpoly_tropdet(b, cap=cap)
    # an int cap behaves as before: a class that is one circuit needs no scan whatever the cap
    assert charpoly_tropdet(a, cap=2) == charpoly_tropdet(a)
    with pytest.raises(CapExceeded, match="capped at order 1"):
        charpoly_tropdet(a, cap=1)
    assert charpoly_tropdet(identity(3), cap=-1) == charpoly_tropdet(identity(3))


def test_tropdet_permutation_structured():
    # finite entries exactly on one permutation: the unique feasible assignment
    rng = random.Random(3)
    n = 5
    sigma = list(range(n))
    rng.shuffle(sigma)
    rows = [[EPS] * n for _ in range(n)]
    weights = [Fraction(rng.randint(-5, 9)) for _ in range(n)]
    for i in range(n):
        rows[i][sigma[i]] = weights[i]
    a = MinPlusMatrix(rows)
    expected = MinPlusValue(sum(weights))
    assert tropdet_bruteforce(a) == expected
    assert tropdet_assignment(a) == expected


def test_tropdet_oracle_agreement_random():
    rng = random.Random(20240819)
    for _ in range(150):
        n = rng.randint(1, 7)
        a = random_matrix(rng, n)
        assert tropdet_assignment(a) == tropdet_bruteforce(a)


def test_charpoly_tropdet_golden(example7):
    poly = charpoly_tropdet(example7)
    assert [c.to_json() for c in poly.coeffs] == [0, 3, 8, 6, 20, "inf", "inf", "inf"]


def test_canonical_charpoly_tropdet_golden(example7):
    # the hull of (j, c_j) for the coefficients above: c_1 = 3 and c_2 = 8 lie off it
    poly = canonical_charpoly_tropdet(example7)
    assert [c.to_json() for c in poly.coeffs] == [0, 2, 4, 6, 20, "inf", "inf", "inf"]
    assert canonical_charpoly_tropdet(identity(4)).coeffs == (E,) * 5


def test_charpoly_flv_golden(example7):
    poly = charpoly_flv(example7)
    assert [c.to_json() for c in poly.coeffs] == [0, 3, 6, 6, 9, 12, 12, 15]


def test_charpoly_trivial_matrices():
    assert all(c == E for c in charpoly_tropdet(identity(4)).coeffs)
    assert all(c == E for c in charpoly_flv(identity(4)).coeffs)
    p = charpoly_tropdet(epsilon_matrix(3))
    assert p.coeffs[0] == E and all(c == EPSILON for c in p.coeffs[1:])
    q = charpoly_flv(epsilon_matrix(3))
    assert q.coeffs == p.coeffs


def test_charpoly_tropdet_cap():
    # every entry finite: one strongly connected class of order 5, scanned whole
    a = MinPlusMatrix([[(3 * i + 7 * j) % 11 - 4 for j in range(5)] for i in range(5)])
    with pytest.raises(CapExceeded, match=r"capped at order 4 \(got a strongly connected class of order 5\)"):
        charpoly_tropdet(a, cap=4)
    assert charpoly_tropdet(a, cap=5) == charpoly_tropdet(a)
    # loops alone are classes that are one circuit each: nothing is scanned, whatever the order
    assert charpoly_tropdet(identity(40), cap=1).coeffs == (E,) * 41


def test_pointwise_definition_random():
    # evaluate(charpoly(A), x) must equal tropdet(A ⊕ x⊗I) for concrete x
    rng = random.Random(20240820)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n)
        poly = charpoly_tropdet(a)
        xs = {pt[0] for pt in breakpoints(poly)}
        samples = set(xs)
        for x in xs:
            samples.add(x - 1)
            samples.add(x + Fraction(1, 2))
        samples.update(Fraction(v) for v in (-25, 0, 30))
        for x in samples:
            shifted = mat_oplus(a, scalar_otimes(MinPlusValue(x), identity(n)))
            assert evaluate(poly, MinPlusValue(x)) == tropdet_assignment(shifted)


def test_eigenvalue_from_charpoly_golden(example7):
    assert eigenvalue_from_charpoly(charpoly_tropdet(example7)) == MinPlusValue(2)
    assert eigenvalue_from_charpoly(charpoly_flv(example7)) == MinPlusValue(2)


def test_eigenvalue_from_truncated_prefix():
    # dropping trailing coefficients does not move the minimum root here
    truncated = MinPlusPolynomial([0, 3, 6, 6, 9])
    assert eigenvalue_from_charpoly(truncated) == MinPlusValue(2)


def test_eigenvalue_of_pure_power():
    assert eigenvalue_from_charpoly(MinPlusPolynomial([0, EPS, EPS])).is_epsilon
    with pytest.raises(ValueError, match="monic"):
        eigenvalue_from_charpoly(MinPlusPolynomial([1, 2]))


def test_minimum_root_agreement_random():
    rng = random.Random(20240821)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n)
        lhs = eigenvalue_from_charpoly(charpoly_tropdet(a))
        rhs = eigenvalue_from_charpoly(charpoly_flv(a))
        assert lhs == rhs


def test_minimum_root_invariant_under_diagonal_conjugation():
    # replacing a_ij by d_i + a_ij - d_j preserves every circuit weight
    rng = random.Random(20240822)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = random_matrix(rng, n)
        d = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                x = a.rows[i][j]
                row.append(EPS if x.is_epsilon else d[i] + x.rational - d[j])
            rows.append(tuple(row))
        conjugated = MinPlusMatrix(tuple(rows))
        assert eigenvalue_from_charpoly(charpoly_tropdet(a)) == eigenvalue_from_charpoly(
            charpoly_tropdet(conjugated)
        )
