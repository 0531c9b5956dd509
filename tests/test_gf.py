"""Field arithmetic tests, including exhaustive axiom checks for small q."""

import math
import random

import numpy as np
import pytest

import reference
from mwscodes import NotPrimePowerError, build_field
from mwscodes import gf
from mwscodes.gf import (
    MAX_TABLE_ORDER,
    FieldTooLargeError,
    _is_irreducible,
    describe_field,
    field_parameters,
)

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]


def test_build_field_prime():
    f = build_field(2)
    assert (f.p, f.m, f.q) == (2, 1, 2)


def test_build_field_gf4_modulus():
    # Oracle: scan all 4 monic quadratics over GF(2) for irreducibility.
    irreducible = [
        (c0, c1)
        for c0 in range(2)
        for c1 in range(2)
        if _is_irreducible([c0, c1, 1], 2)
    ]
    assert irreducible == [(1, 1)]  # only x^2 + x + 1
    f = build_field(4)
    assert (f.p, f.m) == (2, 2)
    assert f.modulus == (1, 1, 1)


@pytest.mark.parametrize("q", [6, 10, 12, 15, 100])
def test_build_field_rejects_non_prime_powers(q):
    with pytest.raises(NotPrimePowerError):
        build_field(q)


def test_gf2_add():
    assert build_field(2).add(1, 1) == 0


def test_gf3_inv():
    assert build_field(3).inv(2) == 2


def test_gf4_mul_x_times_x():
    # x * x = x^2 reduces to x + 1 by x^2 + x + 1, i.e. index 3.
    assert build_field(4).mul(2, 2) == 3


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        build_field(5).inv(0)


@pytest.mark.parametrize("q,expected", [(2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2, 3])])
def test_elements(q, expected):
    assert build_field(q).elements() == expected


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_identities(q):
    f = build_field(q)
    for a in f.elements():
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms_exhaustive(q):
    f = build_field(q)
    els = f.elements()
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_inverses_and_group_order(q):
    f = build_field(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, q - 1) == 1


# -- log/Zech tables against the polynomial reference -------------------------

REFERENCE_Q = [2, 3, 4, 8, 9, 16, 25, 27]
LARGE_Q = [243, 256, 257, 512, 2187, MAX_TABLE_ORDER]  # 2^16: the largest with tables


def coeff_add(f, a, b):
    """Reference addition: coefficient vectors added digit by digit mod p."""
    return f._encode([(x + y) % f.p for x, y in zip(f.coeffs(a), f.coeffs(b))])


def coeff_neg(f, a):
    return f._encode([(-x) % f.p for x in f.coeffs(a)])


@pytest.mark.parametrize("q", REFERENCE_Q)
def test_table_and_direct_paths_agree(q):
    # the lookup path against polynomial multiplication mod the modulus and
    # coefficient-wise addition, for every pair
    f = build_field(q)
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f._mul_poly(a, b)
            assert f.add(a, b) == coeff_add(f, a, b)
            assert f.sub(a, b) == coeff_add(f, a, coeff_neg(f, b))


def test_large_fields_match_reference_on_sampled_pairs():
    rng = random.Random(20240)
    for q in LARGE_Q:
        f = build_field(q)
        for _ in range(3000):
            a, b = rng.randrange(q), rng.randrange(q)
            assert f.mul(a, b) == f._mul_poly(a, b)
            assert f.add(a, b) == coeff_add(f, a, b)
            assert f.sub(a, b) == coeff_add(f, a, coeff_neg(f, b))
    assert build_field(257).mul(100, 200) == (100 * 200) % 257


@pytest.mark.parametrize("q", REFERENCE_Q + [5, 7, 49] + LARGE_Q)
def test_neg_inv_pow_match_definitions(q):
    # a^e from the table, from square-and-multiply and by e products mod f,
    # for every e <= 2 q on the small fields
    f = build_field(q)
    sample = range(q) if q < 100 else random.Random(q).sample(range(q), 200)
    for a in sample:
        assert f.neg(a) == coeff_neg(f, a)
        assert coeff_add(f, a, f.neg(a)) == 0
        power = f.coeffs(1)
        for e in range(2 * q + 1 if q < 100 else 5):
            assert gf._poly_powmod(f.coeffs(a), e, f.modulus, f.p) == power
            assert f.pow(a, e) == f._encode(power)
            power = gf._poly_mulmod(power, f.coeffs(a), f.modulus, f.p)
        if a:
            assert f._mul_poly(a, f.inv(a)) == 1
            assert f.pow(a, q - 1) == 1
            assert f.pow(a, -1) == f.inv(a)
            assert f.pow(a, q + 2) == f.pow(a, 3)
        else:
            assert f.pow(0, 0) == 1 and f.pow(0, q) == 0


@pytest.mark.parametrize("q", [9, 25])
def test_log_tables_cycle_when_modulus_is_not_primitive(q):
    f = build_field(q)
    # the element x (integer p) does not generate the multiplicative group
    power, order = f.p, 1
    while power != 1:
        power, order = f._mul_poly(power, f.p), order + 1
    assert order < q - 1
    exp = f.exp.tolist()
    assert sorted(exp[: q - 1]) == list(range(1, q))
    assert exp[q - 1 :] == exp[: q - 1]
    assert all(f.log[exp[i]] == i for i in range(q - 1))
    for i in range(q - 1):
        one_plus = coeff_add(f, 1, exp[i])
        assert f._zech[i] == (f.log[one_plus] if one_plus else -1)


def test_tables_are_those_of_the_smallest_primitive_element():
    # exp walks the powers of g = exp[1], g has order q - 1, and every smaller
    # element c = g^log(c) is not primitive (gcd(log c, q - 1) > 1): this pins
    # the tables to the smallest primitive element, whose powers were walked
    # before the order test replaced the walks of the non-primitive candidates
    prime_powers = [q for q in range(2, 3000) if len(gf._prime_factors(q)) == 1]
    assert len(prime_powers) == 466
    for q in prime_powers + [3**10, MAX_TABLE_ORDER]:
        f = gf.GF(*field_parameters(q))
        exp, log = f.exp[: q - 1], f.log
        g = int(exp[1]) if q > 2 else 1
        assert np.array_equal(np.sort(exp), np.arange(1, q))
        assert np.array_equal(log[exp], np.arange(q - 1))
        assert all(math.gcd(int(log[c]), q - 1) > 1 for c in range(1, g))
        for i in random.Random(q).sample(range(q - 1), min(q - 1, 20)):
            assert f._mul_poly(int(exp[i]), g) == f.exp[i + 1]


def test_prime_factors():
    assert gf._prime_factors(1) == []
    assert gf._prime_factors(3**10 - 1) == [2, 11, 61]
    assert gf._prime_factors(2**16 - 1) == [3, 5, 17, 257]
    assert gf._prime_factors(65521) == [65521]


def test_is_prime_matches_trial_division():
    assert [n for n in range(-2, 5000) if gf._is_prime(n)] == [
        n for n in range(2, 5000) if gf._prime_factors(n) == [n]]


@pytest.mark.parametrize("q, expected", [
    (999999999999999989, (999999999999999989, 1)),
    ((10**9 + 7) ** 2, (10**9 + 7, 2)),
    (2**81, (2, 81)),
    (3**50, (3, 50)),
    (1000000007 * 1000000009, None),
    (3215031751, None),  # strong pseudoprime to the bases 2, 3, 5 and 7
    (3825123056546413051, None),  # to the bases 2 .. 23
    (318665857834031151167461, None),  # to the bases 2 .. 37, the first 12 primes
])
def test_prime_power_decomposition_of_large_orders(q, expected, monkeypatch):
    monkeypatch.setattr(gf, "_prime_factors", lambda *a: pytest.fail("trial division"))
    if expected is None:
        with pytest.raises(NotPrimePowerError, match="is not a prime power"):
            gf._prime_power_decomposition(q)
    else:
        assert gf._prime_power_decomposition(q) == expected


def test_prime_power_decomposition_matches_trial_division():
    for q in range(2, 20_000):
        factors = gf._prime_factors(q)
        if len(factors) == 1:
            p = factors[0]
            assert gf._prime_power_decomposition(q) == (p, round(math.log(q, p)))
        else:
            with pytest.raises(NotPrimePowerError):
                gf._prime_power_decomposition(q)


def test_prime_power_decomposition_refuses_orders_it_cannot_test_exactly():
    # 3317044064679887385961981 is itself a strong pseudoprime to the first 13 primes
    for q in (gf.MAX_DECOMPOSED_ORDER, 2**82, 10**400):
        with pytest.raises(FieldTooLargeError, match="decomposition limit"):
            field_parameters(q)


def test_array_helpers():
    f = build_field(9)
    a, b = np.meshgrid(np.arange(9), np.arange(9))
    assert f.mul_array(a, b).tolist() == [
        [f.mul(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.tolist(), b.tolist())]
    assert f.digits(np.arange(9)).tolist() == [f.coeffs(a) for a in range(9)]


def test_describe():
    d = build_field(4).describe()
    assert d["name"] == "GF(4)"
    assert d["modulus"] == [1, 1, 1]


@pytest.mark.parametrize("q", [2, 4, 9, 256, 2187])
def test_describe_field_needs_no_tables_and_matches_describe(q):
    assert describe_field(*field_parameters(q)) == build_field(q).describe()


def test_fields_above_the_table_limit_raise_before_building_tables():
    big = 2**31 - 1  # prime; its tables would take hundreds of gigabytes
    assert field_parameters(big) == (big, 1, (0, 1))
    with pytest.raises(FieldTooLargeError):
        build_field(big)
    with pytest.raises(FieldTooLargeError):
        build_field(MAX_TABLE_ORDER + 1)  # 65537 is prime
    with pytest.raises(NotPrimePowerError):
        field_parameters(2 * big)


@pytest.mark.parametrize("modulus, message", [
    ((1, 1, 0), "modulus must be monic of degree m"),  # x + 1 padded, not monic
    ((1, 1), "modulus must be monic of degree m"),  # degree 1, not 2
    ((0, 0, 1), "modulus (0, 0, 1) is reducible over GF(2)"),  # x^2
    ((1, 0, 1), "modulus (1, 0, 1) is reducible over GF(2)"),  # (x + 1)^2
])
def test_a_modulus_that_is_not_monic_irreducible_is_refused(modulus, message):
    with pytest.raises(ValueError) as exc:
        gf.GF(2, 2, modulus)
    assert str(exc.value) == message


def test_build_field_refuses_a_huge_order_before_factoring_it(no_factoring):
    # trial division of a 61-bit prime would take about 2^30 steps
    for q in (2**61 - 1, 999999999999999989, 2**16 * 3):
        with pytest.raises(FieldTooLargeError):
            build_field(q)


# -- irreducibility -----------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rabin_test_matches_trial_division(p, m):
    # every monic polynomial of degree m over GF(p): m = 2, 3, 5 are prime,
    # m = 4 has the prime divisor 2 and m = 6 the divisors 2 and 3
    expected = reference.irreducible_flags(p, m)
    polys = reference.monic_polynomials(p, m).tolist()
    assert [_is_irreducible(poly, p) for poly in polys] == list(expected)
    smallest = polys[expected.index(True)]
    assert gf._smallest_irreducible(p, m) == tuple(smallest)


@pytest.mark.parametrize("q, modulus", [
    ((2**31 - 1) ** 2, (1, 0, 1)),  # -1 is no square mod 2^31 - 1
    (2**40, (1, 0, 0, 1, 1, 1) + (0,) * 34 + (1,)),  # x^40 + x^5 + x^4 + x^3 + 1
])
def test_smallest_irreducible_of_a_large_degree_or_characteristic(q, modulus, monkeypatch):
    # trial division took p^(m/2) = 2^31 and 2^20 divisions per candidate;
    # Rabin's test takes a few hundred products of polynomials mod f
    products = []
    real = gf._poly_mulmod

    def counted(*args):
        products.append(1)
        return real(*args)

    monkeypatch.setattr(gf, "_poly_mulmod", counted)
    assert field_parameters(q)[2] == modulus
    assert len(products) < 10**5
