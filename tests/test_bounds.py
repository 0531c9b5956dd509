"""Bound formula tests with independent oracles where values were derived."""

import math
import sys
from fractions import Fraction
from itertools import islice

import pytest

from mwscodes import (
    binom_sq_sum,
    bounds_report,
    bounds_table,
    entropy_q,
    eqbound_min_n,
    eqbound_value,
    exact_mws_length,
    lambda_q,
    max_term,
    mu_q,
    mws_lower_bound,
)
import mwscodes.bounds as bounds_mod
from mwscodes.bounds import MAX_POWER_BITS, PowerTooLargeError, _enclosures, _eqbound_scan

import reference


# -- entropy ------------------------------------------------------------------

def test_entropy_endpoints():
    assert entropy_q(3, 0.0) == 0.0
    assert entropy_q(3, 1.0) == pytest.approx(math.log(2) / math.log(3))
    assert entropy_q(2, 0.5) == pytest.approx(1.0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_entropy_capacity_point(q):
    assert entropy_q(q, (q - 1) / q) == pytest.approx(1.0, abs=1e-12)


def test_entropy_domain_error():
    with pytest.raises(ValueError):
        entropy_q(2, -0.1)
    with pytest.raises(ValueError):
        entropy_q(2, 1.1)


@pytest.mark.parametrize("call, message", [
    (lambda: entropy_q(1, 0.5), "entropy base must be >= 2"),
    (lambda: lambda_q(1), "q must be >= 2"),
    (lambda: lambda_q(-3), "q must be >= 2"),
    (lambda: mu_q(1), "q must be >= 2"),
    (lambda: binom_sq_sum(-1, 3), "n must be >= 0"),
    (lambda: max_term(-1, 3), "n must be >= 0"),
])
def test_formulas_refuse_q_below_2_and_negative_n(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_entropy_concave_on_grid(q):
    xs = [i / 200 for i in range(201)]
    hs = [entropy_q(q, x) for x in xs]
    assert max(hs) == pytest.approx(entropy_q(q, (q - 1) / q), abs=1e-4)
    # midpoint concavity on a grid, small numeric slack
    for i in range(1, 200):
        assert hs[i] >= (hs[i - 1] + hs[i + 1]) / 2 - 1e-9


# -- GV-type factors ----------------------------------------------------------

def test_lambda_q_small():
    assert lambda_q(2) == 1.0
    # oracle: 1 / (1 - (3/2) log_3 2)
    expected = 1.0 / (1.0 - 1.5 * math.log(2) / math.log(3))
    assert lambda_q(3) == pytest.approx(expected, rel=1e-12)
    assert lambda_q(3) == pytest.approx(18.6548, abs=1e-3)


def test_mu_q_small():
    assert mu_q(2) == pytest.approx(2.0)
    assert mu_q(3) == pytest.approx(2 * math.log(3) / math.log(9 / 5), rel=1e-12)
    assert mu_q(3) == pytest.approx(3.738, abs=1e-3)


def test_lambda_asymptotic_at_997():
    ratio = lambda_q(997) / (2 * 997**3 * math.log(997))
    assert 0.8 < ratio < 1.2


def test_asymptotic_ratios_approach_one():
    for q in (100, 1000, 10000):
        assert lambda_q(q) / (2 * q**3 * math.log(q)) == pytest.approx(1.0, abs=0.05)
        assert mu_q(q) / (q * math.log(q)) == pytest.approx(1.0, abs=0.05)
        assert (lambda_q(q) / mu_q(q)) / (2 * q**2) == pytest.approx(1.0, abs=0.05)


def test_lambda_q_is_inf_from_where_its_float_overflows(monkeypatch):
    # 2^338 is the last power of 2 whose factor is finite; from 2^339 on
    # lambda_q answers inf without mpmath, which took 0.8 s at 10^4299
    assert lambda_q(2**338) == pytest.approx(8.225982e307, rel=1e-6)
    assert lambda_q(2**339 - 1) == math.inf
    monkeypatch.setitem(sys.modules, "mpmath", None)  # importing it now fails
    for q in (2**339, 10**324, 10**4299):
        assert lambda_q(q) == math.inf


# -- length bounds ------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 8))
def test_lower_bound_binary(k):
    assert mws_lower_bound(2, k) == 2**k - 1


def test_lower_bound_examples():
    assert mws_lower_bound(3, 2) == 6
    assert mws_lower_bound(4, 2) == 10


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_lower_bound_matches_exact_two_dim(q):
    assert mws_lower_bound(q, 2) == exact_mws_length(q, 2) == q * (q + 1) // 2


def test_exact_length_cases():
    assert exact_mws_length(2, 5) == 31
    assert exact_mws_length(5, 2) == 15
    assert exact_mws_length(3, 3) is None


# -- the random-coding threshold ----------------------------------------------

@pytest.mark.parametrize("n", range(0, 65))
def test_binom_sq_sum_vandermonde_oracle(n):
    assert binom_sq_sum(n, 2) == math.comb(2 * n, n)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_binom_sq_sum_matches_its_definition(q):
    assert [binom_sq_sum(n, q) for n in range(401)] == [reference.binom_sq_sum(n, q)
                                                        for n in range(401)]
    if q == 7:  # the Monte-Carlo long-code length
        assert binom_sq_sum(1757, 7) == reference.binom_sq_sum(1757, 7)


def test_eqbound_min_n_2_2():
    assert eqbound_min_n(2, 2) == 21
    assert eqbound_value(2, 2, 20) == Fraction(math.comb(40, 20), 2**36)
    assert float(eqbound_value(2, 2, 20)) == pytest.approx(2.006, abs=1e-3)
    assert float(eqbound_value(2, 2, 21)) == pytest.approx(1.958, abs=1e-3)


def test_eqbound_monotone_in_k():
    for q in (2, 3):
        assert eqbound_min_n(q, 3) >= eqbound_min_n(q, 2)


def test_eqbound_growth():
    # consistent with an upper bound proportional to q^{4k}
    for q, k in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        assert eqbound_min_n(q, k) <= 4 * q ** (4 * k)


def test_eqbound_cap_returns_none():
    assert eqbound_min_n(5, 3, max_n=50) is None


# the exact oracle for the interval scan: reference.eqbound_scan runs the
# big-integer S_n recurrence reference.binom_sq_sums

@pytest.mark.parametrize("q", range(2, 10))
def test_recurrence_matches_binom_sq_sum(q):
    sums = reference.binom_sq_sums
    assert list(islice(sums(q, 0), 80)) == [binom_sq_sum(n, q) for n in range(80)]
    assert list(islice(sums(q, 37), 5)) == [binom_sq_sum(n, q) for n in range(37, 42)]


def test_recurrence_raises_on_inexact_division(monkeypatch):
    true_sum = bounds_mod.binom_sq_sum
    monkeypatch.setattr(bounds_mod, "binom_sq_sum", lambda n, q: true_sum(n, q) + (n == 0))
    with pytest.raises(ArithmeticError):
        list(islice(reference.binom_sq_sums(3, 1), 3))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9, 16, 8192])
@pytest.mark.parametrize("start", [1, 37])
def test_enclosures_contain_exact_t(q, start):
    # lo <= S_n / q^{2n} <= hi as exact rationals, with a narrow interval;
    # dropping the outward rounding, or reversing it, fails this test
    exact = reference.binom_sq_sums(q, start)
    for n, (lo, hi), s in zip(range(start, 301), _enclosures(q, start), exact):
        t = Fraction(s, q ** (2 * n))
        assert lo <= t <= hi, (q, n)
        assert hi - lo <= 1e-9 * t, (q, n)


GRID = [(q, cap) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
        for cap in (0, 1, 2, 5, 21, 60, 300, 2000)]
GRID += [(q, cap) for q in (4099, 8191, 8192, 65521, 65536)
         for cap in (0, 1, 2, 5, 21, 60, 300)]


@pytest.mark.parametrize("q, cap", GRID)
def test_interval_scan_matches_exact_oracle(q, cap):
    ks = range(6)
    assert _eqbound_scan(q, ks, cap) == reference.eqbound_scan(q, ks, cap)
    for k in ks:
        assert eqbound_min_n(q, k, max_n=cap) == reference.eqbound_scan(q, [k], cap)[k]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_forced_straddles_keep_every_answer(monkeypatch, q):
    # pushing every rounding 2^200 outward leaves each interval after the
    # first straddling every threshold, so the exact test decides each n
    tested = []
    true_sum = bounds_mod.binom_sq_sum

    def counted(n, q):
        tested.append(n)
        return true_sum(n, q)

    monkeypatch.setattr(bounds_mod, "_UP", 2.0**200)
    monkeypatch.setattr(bounds_mod, "_DOWN", 2.0**-200)
    monkeypatch.setattr(bounds_mod, "binom_sq_sum", counted)
    # no k is settled by the certificate, so every k reaches the scan
    monkeypatch.setattr(bounds_mod, "_fails_through", lambda q, k, n: False)
    for cap in (0, 1, 2, 5, 21, 60):
        assert _eqbound_scan(q, range(6), cap) == reference.eqbound_scan(q, range(6), cap)
        for k in range(6):
            tested.clear()
            found = eqbound_min_n(q, k, max_n=cap)
            assert found == reference.eqbound_scan(q, [k], cap)[k]
            start = max(k, 1)
            end = max(start, cap) if found is None else found
            assert set(range(start + 1, end + 1)) <= set(tested)


@pytest.mark.parametrize("q", list(range(2, 17)) + [25, 27, 32, 49, 64, 81, 125, 128, 243, 256])
def test_certificate_inequality_holds_exactly(q):
    # _fails_through rests on T_n = S_n / q^{2n} decreasing strictly and on
    # T_n^2 (355/113) (2 beta n + 1) > 1, beta = 2 (q-1) / q^2
    beta = Fraction(2 * (q - 1), q * q)
    previous = None
    for n, s in zip(range(301), reference.binom_sq_sums(q, 0)):
        t = Fraction(s, q ** (2 * n))
        assert previous is None or t < previous, (q, n)
        assert t * t * Fraction(355, 113) * (2 * beta * n + 1) > 1, (q, n)
        previous = t


def test_certified_cells_are_not_scanned(monkeypatch):
    def fail(*args):
        raise AssertionError("scanned a certified k")

    monkeypatch.setattr(bounds_mod, "_enclosures", fail)
    monkeypatch.setattr(bounds_mod, "binom_sq_sum", fail)
    assert _eqbound_scan(9, [2, 3, 4], 2000) == {2: None, 3: None, 4: None}


def test_scan_stops_at_the_last_threshold(monkeypatch):
    # (8, 3) and (8, 4) are certified, so the scan ends at (8, 2)'s 1272,
    # not at the cap
    steps = []
    true_enclosures = bounds_mod._enclosures

    def counted(q, n):
        for m, pair in enumerate(true_enclosures(q, n), n):
            steps.append(m)
            yield pair

    monkeypatch.setattr(bounds_mod, "_enclosures", counted)
    assert _eqbound_scan(8, [1, 2, 3, 4], 2000) == {1: 1, 2: 1272, 3: None, 4: None}
    assert steps == list(range(1, 1273))


def test_eqbound_min_n_uncapped_past_the_report_cap():
    assert eqbound_min_n(4, 3) == 21977


@pytest.mark.parametrize("q, k", [(1, 1), (0, 1), (-3, 1), (3, -1)])
def test_eqbound_min_n_refuses_q_below_2_and_negative_k(q, k):
    with pytest.raises(ValueError):
        eqbound_min_n(q, k, max_n=10)
    with pytest.raises(ValueError):
        _eqbound_scan(q, [k, 2], 10)


def eqbound_min_n_scan_oracle(q, k, max_n):
    """Linear scan with the exact rational, testing n = max(k, 1) even past
    max_n, as eqbound_min_n does."""
    n = max(k, 1)
    while True:
        if eqbound_value(q, k, n) < 2 * (q - 1) ** 2:
            return n
        n += 1
        if n > max_n:
            return None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16])
def test_eqbound_min_n_matches_scan_oracle(q):
    for k in range(5):
        for cap in (0, 1, 2, 5, 20, 21, 60):
            assert eqbound_min_n(q, k, max_n=cap) == eqbound_min_n_scan_oracle(q, k, cap)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16])
def test_shared_scan_matches_scan_oracle(q):
    # one scan for an unsorted k list with duplicates, k = 0 and a k past the
    # cap, which is tested once at its own start
    for cap in (0, 1, 2, 5, 20, 21, 60):
        ks = [3, 0, cap + 3, 1, 3, 4, 0, 2]
        assert _eqbound_scan(q, ks, cap) == {
            k: eqbound_min_n_scan_oracle(q, k, cap) for k in ks}


@pytest.mark.parametrize("q, ks, expected", [
    (2, [4, 3], {3: 326, 4: None}),
    (3, [3, 2], {2: 37, 3: None}),
    (9, [4, 2, 3], {2: None, 3: None, 4: None}),
])
def test_shared_scan_at_report_cap(q, ks, expected):
    assert _eqbound_scan(q, ks, 2000) == expected


@pytest.mark.parametrize("q, k, n", [
    (2, 3, 326), (3, 2, 37), (4, 2, 86), (5, 2, 190), (7, 2, 723), (8, 2, 1272),
])
def test_eqbound_min_n_pinned(q, k, n):
    assert eqbound_min_n(q, k) == n


@pytest.mark.parametrize("q, k", [(2, 4), (3, 3), (9, 2)])
def test_eqbound_none_at_report_cap(q, k):
    assert eqbound_min_n(q, k, max_n=2000) is None
    assert bounds_report(q, k).eqbound_min_n is None


# -- the maximal term ---------------------------------------------------------

def max_term_scan_oracle(n, q):
    terms = [math.comb(n, w) * (q - 1) ** w for w in range(n + 1)]
    return max(terms)


def test_max_term_examples():
    w, m = max_term(3, 2)
    assert (w, m) == (2, 3)  # tied with w=1; floor-formula index reported
    w, m = max_term(4, 3)
    assert (w, m) == (3, 32)  # terms are 1, 8, 24, 32, 16


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_max_term_attains_maximum(q):
    for n in range(0, 120):
        _, m = max_term(n, q)
        assert m == max_term_scan_oracle(n, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_sum_below_max_times_qn(q):
    for n in range(1, 201):
        _, m = max_term(n, q)
        assert binom_sq_sum(n, q) <= m * q**n


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_sum_decays_like_inverse_sqrt(q):
    # sum * sqrt(n) / q^{2n} stays below 2 q / sqrt(q-1); compare squared,
    # exactly in integers
    c2_num, c2_den = 4 * q * q, q - 1
    for n in range(10, 201):
        s = binom_sq_sum(n, q)
        assert s * s * n * c2_den <= c2_num * q ** (4 * n)


# -- assembled report ---------------------------------------------------------

def test_bounds_report_2_3():
    rep = bounds_report(2, 3)
    assert rep.lower_bound_length == 7
    assert rep.exact_length == 7
    assert rep.gv_qm_length == 3
    assert rep.embedded_length_gv == 8
    assert rep.embedded_length_simplex == 2**6
    assert rep.limit_bracket == (1, 4)


def test_bounds_report_3_2():
    rep = bounds_report(3, 2)
    assert rep.lower_bound_length == 6
    assert rep.exact_length == 6
    assert rep.gv_qm_length == 38


def test_bounds_report_3_3():
    rep = bounds_report(3, 3)
    assert rep.lower_bound_length == math.ceil(3 * 13 / 2) == 20
    assert rep.exact_length is None
    d = rep.to_dict()
    assert d["limit_bracket"] == [1, 4]
    assert "approximate" in d["d_q_note"]


# -- cross-module invariants --------------------------------------------------

def test_verified_mws_lengths_respect_lower_bound():
    from mwscodes import SearchConfig, is_mws, loads_code, mws_pipeline, search

    for k in range(2, 7):
        code, report = mws_pipeline(2, k, "identity")
        assert report["embedded"]["is_mws"]
        assert code.effective_length >= mws_lower_bound(2, k)
    rep = search(SearchConfig(q=3, k=2, n_lo=6, n_hi=6, target="mws", mode="exhaustive"))
    witness = loads_code(rep["lengths"][0]["witness"]["matrix"])
    assert is_mws(witness)
    assert witness.effective_length >= mws_lower_bound(3, 2)


def test_embedded_length_log_ratio_inside_bracket():
    # (1/k) log_q N for the embedded binary codes sits inside [1, 4] with
    # slack for ceiling effects at small k
    from mwscodes import mws_pipeline

    for k in range(2, 7):
        code, _ = mws_pipeline(2, k, "identity")
        ratio = math.log(code.effective_length, 2) / k
        assert 1 - 0.5 <= ratio <= 4 + 0.5


def test_bounds_table_is_bounds_report_per_cell():
    cells = bounds_table([3, 2, 3], [2, 1, 2])
    assert cells == [bounds_report(q, k) for q in (3, 2, 3) for k in (2, 1, 2)]


# the first cell to fail, in table order, raises
@pytest.mark.parametrize("ks, error", [
    ([1, 0, 21], ValueError),
    ([1, 21, 0], PowerTooLargeError),
])
def test_bounds_table_checks_every_cell_before_any_scan(monkeypatch, ks, error):
    import mwscodes.bounds as bounds_mod

    def no_scan(*args):
        raise AssertionError("scanned before every cell was checked")

    monkeypatch.setattr(bounds_mod, "_eqbound_scan", no_scan)
    with pytest.raises(error):
        bounds_table([2], ks)


@pytest.mark.parametrize("qs, ks, error", [
    ([6], [1], "6 is not a prime power"),
    ([2, 10], [1, 2], "10 is not a prime power"),
    ([3, 6], [0], "k must be >= 1, got 0"),  # every cell's k comes first
])
def test_bounds_table_refuses_a_q_that_is_not_a_prime_power(qs, ks, error):
    with pytest.raises(ValueError) as exc:
        bounds_table(qs, ks)
    assert str(exc.value) == error


def test_bounds_table_factors_q_only_after_its_power_bound(no_factoring):
    for q in (999999999999999989, 2**40 * 3):  # a prime and a q of two primes
        with pytest.raises(PowerTooLargeError):
            bounds_report(q, 1)


def test_bounds_report_keeps_the_largest_cell_below_the_bit_limit():
    # (2, 20): the simplex embedding has length 2^(2^20 - 2), the largest
    # power with q = 2 under MAX_POWER_BITS = 2^20; (2, 21) needs 2^(2^21 - 2)
    cell = bounds_report(2, 20)
    assert MAX_POWER_BITS == 2**20
    assert cell.embedded_length_simplex == 2 ** (2**20 - 2)
    assert cell.embedded_length_gv == 2**cell.gv_qm_length == 2**20
    with pytest.raises(PowerTooLargeError, match="2097150"):
        bounds_report(2, 21)
    assert bounds_report(16, 1).embedded_length_gv.bit_length() == 19099 + 1
    with pytest.raises(PowerTooLargeError):
        bounds_report(65537, 1)
