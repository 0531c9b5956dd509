"""Bound formulas for shortest MWS / QM code lengths.

Everything that feeds a pass/fail comparison is exact: length bounds use
integer ceilings, and the random-coding threshold scan decides each step
from a float interval with outward rounding that holds the exact value,
falling back to a big-integer comparison when the interval straddles the
threshold.  bounds_table assembles a (q, k) grid and runs one threshold
scan per q, which settles every k of that q in a single pass over n.
The scanned T_n = S_n / q^{2n} decreases strictly and stays above
1 / sqrt(pi (2 beta n + 1)), beta = 2 (q-1) / q^2, so a k that this bound
puts past the cap gets None, certified in integers, without being scanned.
Real-valued quantities (entropy, the two GV-type length factors) are
returned as floats; the factor lambda_q is evaluated in high-precision
arithmetic internally because 1 - h_q((q-2)/(q-1)) underflows double
precision already around q = 10^4.
"""

from __future__ import annotations

import contextlib
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from fractions import Fraction

from .gf import _prime_power_decomposition

# bounds_table refuses a cell whose exact powers 2^e need more bits than
# this: printing 2**2**20 in decimal already takes about 2 s, and e grows like
# k q^3 ln q (gv_qm_length) and like q^(k-1) (the simplex length).
MAX_POWER_BITS = 2**20

# bounds_table's threshold scans stop here (None): thresholds grow like
# q^{4k+2}, and (9, 4) lies near n = 9e10, beyond any scan of n.
EQBOUND_CAP = 2000


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift Python's limit on int-to-str digits (3.10.7+) while exact values
    are written: bounds cells carry 2**gv_qm_length, which for q >= 11 has
    more than the default 4300 digits, and a long Monte-Carlo run's exact
    bound has terms as long."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # older interpreters have no limit
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class PowerTooLargeError(RuntimeError):
    """Raised when a bounds cell needs 2^e with e above MAX_POWER_BITS."""


def entropy_q(q: int, x: float) -> float:
    """The q-ary entropy -x log_q x - (1-x) log_q(1-x) + x log_q(q-1).

    Uses the 0 log 0 = 0 convention at both endpoints.
    """
    if q < 2:
        raise ValueError("entropy base must be >= 2")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument {x} outside [0, 1]")
    lq = math.log(q)
    h = 0.0
    if 0.0 < x:
        h -= x * math.log(x) / lq
    if x < 1.0:
        h -= (1.0 - x) * math.log(1.0 - x) / lq
    h += x * math.log(q - 1) / lq
    return h


def lambda_q(q: int) -> float:
    """GV-type length factor (1 - h_q((q-2)/(q-1)))^{-1}.

    Grows like 2 q^3 ln q, so the working precision grows with the digits of
    q; equals 1 at q = 2.  The float overflows from q = 2^339 (about 10^102)
    on, lambda_q(2^338) being 8.2e307, so such a q returns inf at once.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if q == 2:
        return 1.0
    if q >= 2**339:
        return math.inf
    import mpmath  # imported here: only bounds and the GV search need it

    with mpmath.workdps(60 + q.bit_length()):
        x = mpmath.mpf(q - 2) / (q - 1)
        lq = mpmath.log(q)
        h = (-x * mpmath.log(x) - (1 - x) * mpmath.log(1 - x) + x * mpmath.log(q - 1)) / lq
        return float(1 / (1 - h))


def mu_q(q: int) -> float:
    """Non-constructive length factor 2 / log_q(q^2 / (q^2 - 2q + 2)).

    Grows like q ln q, i.e. about 2 q^2 smaller than lambda_q.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    denom = math.log1p((2 * q - 2) / (q * q - 2 * q + 2))
    return 2.0 * math.log(q) / denom


def mws_lower_bound(q: int, k: int) -> int:
    """ceil((q/2) (q^k - 1)/(q - 1)): no shorter [n,k]_q MWS code exists."""
    num = q * (q**k - 1)
    den = 2 * (q - 1)
    return -(-num // den)


def exact_mws_length(q: int, k: int) -> int | None:
    """The known exact shortest MWS lengths: 2^k - 1 for q = 2, and
    q(q+1)/2 for k = 2.  None when neither case applies."""
    if q == 2:
        return 2**k - 1
    if k == 2:
        return q * (q + 1) // 2
    return None


def binom_sq_sum(n: int, q: int) -> int:
    """sum_{w=0}^{n} C(n,w)^2 (q-1)^{2w}, exactly.  With x = (q-1)^2 the sums
    obey the three-term recurrence
    (m+1) S_{m+1} = (2m+1)(1+x) S_m - m(1-x)^2 S_{m-1}, from S_0 = 1, whose
    division by m+1 is exact: a few big-integer products per step instead
    of a term per w."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = (q - 1) ** 2
    a, b = 1 + x, (1 - x) ** 2
    prev, cur = 0, 1
    for m in range(n):
        prev, cur = cur, ((2 * m + 1) * a * cur - m * b * prev) // (m + 1)
    return cur


def max_term(n: int, q: int) -> tuple[int, int]:
    """The maximizer of C(n,w)(q-1)^w and its value M(n,q).

    The term ratio shows the sequence is nondecreasing exactly while
    w <= (q-1)(n+1)/q, so the floor of that expression attains the maximum
    (and is the index reported even under ties).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    w_max = (q - 1) * (n + 1) // q
    w_max = min(w_max, n)
    return w_max, math.comb(n, w_max) * (q - 1) ** w_max


def eqbound_value(q: int, k: int, n: int) -> Fraction:
    """The random-coding expectation bound q^{2k-2n} sum C(n,w)^2 (q-1)^{2w}
    as an exact rational."""
    return Fraction(q ** (2 * k) * binom_sq_sum(n, q), q ** (2 * n))


# Outward rounding: for a positive normal float y, the rounded y * _UP is at
# least nextafter(y, inf) and the rounded y * _DOWN at most nextafter(y, -inf).
_UP, _DOWN = 1.0 + 2.0**-52, 1.0 - 2.0**-52


def _enclose(x: Fraction) -> tuple[float, float]:
    """Floats lo <= x <= hi: float(x), correctly rounded, or its neighbours."""
    y = float(x)
    return (y, y) if y == x else (math.nextafter(y, -math.inf), math.nextafter(y, math.inf))


def _enclosures(q: int, n: int):
    """Yield floats (lo, hi) with lo <= S_m / q^{2m} <= hi for m = n, n+1, ...

    With A = (1 + (q-1)^2) / q^2 and B = (q-2)^2 / q^2, the S_m recurrence
    gives rho_m = S_m / (q^2 S_{m-1}) as rho_{m+1} = ((2m+1) A - m B / rho_m)
    / (m+1), increasing in rho_m, and S_m / q^{2m} is the running product of
    the rho_m.  Start values, A and B are enclosed from exact Fractions, and
    each operation's result is pushed one step outward (Moore, Kearfott &
    Cloud, Introduction to Interval Analysis, 2009).  rho_m >= A, as rho_1 = A
    and A^2 >= B, so r_lo is raised to A's low end when below, and every push
    acts on a positive number: a normal one, or a t_lo too small to certify
    a fail.  The map's slope m B / ((m+1) rho_m^2) is below 1, so the
    enclosures widen only by their rounding, a few ulps a step.
    """
    s = binom_sq_sum(n, q)
    r_lo, r_hi = _enclose(Fraction(s, q * q * binom_sq_sum(n - 1, q)))
    t_lo, t_hi = _enclose(Fraction(s, q ** (2 * n)))
    a_lo, a_hi = _enclose(Fraction(1 + (q - 1) ** 2, q * q))
    b_lo, b_hi = _enclose(Fraction((q - 2) ** 2, q * q))
    m = float(n)  # exact while m < 2^53
    while True:
        yield t_lo, t_hi
        m1 = m + 1.0
        m2 = m + m1
        r_lo = (m2 * a_lo * _DOWN - m * b_hi * _UP / r_lo * _UP) * _DOWN / m1 * _DOWN
        if r_lo < a_lo:
            r_lo = a_lo
        r_hi = (m2 * a_hi * _UP - m * b_lo * _DOWN / r_hi * _DOWN) * _UP / m1 * _UP
        t_lo = t_lo * r_lo * _DOWN
        t_hi = t_hi * r_hi * _UP
        m = m1


def _fails_through(q: int, k: int, n: int) -> bool:
    """True when a certificate shows T_m > 2 (q-1)^2 / q^{2k} for every
    m <= n, T_m = S_m / q^{2m}: then k fails the threshold test at every
    length up to n.  False says nothing.

    With beta = 2 (q-1) / q^2, Parseval gives T_m = (1/2 pi) int_0^{2 pi}
    (1 - beta (1 - cos t))^m dt, so T_m decreases strictly in m.  With
    u = sin(t/2), Bernoulli's inequality 1 - 2 beta u^2 >= (1 - u^2)^{2 beta},
    the Beta integral and Gautschi's inequality give
    T_m > 1 / sqrt(pi (2 beta m + 1)).  As 355/113 > pi, a bar = 2 (q-1)^2
    / q^{2k} with bar^2 (355/113) (2 beta n + 1) <= 1 lies below T_n, and so
    below every T_m with m <= n.  The test is that inequality times
    113 q^{4k+2}, in integers.
    """
    return (355 * 4 * (q - 1) ** 4 * (4 * (q - 1) * n + q * q)
            <= 113 * q ** (4 * k + 2))


def _eqbound_scan(q: int, ks: Iterable[int], max_n: int | None) -> dict[int, int | None]:
    """eqbound_min_n(q, k, max_n) for every k in ks, from one upward scan.

    With a cap, a k that _fails_through certifies to fail at every n up to
    max(max_n, k, 1), the last length the scan would test it at, gets None
    at once, before any scan: it would fail every test the scan made.  Only
    the other ks are scanned, and none at all when every k is certified, so
    a capped scan ends at the last threshold it finds, not at the cap.

    Each scanned k is tested from max(k, 1) on; the scan starts at the
    smallest of these.  At each n only the smallest pending k is tested:
    q^{2k} grows with k, so a larger k fails wherever a smaller one does.
    When it passes, the next k is tested at the same n.  A k whose start
    lies above n waits until n reaches it.  Once n >= max_n, every pending k
    whose start has been reached gets None.

    The test q^{2k} S_n < 2 (q-1)^2 q^{2n} is T_n < 2 (q-1)^2 / q^{2k}, with
    T_n = S_n / q^{2n} enclosed by _enclosures and the threshold enclosed
    from its Fraction.  Each test is then a certain pass, a certain fail or
    a straddle; only a straddle, or a threshold below the normal float
    range, runs the exact integer test.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    pending = sorted(set(ks))
    if pending[0] < 0:
        raise ValueError(f"k must be >= 0, got {pending[0]}")
    found: dict[int, int | None] = {
        k: None for k in pending
        if max_n is not None and _fails_through(q, k, max(max_n, k, 1))}
    pending = [k for k in pending if k not in found]
    if not pending:
        return found
    starts = [max(k, 1) for k in pending]
    scales = [q ** (2 * k) for k in pending]
    bars = [_enclose(Fraction(2 * (q - 1) ** 2, scale)) for scale in scales]
    bars = [bar if bar[0] >= sys.float_info.min else (-math.inf, math.inf) for bar in bars]
    n = starts[0]
    i, m = 0, len(pending)
    for t_lo, t_hi in _enclosures(q, n):
        while i < m and starts[i] <= n and (
                t_hi < bars[i][0] or (t_lo < bars[i][1] and
                scales[i] * binom_sq_sum(n, q) < 2 * (q - 1) ** 2 * q ** (2 * n))):
            found[pending[i]] = n
            i += 1
        if max_n is not None and n >= max_n:
            while i < m and starts[i] <= n:
                found[pending[i]] = None
                i += 1
        if i == m:
            return found
        n += 1


def eqbound_min_n(q: int, k: int, max_n: int | None = None) -> int | None:
    """Smallest n >= max(k, 1) with eqbound_value(q, k, n) < 2 (q-1)^2.

    Scans n upward from max(k, 1), enclosing q^{-2n} binom_sq_sum(n, q) in a
    float interval with outward rounding; where it straddles 2 (q-1)^2 q^{-2k}
    the exact integer test decides, so the answer is exact.  q < 2 and k < 0
    raise ValueError.  The left side eventually decays like 1/sqrt(n), so
    the scan terminates, but for large (q, k) only after very many steps:
    max_n caps it, and None means the threshold was not reached by max_n.
    The first n is always tested, even when it exceeds max_n.  With a cap,
    a k whose test the lower bound 1 / sqrt(pi (2 beta n + 1)) on the
    decreasing left side (_fails_through) shows to fail up to the cap gets
    None without a scan.  This is one k
    of the scan that bounds_table shares between all k of one q.
    """
    return _eqbound_scan(q, [k], max_n)[k]


@dataclass(frozen=True)
class BoundsReport:
    """All length bounds and asymptotic diagnostics for one (q, k) cell."""

    q: int
    k: int
    lower_bound_length: int
    exact_length: int | None
    lambda_q: float
    mu_q: float
    gv_qm_length: int
    nonconstructive_qm_length: int
    embedded_length_gv: int
    embedded_length_simplex: int
    eqbound_min_n: int | None
    lambda_ratio: float
    mu_ratio: float
    lambda_over_mu_ratio: float
    limit_bracket: tuple[int, int]
    d_q_estimate: float
    d_q_note: str

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["limit_bracket"] = list(self.limit_bracket)
        return d


def bounds_table(qs: Sequence[int], ks: Sequence[int]) -> list[BoundsReport]:
    """Assemble every bound for each (q, k) cell, q outer and k inner.

    Every cell's k and power limit are checked, in that order, before any
    threshold is scanned: k < 1 raises ValueError, and a cell whose embedded
    lengths 2^e have e > MAX_POWER_BITS raises PowerTooLargeError, before
    q^k or lambda_q is computed when q^(k-1) alone exceeds the limit, and
    before the ceiling of k * lambda_q when that product alone exceeds it (or
    is inf, for a q of 2^339 or more).  A q is factored (NotPrimePowerError),
    and mu_q computed, only once its first cell passes.  lambda_q, mu_q and
    the eqbound_min_n thresholds are computed once per q, the thresholds of
    all ks by one scan capped at EQBOUND_CAP; cells past the cap report
    None.  The D_q figure is an asymptotic estimate only and never feeds a
    comparison.
    """
    factors: dict[int, tuple[float, float]] = {}
    cells = []
    for q in qs:
        for k in ks:
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
            # The exponent is at least simplex_len - 1 >= q^(k-1) >= 2^((k-1) d)
            # with d = floor(log2 q).  Once that exceeds MAX_POWER_BITS the cell is
            # refused before q**k, the float k * lambda_q or an exponent too long
            # to print is computed (a q < 2 is lambda_q's error).
            if q >= 2 and (k - 1) * (q.bit_length() - 1) >= MAX_POWER_BITS.bit_length():
                raise PowerTooLargeError(
                    f"(q, k) = ({q}, {k}) needs 2^e with e >= q^(k-1) > MAX_POWER_BITS "
                    f"= {MAX_POWER_BITS}; such exponents are refused")
            lam = factors[q][0] if q in factors else lambda_q(q)
            simplex_len = (q**k - 1) // (q - 1)
            if max(k * lam, simplex_len - 1) > MAX_POWER_BITS:  # before ceil(inf)
                raise PowerTooLargeError(
                    f"(q, k) = ({q}, {k}) needs 2^e with e >= k * lambda_q = {k * lam:.4g} "
                    f"and e >= {simplex_len - 1}; exponents above MAX_POWER_BITS = "
                    f"{MAX_POWER_BITS} are refused")
            gv_len = math.ceil(k * lam)
            if q not in factors:
                _prime_power_decomposition(q)
                factors[q] = lam, mu_q(q)
            cells.append((q, k, gv_len, simplex_len))
    thresholds = {q: _eqbound_scan(q, ks, EQBOUND_CAP) for q in factors}
    reports = []
    for q, k, gv_len, simplex_len in cells:
        lam, mu = factors[q]
        reports.append(BoundsReport(
            q=q,
            k=k,
            lower_bound_length=mws_lower_bound(q, k),
            exact_length=exact_mws_length(q, k),
            lambda_q=lam,
            mu_q=mu,
            gv_qm_length=gv_len,
            nonconstructive_qm_length=math.ceil(k * mu),
            embedded_length_gv=2**gv_len,
            embedded_length_simplex=2 ** (simplex_len - 1),
            eqbound_min_n=thresholds[q][k],
            lambda_ratio=lam / (2 * q**3 * math.log(q)),
            mu_ratio=mu / (q * math.log(q)),
            lambda_over_mu_ratio=(lam / mu) / (2 * q**2),
            limit_bracket=(1, 4),
            d_q_estimate=q / (2 * (q - 1) ** 2.5),
            d_q_note="approximate asymptotic estimate; not used in any comparison",
        ))
    return reports


def bounds_report(q: int, k: int) -> BoundsReport:
    """Assemble every bound for one (q, k) cell: bounds_table([q], [k]).

    See bounds_table for the checks made before anything is computed in
    full, and for the cap on the threshold scan.
    """
    return bounds_table([q], [k])[0]
