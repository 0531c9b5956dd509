"""Exact arithmetic in GF(q) for any prime power q.

Field elements are plain Python integers in [0, q).  The integer encodes the
element's coefficient vector in base p, least-significant digit = constant
term, so index 0 is the additive identity and index 1 is the multiplicative
identity.  For prime fields (m = 1) this is ordinary arithmetic mod p.

The reducing modulus is always the lexicographically smallest monic
irreducible polynomial of degree m over GF(p), coefficients compared from the
constant term upward.  This makes every field construction deterministic and
reproducible.  The modulus need not be primitive (GF(9) uses x^2 + 1, and x
has order 4), so arithmetic runs on log/exp/Zech tables of the smallest
primitive element instead (Lidl & Niederreiter, Finite Fields, ch. 2): the
same O(1) lookups and an O(q) build for every q up to MAX_TABLE_ORDER.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

# Larger fields raise FieldTooLargeError before any table is built; GF(2^16)'s
# tables take about 13 MB and 0.2 s.  field_parameters() needs no tables.
MAX_TABLE_ORDER = 2**16


class NotPrimePowerError(ValueError):
    """Raised when a field order has two distinct prime factors."""


class FieldTooLargeError(RuntimeError):
    """Raised when GF(q) needs arithmetic tables above MAX_TABLE_ORDER, or
    q is too large to decompose exactly (MAX_DECOMPOSED_ORDER)."""


# A Miller-Rabin test with the first 13 primes as bases is exact below this
# bound (Sorenson & Webster, Strong pseudoprimes to twelve prime bases, Math.
# Comp. 2017); field_parameters refuses larger orders with FieldTooLargeError.
MAX_DECOMPOSED_ORDER = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 <= n < MAX_DECOMPOSED_ORDER."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_power_decomposition(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, p prime, or raise NotPrimePowerError:
    the integer m-th roots of q for m = floor(log2 q) .. 1, each tested for
    primality, so no q is factored."""
    if q < 2:
        raise NotPrimePowerError(f"field order must be >= 2, got {q}")
    if q >= MAX_DECOMPOSED_ORDER:
        raise FieldTooLargeError(
            f"GF({q}) is at or above the exact decomposition limit {MAX_DECOMPOSED_ORDER}")
    for m in range(q.bit_length() - 1, 0, -1):
        p = round(q ** (1 / m)) if m > 1 else q  # rounds to the root: p < 2^41
        if p**m == q and _is_prime(p):
            return p, m
    raise NotPrimePowerError(f"{q} is not a prime power")


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1 in increasing order, by trial
    division (for the group orders q - 1 <= MAX_TABLE_ORDER)."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + ([n] if n > 1 else [])


# -- polynomial helpers over GF(p), coefficients little-endian ----------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a divided by b over GF(p); b must be nonzero."""
    a = list(a)
    _poly_trim(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p) if p > 2 else b[-1]
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = (a[-1] * inv_lead) % p
        for i, bc in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * bc) % p
        _poly_trim(a)
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a b mod the monic f over GF(p), for a and b of length m = deg f; the
    result has length m too."""
    m = len(f) - 1
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for i in range(2 * m - 2, m - 1, -1):  # cancel x^i by x^(i - m) f
        c = prod[i] % p
        if c:
            for j in range(m):
                prod[i - m + j] -= c * f[j]
    return [c % p for c in prod[:m]]


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod the monic f over GF(p), left to right over the bits of e."""
    result = [1] + [0] * (len(f) - 2)
    for bit in bin(e)[2:]:
        result = _poly_mulmod(result, result, f, p)
        if bit == "1":
            result = _poly_mulmod(result, a, f, p)
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A greatest common divisor of a and b over GF(p), trimmed."""
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Rabin's test (Rabin, Probabilistic algorithms in finite fields, SIAM
    J. Comput. 1980): the monic f of degree m is irreducible over GF(p) iff
    x^(p^m) = x mod f and gcd(x^(p^(m/d)) - x, f) = 1 for every prime d
    dividing m.  Raising to the p-th power is GF(p)-linear, so
    g^p = sum g_i x^(p i) mod f: the rows x^(p i) are built once, from x^p
    by square-and-multiply, and each x^(p^j) is the last one through them,
    about m^3 + m^2 log p steps in all.  A root makes f reducible for m > 1,
    so gcd(x^p - x, f) != 1 rejects f as soon as x^p is known."""
    m = len(poly) - 1
    if m == 1:
        return True
    x = [0, 1] + [0] * (m - 2)

    def meets_f(g: list[int]) -> bool:  # gcd(g - x, f) != 1
        diff = _poly_trim([(a - b) % p for a, b in zip(g, x)])
        return not diff or len(_poly_gcd(list(poly), diff, p)) > 1

    xp = _poly_powmod(x, p, poly, p)
    if meets_f(xp):
        return False
    rows = [[1] + [0] * (m - 1), xp]
    for _ in range(m - 2):
        rows.append(_poly_mulmod(rows[-1], xp, poly, p))
    columns = list(zip(*rows))
    frobenius = [x]  # x^(p^j) mod f for j = 0..m
    for _ in range(m):
        g = frobenius[-1]
        frobenius.append([sum(map(operator.mul, g, col)) % p for col in columns])
    return frobenius[m] == x and not any(
        meets_f(frobenius[m // d]) for d in _prime_factors(m) if d < m)


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p)."""
    if m == 1:
        return (0, 1)  # the polynomial x
    for idx in range(p**m):
        low = [(idx // p**i) % p for i in range(m)]
        poly = low + [1]
        # the roots 0 and 1 are cheap to rule out: f(0) = low[0], f(1) = sum
        if low[0] and sum(poly) % p and _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


class GF:
    """The finite field GF(p^m).

    With g the smallest primitive element, the tables are exp[i] = g^i (stored
    twice over, so a sum of two logs needs no modulo), log (log[0] = -1 marks
    zero) and the Zech logarithms log(1 + g^i), -1 where 1 + g^i = 0.

    Instances are immutable after construction; all operations are pure and
    safe for unrestricted concurrent use.  Obtain instances via build_field().
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        if self.q > MAX_TABLE_ORDER:
            raise FieldTooLargeError(
                f"GF({self.q}) exceeds the arithmetic table limit {MAX_TABLE_ORDER}")
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        if not _is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        # The elements x^r are the integers p^r, which are also the digit weights.
        self.x_powers = p ** np.arange(m, dtype=np.int64)
        self._build_log_tables()

    # -- encoding -------------------------------------------------------------

    def coeffs(self, a: int) -> list[int]:
        """Coefficient vector of element a, constant term first."""
        return [(a // self.p**i) % self.p for i in range(self.m)]

    def _encode(self, c: list[int]) -> int:
        return sum(ci * self.p**i for i, ci in enumerate(c))

    def digits(self, a: np.ndarray) -> np.ndarray:
        """Base-p digits of an array of elements, on a new last axis of size m."""
        return np.asarray(a)[..., None] // self.x_powers % self.p

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return a or b
        # a + b = a (1 + b/a); a negative index wraps to the same residue.
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z < 0 else self._exp[la + z]

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_minus_one] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[self._log[a] * e % (self.q - 1)]

    def mul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two broadcastable arrays of elements."""
        la, lb = self.log[a], self.log[b]
        return np.where((la < 0) | (lb < 0), 0, self.exp[la + lb])

    def elements(self) -> list[int]:
        """All q elements in index order, starting at 0."""
        return list(range(self.q))

    # -- tables ---------------------------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        """Product by polynomial multiplication mod the modulus: the table
        build's primitive and the reference the tables are tested against."""
        return self._encode(_poly_mulmod(self.coeffs(a), self.coeffs(b), self.modulus, self.p))

    def _powers(self, g: int) -> np.ndarray:
        """g^0 .. g^(q-2) by doubling: multiplying the block of powers so far
        by g^len(block) is one GF(p)-linear map on their digits."""
        powers, step = np.ones(1, dtype=np.int64), g
        while len(powers) < self.q - 1:
            lin = self.digits([self._mul_poly(step, int(x)) for x in self.x_powers])
            powers = np.concatenate([powers, self.digits(powers) @ lin % self.p @ self.x_powers])
            step = self._mul_poly(step, step)
        return powers[: self.q - 1]

    def _build_log_tables(self) -> None:
        q, p = self.q, self.p
        # g has order q - 1 (is primitive) iff g^((q-1)/r) != 1 for every prime
        # r dividing q - 1; only the smallest such g gets its powers walked.
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        g = next(g for g in range(1, q) if all(
            _poly_powmod(self.coeffs(g), e, self.modulus, p) != self.coeffs(1) for e in cofactors))
        powers = self._powers(g)
        exp = np.concatenate([powers, powers])
        log = np.full(q, -1, dtype=np.int64)
        log[exp[: q - 1]] = np.arange(q - 1)
        # 1 + y only bumps y's constant digit; log[0] = -1 marks 1 + g^i = 0.
        y = exp[: q - 1]
        zech = log[y - y % p + (y % p + 1) % p]
        exp.flags.writeable = log.flags.writeable = False
        self.exp, self.log = exp, log
        # The scalar methods index tuples, several times faster than numpy.
        self._exp, self._log, self._zech = (tuple(a.tolist()) for a in (exp, log, zech))
        self._log_minus_one = self._log[p - 1]

    # -- misc -----------------------------------------------------------------

    def describe(self) -> dict:
        """Identification block used in reports."""
        return describe_field(self.p, self.m, self.modulus)

    def __repr__(self) -> str:
        return f"GF(q={self.q}, p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.p, self.m, self.modulus) == (
            other.p,
            other.m,
            other.modulus,
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))


def describe_field(p: int, m: int, modulus: tuple[int, ...]) -> dict:
    """GF(p^m)'s identification block, as GF.describe() gives it."""
    return {"name": f"GF({p**m})", "characteristic": p, "degree": m,
            "modulus": list(modulus)}


def field_parameters(q: int) -> tuple[int, int, tuple[int, ...]]:
    """(p, m, modulus) of GF(q), found without building any tables; raises
    NotPrimePowerError if q is not a prime power and FieldTooLargeError if
    q >= MAX_DECOMPOSED_ORDER."""
    p, m = _prime_power_decomposition(q)
    return p, m, _smallest_irreducible(p, m)


@lru_cache(maxsize=None)
def build_field(q: int) -> GF:
    """Construct GF(q), raising FieldTooLargeError if q exceeds
    MAX_TABLE_ORDER, before q is factored, and NotPrimePowerError if q is
    not a prime power."""
    if q > MAX_TABLE_ORDER:
        raise FieldTooLargeError(f"GF({q}) exceeds the arithmetic table limit {MAX_TABLE_ORDER}")
    return GF(*field_parameters(q))
