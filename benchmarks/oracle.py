"""Slow, independent pure-Python reference for the benchmark's checker.

Nothing here imports mwscodes.  Field elements use the same integer encoding
as the program (base-p digits, constant term first) and the same modulus
rule (the lexicographically smallest monic irreducible, compared from the
constant term upward), because a generator matrix file only means one code
under that convention.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, or ValueError."""
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    m, r = 0, q
    while r % p == 0:
        r //= p
        m += 1
    if q < 2 or r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _digits(a: int, p: int, m: int) -> list[int]:
    return [(a // p**i) % p for i in range(m)]


def _undigits(c, p: int) -> int:
    return sum(x * p**i for i, x in enumerate(c))


def _polymod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f over GF(p), f monic; coefficients constant term first."""
    a = list(a)
    df = len(f) - 1
    for top in range(len(a) - 1, df - 1, -1):
        c = a[top] % p
        if c:
            for i in range(df + 1):
                a[top - df + i] = (a[top - df + i] - c * f[i]) % p
    return [x % p for x in a[:df]] + [0] * max(0, df - len(a))


def _irreducible(f: list[int], p: int) -> bool:
    m = len(f) - 1
    for deg in range(1, m // 2 + 1):
        for low in range(p**deg):
            g = _digits(low, p, deg) + [1]
            if not any(_polymod(f, g, p)):
                return False
    return True


def smallest_irreducible(p: int, m: int) -> list[int]:
    if m == 1:
        return [0, 1]
    for low in range(p**m):
        f = _digits(low, p, m) + [1]
        if _irreducible(f, p):
            return f
    raise AssertionError("unreachable: an irreducible of every degree exists")


class Field:
    """GF(q) with log/exp multiplication and digit-wise addition."""

    def __init__(self, q: int):
        self.q = q
        self.p, self.m = prime_power(q)
        self.modulus = smallest_irreducible(self.p, self.m)
        if self.m == 1:
            self._mul = lambda a, b: a * b % q
        else:
            self._build_logs()
            self._mul = self._mul_log

    def _polymul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        ca, cb = _digits(a, p, m), _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        return _undigits(_polymod(prod, self.modulus, p), p)

    def _build_logs(self) -> None:
        for g in range(2, self.q):
            exp = [1]
            while len(exp) < self.q:
                nxt = self._polymul(exp[-1], g)
                if nxt == 1:
                    break
                exp.append(nxt)
            if len(exp) == self.q - 1:
                self.exp = exp
                self.log = {x: i for i, x in enumerate(exp)}
                return
        raise AssertionError("unreachable: GF(q)* is cyclic")

    def _mul_log(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def mul(self, a: int, b: int) -> int:
        return self._mul(a, b)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        p, m = self.p, self.m
        return _undigits([(x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m))], p)

    def describe(self) -> dict:
        return {"name": f"GF({self.q})", "characteristic": self.p,
                "degree": self.m, "modulus": list(self.modulus)}


@functools.lru_cache(maxsize=None)
def field(q: int) -> Field:
    return Field(q)


def rank(fld: Field, rows: list[list[int]]) -> int:
    """Rank by elimination; inverses and negatives by brute-force search."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = next(x for x in range(1, fld.q) if fld.mul(x, mat[r][c]) == 1)
        mat[r] = [fld.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                neg = next(y for y in range(fld.q) if fld.add(mat[i][c], y) == 0)
                mat[i] = [fld.add(x, fld.mul(neg, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


class Analysis:
    """Weights and supports of one representative per 1-dimensional subspace
    (first nonzero message coordinate equal to 1)."""

    def __init__(self, q: int, rows: list[list[int]], mult: list[int] | None = None):
        fld = field(q)
        k, n = len(rows), len(rows[0])
        mult = list(mult) if mult else [1] * n
        weights: dict[int, int] = {}
        supports: set[int] = set()
        if q == 2:
            # Words as n-bit integers: addition is XOR, the support is the word.
            packed = [sum(1 << j for j, x in enumerate(r) if x) for r in rows]
            doubling = mult == [1 << j for j in range(n)]
            plain = all(m == 1 for m in mult)

            def leaf(word: int) -> None:
                supports.add(word)
                if doubling:
                    w = word
                elif plain:
                    w = word.bit_count()
                else:
                    w = sum(mult[j] for j in range(n) if word >> j & 1)
                weights[w] = weights.get(w, 0) + 1

            def walk(i: int, word: int) -> None:
                if i == k:
                    leaf(word)
                    return
                walk(i + 1, word)
                walk(i + 1, word ^ packed[i])

            for lead in range(k):
                walk(lead + 1, packed[lead])
        else:
            scaled = [[[fld.mul(c, g) for g in row] for c in range(q)] for row in rows]
            add = fld.add

            def leaf(word: list[int]) -> None:
                sup = 0
                w = 0
                for j, x in enumerate(word):
                    if x:
                        sup |= 1 << j
                        w += mult[j]
                supports.add(sup)
                weights[w] = weights.get(w, 0) + 1

            def walk(i: int, word: list[int]) -> None:
                if i == k:
                    leaf(word)
                    return
                for c in range(q):
                    walk(i + 1, word if c == 0 else [add(a, b) for a, b in zip(word, scaled[i][c])])

            for lead in range(k):
                walk(lead + 1, list(rows[lead]))
        self.q, self.k, self.n = q, k, n
        self.mult = mult
        self.reps = (q**k - 1) // (q - 1)
        self.counts = {w: c * (q - 1) for w, c in sorted(weights.items())}
        self.is_mws = len(weights) == self.reps
        self.is_qm = len(supports) == self.reps
        self.has_zero_column = any(all(r[j] == 0 for r in rows) for j in range(n))

    def report(self) -> dict:
        """What spectrum_report must return for this code."""
        return {
            "q": self.q, "k": self.k, "n": self.n, "N": sum(self.mult),
            "field": field(self.q).describe(),
            "d": min(self.counts), "D": max(self.counts), "L": len(self.counts),
            "counts": {str(w): a for w, a in self.counts.items()},
            "is_mws": self.is_mws, "is_qm": self.is_qm,
            "has_zero_column": self.has_zero_column,
        }


def simplex_rows(q: int, k: int) -> list[list[int]]:
    """Columns are the projective points (first nonzero coordinate 1) in
    lexicographic order."""
    points = []
    for lead in reversed(range(k)):
        for tail in range(q ** (k - lead - 1)):
            digits = [(tail // q**i) % q for i in range(k - lead - 1)][::-1]
            points.append([0] * lead + [1] + digits)
    return [[pt[i] for pt in points] for i in range(k)]


def parse_matrix(text: str) -> tuple[int, list[list[int]], list[int]]:
    """(q, rows, multiplicities) of a matrix-file text."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    q, k, n = map(int, lines[0])
    body = [[int(x) for x in ln] for ln in lines[1:]]
    mult = body.pop(0) if len(body) == k + 1 else [1] * n
    if len(body) != k or any(len(r) != n for r in body) or len(mult) != n:
        raise ValueError("malformed matrix text")
    return q, body, mult


def mws_exists(q: int, k: int, n: int) -> bool | None:
    """Whether an [n,k]_q MWS code exists, where the theory settles it:
    never below ceil((q/2)(q^k-1)/(q-1)); for k = 2 exactly from q(q+1)/2;
    for q = 2 exactly from 2^k - 1.  None when undecided."""
    if n < -(-q * (q**k - 1) // (2 * (q - 1))):
        return False
    if k == 2:
        return n >= q * (q + 1) // 2
    if q == 2:
        return n >= 2**k - 1
    return None


def qm_exists(q: int, k: int, n: int) -> bool | None:
    """For k = 2 and n < q at most n of the q + 1 projective points are
    columns, so two messages vanish on no nonzero column and share a support."""
    if k == 2 and n < q:
        return False
    return None


def _binom_sq_sum(n: int, q: int) -> int:
    """sum_w C(n,w)^2 (q-1)^{2w}, with C(n,w) built up term by term."""
    s, c, x = 0, 1, (q - 1) ** 2
    for w in range(n + 1):
        s += c * c * x**w
        c = c * (n - w) // (w + 1)
    return s


def eqbound_fraction(q: int, k: int, n: int) -> Fraction:
    """q^{2k-2n} sum_w C(n,w)^2 (q-1)^{2w}, exactly."""
    return Fraction(q ** (2 * k) * _binom_sq_sum(n, q), q ** (2 * n))


def eqbound_holds(q: int, k: int, n: int) -> bool:
    """eqbound_fraction(q, k, n) < 2(q-1)^2, in exact integers."""
    return q ** (2 * k) * _binom_sq_sum(n, q) < 2 * (q - 1) ** 2 * q ** (2 * n)


def gv_length(q: int, k: int) -> int:
    """ceil(k / (1 - h_q((q-2)/(q-1)))), with lambda_2 = 1."""
    if q == 2:
        return k
    x = (q - 2) / (q - 1)
    h = (-x * math.log(x) - (1 - x) * math.log(1 - x) + x * math.log(q - 1)) / math.log(q)
    return math.ceil(k / (1 - h))
