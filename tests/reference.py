"""Slow reference oracles for the enumeration core and the rank in
mwscodes.codes, for the threshold scan and its binomial sum in
mwscodes.bounds, and for the irreducibility test in mwscodes.gf.

Messages come from the recursive generator the library used before its
block enumerator, and words from per-message `codeword`; weights and
supports are then counted one word at a time.  The rank is the scalar
Gaussian elimination the library used before its numpy rows, one field
operation at a time.  The threshold scan is the
exact big-integer scan the library used before its interval scan, and the
binomial sum is its one-line definition.  Irreducibility is decided by
trial division, as the library did before Rabin's test.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from mwscodes import bounds, codeword, support, weighted_weight


def representatives(q: int, k: int):
    """Yield one message per 1-dimensional subspace of GF(q)^k, first nonzero
    coordinate 1, in lexicographic order."""

    def rec(prefix: tuple[int, ...]):
        if len(prefix) == k:
            yield prefix
            return
        leading_zero = not any(prefix)
        for x in range(q):
            if leading_zero and x not in (0, 1):
                continue  # first nonzero coordinate is pinned to 1
            yield from rec(prefix + (x,))

    for msg in rec(()):
        if any(msg):
            yield msg


def words(code) -> list[tuple[int, ...]]:
    return [codeword(code, m) for m in representatives(code.q, code.k)]


def generator_words(fld, generator) -> list[tuple[int, ...]]:
    """The projective words of any k x n generator, rank deficient or not:
    words() needs only these attributes, and a LinearCode would refuse a
    rank-deficient generator."""
    rows = tuple(map(tuple, generator))
    return words(SimpleNamespace(field=fld, q=fld.q, k=len(rows), n=len(rows[0]), generator=rows))


def histogram(fld, generator) -> list[int]:
    """The number of projective words of each weight 0..n."""
    counts = Counter(sum(map(bool, w)) for w in generator_words(fld, generator))
    return [counts[w] for w in range(len(generator[0]) + 1)]


def distinct_supports(fld, generator) -> int:
    return len({support(w) for w in generator_words(fld, generator)})


def spectrum(code) -> dict[int, int]:
    counts = Counter(weighted_weight(w, code.multiplicities) for w in words(code))
    return {w: c * (code.q - 1) for w, c in sorted(counts.items())}


def is_mws(code) -> bool:
    return len(spectrum(code)) == (code.q**code.k - 1) // (code.q - 1)


def is_qm(code) -> bool:
    ws = words(code)
    return len({support(w) for w in ws}) == len(ws)


def gf_rank(fld, rows) -> int:
    """Rank of a matrix over GF(q) by scalar Gaussian elimination."""
    mat = [list(r) for r in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    rank = 0
    col = 0
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = fld.inv(mat[rank][col])
        mat[rank] = [fld.mul(inv, x) for x in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [fld.sub(x, fld.mul(factor, y)) for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def binom_sq_sum(n: int, q: int) -> int:
    """bounds.binom_sq_sum by its definition, one fresh term per w."""
    return sum(math.comb(n, w) ** 2 * (q - 1) ** (2 * w) for w in range(n + 1))


def binom_sq_sums(q: int, n: int):
    """Yield bounds.binom_sq_sum(m, q) for m = n, n+1, ... exactly.

    With x = (q-1)^2 the sums obey the three-term recurrence
    (m+1) S_{m+1} = (2m+1)(1+x) S_m - m(1-x)^2 S_{m-1}, so each step costs a
    few big-integer products instead of a fresh sum.  The division by m+1 is
    exact; a nonzero remainder means the recurrence was broken and raises.
    """
    x = (q - 1) ** 2
    a, b = 1 + x, (1 - x) ** 2
    prev, cur = (bounds.binom_sq_sum(n - 1, q) if n else 0), bounds.binom_sq_sum(n, q)
    while True:
        yield cur
        nxt, rem = divmod((2 * n + 1) * a * cur - n * b * prev, n + 1)
        if rem:
            raise ArithmeticError(f"S_{n + 1} recurrence left remainder {rem} (q={q})")
        prev, cur = cur, nxt
        n += 1


def eqbound_scan(q: int, ks, max_n: int | None) -> dict[int, int | None]:
    """bounds._eqbound_scan with every step exact: S_n from binom_sq_sums,
    the right side 2 (q-1)^2 q^{2n} as a running product, and one integer
    comparison q^{2k} S_n < 2 (q-1)^2 q^{2n} per test.  Same pending-k walk:
    only the smallest pending k is tested, from max(k, 1) on, and once
    n >= max_n every reached k gets None."""
    pending = sorted(set(ks))
    starts = [max(k, 1) for k in pending]
    scales = [q ** (2 * k) for k in pending]
    found = {}
    n = starts[0]
    limit = 2 * (q - 1) ** 2 * q ** (2 * n)
    i, m = 0, len(pending)
    for s in binom_sq_sums(q, n):
        while i < m and starts[i] <= n and scales[i] * s < limit:
            found[pending[i]] = n
            i += 1
        if max_n is not None and n >= max_n:
            while i < m and starts[i] <= n:
                found[pending[i]] = None
                i += 1
        if i == m:
            return found
        n += 1
        limit *= q * q


def monic_polynomials(p: int, m: int) -> np.ndarray:
    """Every monic polynomial of degree m over GF(p), one row of m + 1
    coefficients each, constant term first; row i has its low coefficients
    as the base-p digits of i, the order gf._smallest_irreducible tries."""
    low = np.arange(p**m)[:, None] // p ** np.arange(m) % p
    return np.concatenate([low, np.ones((p**m, 1), dtype=np.int64)], axis=1)


@lru_cache(maxsize=None)
def irreducible_flags(p: int, m: int) -> tuple[bool, ...]:
    """Whether each of monic_polynomials(p, m) is irreducible, by trial
    division of all of them at once: a reducible one has a monic irreducible
    factor of degree at most m/2, so each irreducible divisor of those
    degrees (found the same way) divides every row not yet found reducible,
    one long division step per leading coefficient."""
    polys = monic_polynomials(p, m)
    flags = np.ones(len(polys), dtype=bool)
    for deg in range(1, m // 2 + 1):
        for divisor in monic_polynomials(p, deg)[list(irreducible_flags(p, deg))]:
            rows = np.flatnonzero(flags)
            rem = polys[rows]
            for top in range(m, deg - 1, -1):  # cancel x^top by x^(top - deg) divisor
                rem[:, top - deg:top + 1] -= rem[:, top:top + 1] * divisor
                rem[:, top - deg:top + 1] %= p
            flags[rows] = rem[:, :deg].any(axis=1)
    return tuple(flags.tolist())


def binary_word_blocks(generator, rows: int = 2**12):
    """The projective words of a k x n binary generator (any rank), in
    lexicographic message order, as 0/1 arrays of at most `rows` words: the
    nonzero messages 1 .. 2^k - 1, first coordinate most significant, times
    the generator mod 2, the message-matrix product that the block
    enumerator replaced (a float product is exact for sums below 2^53)."""
    gen = np.asarray(generator, dtype=np.float64)
    k = len(gen)
    for lo in range(1, 2**k, rows):
        msgs = np.arange(lo, min(lo + rows, 2**k))[:, None] >> np.arange(k - 1, -1, -1) & 1
        yield (msgs @ gen).astype(np.int64) % 2


def binary_histogram(generator) -> list[int]:
    """histogram() of a binary generator, from binary_word_blocks."""
    n = len(generator[0])
    counts = sum(np.bincount(words.sum(axis=1), minlength=n + 1)
                 for words in binary_word_blocks(generator))
    return counts.tolist()
