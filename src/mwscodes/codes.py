"""Linear codes over GF(q) with per-column multiplicities.

A LinearCode stores a k x n generator matrix plus a multiplicity profile
(m_0, ..., m_{n-1}).  Column i of the base code stands for m_i identical
columns of an effective code of length N = sum(m_i).  Codewords of the
effective code are never materialized: the weight of a word is computed as
the sum of m_i over its support, which stays linear in n even when N is
astronomically large (e.g. m_i = 2^i).

Weight spectra, the maximum-weight-spectrum (MWS) and quasi-minimal (QM)
predicates, and the quadratic weight-collision criterion all live here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gf import GF, build_field

# Full enumeration of q^k messages is guarded at desk scale; override with
# the MWSCODES_MAX_ENUM environment variable.
DEFAULT_ENUM_GUARD = 2**28


class EnumerationTooLargeError(RuntimeError):
    """Raised when q^k exceeds the enumeration guard."""


def enumeration_guard() -> int:
    return int(os.environ.get("MWSCODES_MAX_ENUM", DEFAULT_ENUM_GUARD))


def gf_rank(fld: GF, rows: list[list[int]]) -> int:
    """Rank of a matrix over GF(q) by Gaussian elimination."""
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
                mat[r] = [
                    fld.sub(x, fld.mul(factor, y)) for x, y in zip(mat[r], mat[rank])
                ]
        rank += 1
        col += 1
    return rank


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A [n, k]_q generator matrix with a column multiplicity profile.

    Construction rejects rank-deficient generators: every statement about
    these codes assumes dimension exactly k, so silently reducing k would
    poison downstream results.
    """

    field: GF
    generator: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        k = len(self.generator)
        if k == 0:
            raise ValueError("generator needs at least one row")
        n = len(self.generator[0])
        if any(len(row) != n for row in self.generator):
            raise ValueError("generator rows have unequal lengths")
        if n == 0:
            raise ValueError("generator needs at least one column")
        q = self.field.q
        for row in self.generator:
            if any(not (0 <= x < q) for x in row):
                raise ValueError("generator entry outside [0, q)")
        if not self.multiplicities:
            object.__setattr__(self, "multiplicities", (1,) * n)
        if len(self.multiplicities) != n:
            raise ValueError("multiplicity profile length differs from n")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be >= 1")
        if gf_rank(self.field, [list(r) for r in self.generator]) != k:
            raise ValueError(f"generator does not have full rank {k}")

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def k(self) -> int:
        return len(self.generator)

    @property
    def n(self) -> int:
        return len(self.generator[0])

    @property
    def effective_length(self) -> int:
        """N = sum of multiplicities; equals n for a plain code."""
        return sum(self.multiplicities)

    @property
    def is_plain(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def has_zero_column(self) -> bool:
        return any(all(row[j] == 0 for row in self.generator) for j in range(self.n))

    def __repr__(self) -> str:
        return (
            f"LinearCode(q={self.q}, k={self.k}, n={self.n}, "
            f"N={self.effective_length})"
        )


def projective_representative_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def projective_representatives(fld: GF, k: int):
    """Yield one message per 1-dimensional subspace of GF(q)^k.

    Canonical form: first nonzero coordinate equals 1.  Messages come out in
    lexicographic order, which keeps parallel partitioning by index stable.
    """
    q = fld.q

    def rec(prefix: tuple[int, ...]):
        pos = len(prefix)
        if pos == k:
            yield prefix
            return
        leading_zero = all(x == 0 for x in prefix)
        for x in range(q):
            if leading_zero and x not in (0, 1):
                continue  # first nonzero coordinate is pinned to 1
            yield from rec(prefix + (x,))

    for msg in rec(()):
        if any(msg):
            yield msg


@lru_cache(maxsize=128)
def _projective_matrix(q: int, k: int) -> np.ndarray:
    fld = build_field(q)
    reps = list(projective_representatives(fld, k))
    return np.array(reps, dtype=np.int64)


def codeword(code: LinearCode, message) -> tuple[int, ...]:
    """Encode one message: the GF(q)-linear combination of generator rows."""
    fld = code.field
    if len(message) != code.k:
        raise ValueError("message length differs from k")
    word = [0] * code.n
    for coeff, row in zip(message, code.generator):
        if coeff:
            word = [fld.add(w, fld.mul(coeff, g)) for w, g in zip(word, row)]
    return tuple(word)


def codeword_matrix(code: LinearCode, messages: np.ndarray) -> np.ndarray:
    """Encode a batch of messages (rows) at once.  Multiplying by a generator
    entry g is GF(p)-linear on base-p digits, so the code is one (k m) x (n m)
    matrix over GF(p) with the digits of g x^r as blocks; each output digit
    sums k m digit products, far inside int64."""
    fld = code.field
    p, m = fld.p, fld.m
    gen = np.array(code.generator, dtype=np.int64)
    k, n = gen.shape
    lin = fld.digits(fld.mul_array(gen[:, :, None], fld.x_powers))
    lin = lin.transpose(0, 2, 1, 3).reshape(k * m, n * m)
    words = fld.digits(messages).reshape(len(messages), k * m) @ lin % p
    return words.reshape(len(messages), n, m) @ fld.x_powers


def support(word) -> frozenset[int]:
    """Indices of the nonzero entries."""
    return frozenset(i for i, x in enumerate(word) if x)


def weighted_weight(word, multiplicities) -> int:
    """Sum of m_i over the support of the word (an arbitrary-precision int).

    With all m_i = 1 this is the Hamming weight; with m_i = 2^i it is the
    weight of the word's image under the doubling embedding.
    """
    if len(word) != len(multiplicities):
        raise ValueError("word and multiplicity profile have different lengths")
    return sum(m for x, m in zip(word, multiplicities) if x)


@dataclass(frozen=True)
class WeightSpectrum:
    """Exact weight distribution of the nonzero codewords.

    counts maps weight w to A_w; d and D are the minimum and maximum weights
    and L the number of distinct nonzero weights.
    """

    counts: dict[int, int]
    d: int = field(init=False)
    D: int = field(init=False)
    L: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "d", min(self.counts))
        object.__setattr__(self, "D", max(self.counts))
        object.__setattr__(self, "L", len(self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _check_guard(code: LinearCode, guard: int | None):
    limit = guard if guard is not None else enumeration_guard()
    if code.q**code.k > limit:
        raise EnumerationTooLargeError(
            f"q^k = {code.q}**{code.k} exceeds enumeration guard {limit}"
        )


def _projective_words(code: LinearCode) -> np.ndarray:
    messages = _projective_matrix(code.q, code.k)
    return codeword_matrix(code, messages)


def _projective_weights(code: LinearCode) -> list[int]:
    words = _projective_words(code)
    mask = words != 0
    mult = code.multiplicities
    if code.effective_length < 2**62:
        vec = np.array(mult, dtype=np.int64)
        return [int(w) for w in mask @ vec]
    return [sum(m for m, s in zip(mult, row) if s) for row in mask]


def weight_spectrum(code: LinearCode, guard: int | None = None) -> WeightSpectrum:
    """Exact spectrum over all q^k - 1 nonzero codewords.

    Scalar multiples of a word share weight and support, so only one
    representative per 1-dimensional subspace is enumerated and each count
    scales by q - 1.
    """
    _check_guard(code, guard)
    counts: dict[int, int] = {}
    for w in _projective_weights(code):
        counts[w] = counts.get(w, 0) + 1
    scale = code.q - 1
    return WeightSpectrum({w: c * scale for w, c in sorted(counts.items())})


def is_mws(code: LinearCode, guard: int | None = None) -> bool:
    """True iff linearly independent codewords always have distinct weights,
    i.e. L reaches its ceiling (q^k - 1)/(q - 1)."""
    spec = weight_spectrum(code, guard)
    return spec.L == projective_representative_count(code.q, code.k)


def mws_criterion_sum(code: LinearCode, guard: int | None = None) -> int:
    """The collision statistic sum_w A_w (A_w - (q-1)); 0 for an MWS code."""
    spec = weight_spectrum(code, guard)
    q1 = code.q - 1
    return sum(a * (a - q1) for a in spec.counts.values())


def is_mws_lemma(code: LinearCode, guard: int | None = None) -> bool:
    """MWS via the quadratic criterion: the collision sum < 2(q-1)^2."""
    return mws_criterion_sum(code, guard) < 2 * (code.q - 1) ** 2


def is_qm(code: LinearCode, guard: int | None = None) -> bool:
    """True iff linearly independent codewords always have distinct supports.

    Supports of all projective representatives are collected and counted;
    multiplicities do not matter since they never change a support.
    """
    _check_guard(code, guard)
    words = _projective_words(code)
    mask = np.ascontiguousarray(words != 0)
    packed = np.packbits(mask, axis=1)
    seen = {row.tobytes() for row in packed}
    return len(seen) == projective_representative_count(code.q, code.k)


def qm_sufficient_dn(code: LinearCode, guard: int | None = None) -> bool:
    """Sufficient condition for QM: d/N > (q-2)/(q-1), compared exactly.

    False only means the shortcut gives no guarantee; the code may still
    be QM.
    """
    spec = weight_spectrum(code, guard)
    q = code.q
    return spec.d * (q - 1) > (q - 2) * code.effective_length


def qm_sufficient_dD(code: LinearCode, guard: int | None = None) -> bool:
    """Sharper sufficient condition for QM: d/D > (q-2)/(q-1), exact."""
    spec = weight_spectrum(code, guard)
    q = code.q
    return spec.d * (q - 1) > (q - 2) * spec.D


def spectrum_report(code: LinearCode, guard: int | None = None) -> dict:
    """JSON-ready summary: lengths, spectrum, and both predicates."""
    spec = weight_spectrum(code, guard)
    return {
        "q": code.q,
        "k": code.k,
        "n": code.n,
        "N": code.effective_length,
        "field": code.field.describe(),
        "d": spec.d,
        "D": spec.D,
        "L": spec.L,
        "counts": {str(w): a for w, a in spec.counts.items()},
        "is_mws": is_mws(code, guard),
        "is_qm": is_qm(code, guard),
        "has_zero_column": code.has_zero_column(),
    }
