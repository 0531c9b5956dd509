"""Linear codes over GF(q) with per-column multiplicities.

A LinearCode stores a k x n generator matrix plus a multiplicity profile
(m_0, ..., m_{n-1}).  Column i of the base code stands for m_i identical
columns of an effective code of length N = sum(m_i), which is never
materialized: a word's weight is the sum of m_i over its support, exact
for any N (e.g. m_i = 2^i) from int64 limbs of the m_i (_weights).

Weight spectra, the maximum-weight-spectrum (MWS) and quasi-minimal (QM)
predicates, and the quadratic weight-collision criterion all live here.

Two passes count a code's words by weight and, when asked, tell whether
their supports are pairwise distinct.  Scalar multiples share weight and
support, so both work on the (q^k - 1)/(q - 1) projective words, one per
point of PG(k - 1, q), in lexicographic message order (first nonzero
coordinate 1).  One dispatcher, _pass, picks a pass from the input's shape
alone (_by_points); both give the same histograms and verdicts.

The point pass (_point_pass) builds no words.  It buckets the columns by
the point each spans (_point_ids: a q^k table for a stack of many codes,
else each column scaled to representative form on the log/exp tables),
and the word with normal h has weight n - z - (the columns on the
hyperplane h^perp), z the zero columns.  For k = 2 a hyperplane is one
point; for k >= 3 the points on each hyperplane come from the zero pattern
of the simplex code's words (_incidence).  QM is read off the same counts
for k <= 3.  It serves plain codes over q > 2: every k = 2 code, and
stacks of k >= 3 codes long enough for its gathers and geometry to cost
less than their words, except k = 3 over GF(3).

The block pass (_tally) serves everything else: binary codes, codes with
multiplicities, short k >= 3 codes, k = 3 over GF(3) and QM for k >= 4.  With rows
g_0..g_{k-1}, the words whose message starts at coordinate i are
g_i + span(g_{i+1..k-1}), and each span is the next one plus c g_j for every
c in GF(q): words are built by adding rows, never by multiplying messages.
Every word is planes side by side on its last axis (_lift).  Over
characteristic p <= 3 they are uint64 bit planes, 64 columns to a limb, one
per base-p digit and nonzero digit value: XOR adds them for p = 2, six logic
operations on the "digit = 1" and "digit = 2" planes for p = 3, where
swapping the two negates (_add).  Over p >= 5 they are the m base-p digit
planes, the elements themselves for prime q, added mod p.  The pass reads a
word only through its support as a bit set (_key): the OR of its bit planes,
or the packed columns where some digit is nonzero.  Its popcount is the
weight; the QM check sorts it folded to one uint64 and settles ties on the
full keys (_distinct_rows).  Words come in blocks of at most BLOCK_ROWS rows
(codeword_matrix): a larger code reuses the span of its last rows for every
prefix of the leading ones.  A block holds rows x (p - 1) m ceil(n / 64)
limbs for p <= 3, else rows x m n digits of one byte while two of them sum
below 256, and the support keys made from them.

Both passes take a stack of B generators, shape (k, B, n): a single code is
a stack of one (_enumerate), and searches stack their candidates B at a
time (_histograms).  A plain code's weights are an offset bincount with
n + 1 bins per code; only a code with multiplicities, whose weights can
exceed n, keeps each word's exact weight (_weights) instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .gf import GF

# Full enumeration of q^k messages is guarded at desk scale; override with
# the MWSCODES_MAX_ENUM environment variable.
DEFAULT_ENUM_GUARD = 2**28

# Rows per enumeration block (for q <= BLOCK_ROWS).  A code with at most
# 2^16 projective words is one block: every code with q^k <= 2^16, which
# covers the benchmark's verify workload.
BLOCK_ROWS = 2**16


class EnumerationTooLargeError(RuntimeError):
    """Raised when q^k exceeds the enumeration guard."""


class RankDeficientError(ValueError):
    """Raised when a generator matrix has rank below its number of rows."""


def gf_rank(fld: GF, rows) -> int:
    """Rank of a matrix over GF(q): the steps of a Gaussian elimination.
    Over GF(2) the rows are int bit sets, and a step XORs the largest row
    into each row holding its top bit: x becomes min(x, x ^ pivot).  Else
    the matrix is held transposed on numpy rows, nonzero entries in column
    order; a step takes the first, v in column c and row r, as the pivot,
    subtracts (f / v) row r from each other row with f != 0 in column c and
    clears row r, on the log/exp tables, by XOR or mod p on digits."""
    if fld.q == 2:
        packed = np.packbits(np.array(rows, dtype=bool, ndmin=2), axis=1)
        bits, rank = [x for row in packed if (x := int.from_bytes(row.tobytes(), "big"))], 0
        while bits:
            pivot, rank = max(bits), rank + 1
            bits = [y for x in bits if (y := min(x, x ^ pivot))]
        return rank
    k = len(rows)
    mat = np.array(rows, dtype=np.int64, ndmin=2, order="F").T
    rank = 0
    while len(entries := np.flatnonzero(mat)):
        rank += 1
        if rank == k:
            break
        col, row = divmod(int(entries[0]), k)
        factors, pivots, mat = mat[col], mat[col + 1:, row, None], mat[col + 1:]
        v, factors[row] = int(factors[row]), 0
        others = np.flatnonzero(factors)  # the rows to clear in column c
        if len(others):
            # log(f / v) in [0, q - 2] plus a head log stays inside the doubled exp
            head = fld.log[pivots]  # -1 marks a zero
            terms = fld.exp[(fld.log[factors[others]] - fld.log[v]) % (fld.q - 1) + head]
            terms *= head >= 0
            if fld.p == 2:
                mat[:, others] ^= terms
            else:
                mat[:, others] = (fld.digits(mat[:, others]) - fld.digits(terms)) % fld.p @ fld.x_powers
        mat[:, row] = 0
    return rank


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A [n, k]_q generator matrix with a column multiplicity profile.

    Construction rejects rank-deficient generators (RankDeficientError): every
    statement about these codes assumes dimension exactly k, so silently
    reducing k would poison downstream results.
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
        if min(map(min, self.generator)) < 0 or max(map(max, self.generator)) >= self.field.q:
            raise ValueError("generator entry outside [0, q)")
        if not self.multiplicities:
            object.__setattr__(self, "multiplicities", (1,) * n)
        if len(self.multiplicities) != n:
            raise ValueError("multiplicity profile length differs from n")
        if any(m < 1 for m in self.multiplicities):
            raise ValueError("multiplicities must be >= 1")
        if gf_rank(self.field, self.generator) != k:
            raise RankDeficientError(f"generator does not have full rank {k}")

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
        return self.effective_length == self.n  # every m_i >= 1

    def has_zero_column(self) -> bool:
        return not all(map(any, zip(*self.generator)))

    def __repr__(self) -> str:
        return (
            f"LinearCode(q={self.q}, k={self.k}, n={self.n}, "
            f"N={self.effective_length})"
        )


def projective_representative_count(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def projective_representatives(fld: GF, k: int) -> list[tuple[int, ...]]:
    """One message per 1-dimensional subspace of GF(q)^k.

    Canonical form: first nonzero coordinate equals 1.  Messages come out in
    lexicographic order, the order of the enumeration blocks: those with i
    leading zeros are (0^i, 1, base-q digits of r) for r < q^(k-i-1).
    """
    q = fld.q
    parts = [np.zeros((0, k), dtype=np.int64)]
    for lead in reversed(range(k)):
        free = k - lead - 1
        msgs = np.zeros((q**free, k), dtype=np.int64)
        msgs[:, lead] = 1
        msgs[:, lead + 1:] = np.arange(q**free)[:, None] // q ** np.arange(free)[::-1] % q
        parts.append(msgs)
    return list(map(tuple, np.concatenate(parts).tolist()))


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


# -- block enumeration --------------------------------------------------------

def _bit_sets(mask: np.ndarray) -> np.ndarray:
    """The rows of a mask along its last axis as uint64 bit sets, 64 columns
    to a limb: column j is bit j % 8 of byte j // 8 (np.packbits' little
    bit order), and the limbs are zero past the last column."""
    *lead, n = mask.shape
    bits = np.zeros((*lead, -(-n // 64) * 64), dtype=bool)
    bits[..., :n] = mask
    # packed flat, so that numpy takes no per-row step
    return np.packbits(bits, bitorder="little").view(np.uint64).reshape(*lead, -1)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Bit sets (_bit_sets) back to their n columns of 0s and 1s, as uint8."""
    bits = np.unpackbits(np.ascontiguousarray(words).view(np.uint8), bitorder="little")
    return bits.reshape(*words.shape[:-1], -1)[..., :n]


def _planes(fld: GF, words: np.ndarray) -> np.ndarray:
    """The planes of words (_lift) on a new axis before the last."""
    count = (fld.p - 1) * fld.m if fld.p <= 3 else fld.m
    return words.reshape(*words.shape[:-1], count, -1)


def _key(fld: GF, words: np.ndarray) -> np.ndarray:
    """Each word's support as a bit set: the OR of its bit planes for p <= 3,
    else _bit_sets of the columns where some digit plane is nonzero."""
    if fld.q == 2:
        return words
    if fld.p <= 3:  # plane by plane: bitwise_or.reduce takes twice as long on these layouts
        planes = _planes(fld, words)
        key = planes[..., 0, :]
        for r in range(1, planes.shape[-2]):
            key = key | planes[..., r, :]
        return key
    return _bit_sets(words != 0 if fld.m == 1 else _planes(fld, words).any(axis=-2))


def _elements(fld: GF, words: np.ndarray, n: int) -> np.ndarray:
    """Words (_lift) back to their n columns of field elements: each plane
    times the value it stands for, c x^r for bit plane (c - 1) m + r and
    x^r for digit plane r."""
    if fld.p <= 3:
        values = (np.arange(1, fld.p)[:, None] * fld.x_powers).ravel()
        planes = _unpack(_planes(fld, words), n)
    else:
        values, planes = fld.x_powers, _planes(fld, words)
    return (values @ planes).astype(np.min_scalar_type(fld.q - 1))


def _lift(fld: GF, elements) -> np.ndarray:
    """Elements in the form words are added in, planes side by side on the
    last axis.  For p <= 3, (p - 1) m uint64 bit planes, plane (c - 1) m + r
    the columns whose base-p digit r is c; else m planes of base-p digits,
    the elements themselves for m = 1, in the smallest dtype that holds the
    sum of two digits: uint8 for p < 128.

    _lift owns the word layout; every word built from its output keeps it
    (_words).  Bit planes are held limb-outermost, each plane limb contiguous
    along the words; digit planes row-major, the order _key packs them in."""
    values = np.asarray(elements)  # digits (m, ...) in uint16, which divides faster
    powers = fld.x_powers.astype(np.uint16).reshape(-1, *[1] * values.ndim)
    planes = values.astype(np.uint16) // powers % fld.p if fld.m > 1 else values[None]
    if fld.p > 3:  # (m, ..., n), the plane axis moved to just before the last
        planes = planes.astype(np.min_scalar_type(2 * fld.p - 2))
        return planes.transpose(*range(1, values.ndim), 0, -1).reshape(*values.shape[:-1], -1)
    planes = _bit_sets(planes == np.arange(1, fld.p).reshape(-1, *[1] * powers.ndim))
    # (p - 1, m, ..., limbs), copied with the plane and limb axes outermost, then moved last
    planes = np.ascontiguousarray(planes.transpose(0, 1, -1, *range(2, values.ndim + 1)))
    return planes.reshape(-1, *values.shape[:-1]).transpose(*range(1, values.ndim), 0)


def _add(fld: GF, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a + b, into out if given: XOR for p = 2; for p = 3 six logic operations
    on the halves of the planes, "digit = 1" and "digit = 2" (Kawahara, Aoki &
    Takagi, 2008); else the smaller of s = a + b < 2p and s - p, which wraps."""
    if fld.p == 2:
        return np.bitwise_xor(a, b, out=out)
    if fld.p == 3:
        h, either = a.shape[-1] // 2, a | b  # either = (a1 | b1, a2 | b2)
        out = np.empty_like(either) if out is None else out
        t = (a[..., :h] | b[..., h:]) ^ (a[..., h:] | b[..., :h])
        np.bitwise_xor(either[..., h:], t, out=out[..., :h])
        np.bitwise_xor(either[..., :h], t, out=out[..., h:])
        return out
    s = np.add(a, b, out=out)
    return np.minimum(s, s - fld.p, out=s)


def _words(fld: GF, rows: np.ndarray, with_span: bool = False):
    """(projective words, span) of the code the rows generate, both in
    lexicographic message order; the span is complete only with with_span.
    rows is (k, n), or a stack (k, B, n) whose words come out (words, B, ...);
    each word is its planes (_lift).

    span(rows from i) is c row_i + span(rows after i) for each c in GF(q) in
    turn, and its c = 1 part, row_i + span(rows after i), holds the words whose
    message starts at row i; so one pass from the last row up builds both.
    Over GF(p), adding c row_i for every c is m steps that add c' x^r row_i
    for every c' in GF(p), r = 0..m-1: the field multiplies only to form the
    x^r row_i, and not at all for prime q.  The span is one array, grown in
    place and held column-major, so that each operation runs along the words.
    The word layout is _lift's: numpy's logic operations, np.stack and
    np.concatenate give their outputs their inputs' layout, so bit-plane
    multiples and parts stay limb-outermost like the basis.
    """
    x_powers = fld.x_powers.reshape(-1, *[1] * (rows.ndim - 1))
    basis = rows[:, None] if fld.m == 1 else fld.mul_array(rows[:, None], x_powers)
    basis = _lift(fld, basis)  # basis[i, r] = x^r row_i; multiples[i, r, c - 1] = c x^r row_i
    if fld.p == 2:
        multiples = basis[:, :, None]
    elif fld.p == 3:  # -x^r row_i is x^r row_i with its halves of planes swapped
        multiples = np.stack([basis, np.roll(basis, basis.shape[-1] // 2, axis=-1)], axis=2)
    else:
        multiples = np.multiply.outer(np.arange(1, fld.p), basis) % fld.p
        multiples = np.moveaxis(multiples, 0, 2).astype(basis.dtype)
    shape = (basis.shape[-1], fld.q ** (len(rows) - (not with_span)), *basis.shape[2:-1])
    span = np.zeros(shape, basis.dtype).transpose(*range(1, len(shape)), 0)
    size, parts = 1, []
    for i in reversed(range(len(rows))):
        if i or with_span:
            for b in multiples[i]:  # parts 1..p-1 of span[:p size] are part 0 plus c b
                head, rest = span[:size], span[size:fld.p * size]
                _add(fld, head, b[:, None], out=rest.reshape(fld.p - 1, *head.shape))
                size *= fld.p
            parts.append(span[size // fld.q:2 * size // fld.q])
        else:
            parts.append(_add(fld, multiples[0, 0, 0], span))
    return np.concatenate(parts), span


def _tail_rows(q: int, k: int) -> int:
    """The number t of last generator rows whose span each block reuses: k when
    the whole code fits one block, else the largest t with q^t <= BLOCK_ROWS
    (at least 1)."""
    if projective_representative_count(q, k) <= BLOCK_ROWS:
        return k
    t = 1
    while q ** (t + 1) <= BLOCK_ROWS:
        t += 1
    return t


def _block_count(q: int, k: int) -> int:
    return 1 + projective_representative_count(q, k - _tail_rows(q, k))


def _stack_layout(fld: GF, rows: np.ndarray):
    """(tail, span, prefixes) of the code, or stack of codes, in rows.  Block
    0 is tail, the projective words of the last t rows; block b >= 1 is
    prefix b - 1 plus every word of span, the span of those rows, where the
    prefixes are the projective words of the first k - t rows.  In this order
    the blocks list the messages lexicographically."""
    top = len(rows) - _tail_rows(fld.q, len(rows))
    tail, span = _words(fld, rows[top:], with_span=top > 0)
    prefixes = _words(fld, rows[:top])[0] if top else tail[:0]
    return tail, span, prefixes


@lru_cache(maxsize=1)
def _layout(fld: GF, generator: tuple):
    """The last generator's _stack_layout, for its blocks and every profile."""
    layout = _stack_layout(fld, np.array(generator, dtype=np.int64))
    layout[0].flags.writeable = False  # block 0 itself, handed to every caller
    return layout


def codeword_matrix(code: LinearCode, block: int = 0, packed: bool = False) -> np.ndarray:
    """Enumeration block `block` of the code's projective words: one row per
    word, in lexicographic message order, with n columns of field elements.
    Blocks 0, 1, ... together list projective_representatives' messages.
    With packed, the words stay the planes the block pass reads (_lift): a
    row of (p - 1) m ceil(n / 64) uint64 limbs for p <= 3, else m n digits."""
    tail, span, prefixes = _layout(code.field, code.generator)
    words = tail if block == 0 else _add(code.field, prefixes[block - 1], span)
    return words if packed else _elements(code.field, words, code.n)


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


def _check_guard(q: int, k: int):
    limit = int(os.environ.get("MWSCODES_MAX_ENUM", DEFAULT_ENUM_GUARD))
    # q^k >= 2^k > limit once k reaches limit's bit length: a huge k is
    # refused without computing q^k
    if (q >= 2 and k >= limit.bit_length()) or q**k > limit:
        raise EnumerationTooLargeError(f"q^k = {q}**{k} exceeds enumeration guard {limit}")


def _weights(multiplicities, mask: np.ndarray) -> np.ndarray:
    """Exact weight of each word, the sum of m_i over its support, from its
    nonzero mask: one int64 product over w-bit limbs of the m_i, with
    w = 63 - bit_length(n) so that n limbs sum below 2^63, joined in int64
    when N < 2^63 and into Python integers otherwise."""
    w = 63 - len(multiplicities).bit_length()
    shifts = range(0, int(max(multiplicities)).bit_length(), w)
    sums = mask @ np.array([[m >> s & (1 << w) - 1 for m in multiplicities] for s in shifts]).T
    wide = sum(multiplicities) >= 2**63
    return sums.astype(object if wide else np.int64) @ [1 << s for s in shifts]


def _fingerprints(keys: np.ndarray) -> np.ndarray:
    """Keys (words, candidates, limbs) folded to one uint64, f M + limb, M odd."""
    return reduce(lambda f, limb: f * np.uint64(0x9E3779B97F4A7C15) + limb, keys.transpose(2, 0, 1))


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """The number of distinct key rows of each candidate, for keys of shape
    (words, candidates, limbs): its distinct fingerprints, by one sort along
    the words, plus, past one limb, each later key of a run of tied
    fingerprints, counted by one np.unique over the runs that hold two keys."""
    prints = _fingerprints(keys)
    ranked = np.sort(prints, axis=0)
    distinct = len(keys) - np.count_nonzero(ranked[1:] == ranked[:-1], axis=0)
    if keys.shape[2] > 1 and len(tied := np.flatnonzero(distinct < len(keys))):
        order = np.argsort(prints[:, tied], axis=0)
        prints, keys = prints[order, tied], keys[order, tied]
        split = (prints[1:] == prints[:-1]) & (keys[1:] != keys[:-1]).any(axis=2)
        if split.any():
            chosen = np.nonzero(np.isin(prints, prints[1:][split]))
            rows = np.column_stack([tied[chosen[1]].astype(np.uint64), prints[chosen], keys[chosen]])
            rows = np.unique(rows, axis=0)  # sorted by candidate, fingerprint, key
            np.add.at(distinct, rows[1:, 0][(rows[1:, :2] == rows[:-1, :2]).all(axis=1)], 1)
    return distinct


def _tally(fld: GF, shape, blocks, supports: bool, multiplicities=None):
    """The block pass over a stack of codes of shape (k, B, n), each block
    (words, B, planes) words (_lift): (weights, qm), as _pass returns them.
    For one code with multiplicities, whose weights can exceed n and 2^63,
    weights is instead a list of each block's exact word weights (_weights).
    A word is read only through its support bit set (_key): its popcount is
    the weight, and _distinct_rows compares the keys by one uint64
    fingerprint each, settling fingerprint ties on the full keys."""
    k, count, n = shape
    if multiplicities:
        weights = []
    else:
        weights = np.zeros((count, n + 1), dtype=np.int64)
        offsets = (n + 1) * np.arange(count)
    keys = []
    for words in blocks:
        key = _key(fld, words)
        if multiplicities:
            weights.append(_weights(multiplicities, _unpack(key[:, 0], n)))
        else:
            sizes = np.bitwise_count(key).sum(axis=2, dtype=np.intp)
            sizes += offsets
            flat = np.bincount(sizes.ravel(), minlength=weights.size)
            weights += flat.reshape(count, n + 1)
        if supports:
            keys.append(key)
    if not supports:
        return weights, None
    distinct = _distinct_rows(np.concatenate(keys))
    return weights, distinct == projective_representative_count(fld.q, k)


# -- point pass ---------------------------------------------------------------

def _base_q(fld: GF, columns: np.ndarray) -> np.ndarray:
    """The base-q value of each column of columns (k, ...), row 0 most
    significant."""
    values = columns[0]
    for row in columns[1:]:
        values = values * fld.q + row
    return values


def _normalised_ids(fld: GF, columns: np.ndarray) -> np.ndarray:
    """The point id of each column of columns (k, ...): the
    projective_representatives index of the point it spans, P for a zero
    column.  Each column is scaled by the inverse of its leading nonzero
    entry, on the log/exp tables, which puts it in representative form:
    with f entries after the leading 1, its base-q value v lies in
    [q^f, 2 q^f) and its id is (q^f - 1)/(q - 1) + v - q^f."""
    k, q = len(columns), fld.q
    logs = fld.log[columns]  # -1 marks a zero entry
    lead = logs[-1]
    for row in logs[-2::-1]:
        lead = np.where(row >= 0, row, lead)  # the leading entry's log
    # log x - log lead + q - 1 lies in [0, 2q - 3], inside the doubled exp
    values = _base_q(fld, np.where(logs >= 0, fld.exp[logs + (q - 1 - lead)], 0))
    powers = [q**f for f in range(k)]
    # v = 0, a zero column, finds f = -1 and the last offset, P
    offsets = np.array([(p - 1) // (q - 1) - p for p in powers]
                       + [projective_representative_count(q, k)])
    return values + offsets[np.searchsorted(powers, values, side="right") - 1]


@lru_cache(maxsize=4)
def _point_table(fld: GF, k: int) -> np.ndarray:
    """The point id of every vector of GF(q)^k, indexed by its base-q
    value."""
    q = fld.q
    return _normalised_ids(fld, np.arange(q**k) // q ** np.arange(k - 1, -1, -1)[:, None] % q)


def _point_ids(fld: GF, stack: np.ndarray) -> np.ndarray:
    """The point id of each column of the codes stacked in stack (k, B, n),
    shape (B, n), as _normalised_ids gives them: read off the q^k table
    when a stack of several codes has at least as many columns as the
    table has entries, which a search reuses for every batch, else
    normalised column by column."""
    k, count, n = stack.shape
    if count == 1 or fld.q**k > count * n:
        return _normalised_ids(fld, stack)
    return _point_table(fld, k)[_base_q(fld, stack)]


@lru_cache(maxsize=4)
def _incidence(fld: GF, k: int) -> np.ndarray:
    """The points on each hyperplane of PG(k - 1, q), shape (P, |H|) with
    |H| = (q^(k-1) - 1)/(q - 1): row h lists the points p with <h, p> = 0,
    the zero pattern of the simplex code's word h.  The pattern is
    symmetric in h and p, so row w also lists the hyperplanes through
    point w."""
    reps = np.array(projective_representatives(fld, k)).T
    zero = _unpack(_key(fld, _words(fld, reps)[0]), len(reps[0])) == 0
    return np.nonzero(zero)[1].reshape(len(zero), -1)


def _by_points(q: int, k: int, count: int, n: int, supports: bool) -> bool:
    """Whether _pass takes the point pass for a stack of count plain
    [n, k]_q codes, by the measured costs in CHANGES.md.  Never for q = 2,
    or for k = 3 over GF(3), whose bit-plane block passes are faster.
    Always for k = 2, which needs no geometry.
    For k >= 3 the pass gathers P |H| counts per code, |H| the
    (q^(k-1) - 1)/(q - 1) points on a hyperplane, where enumeration builds
    P n word entries, but first builds the P^2 incidence and a point
    table, which a single code never repays.  So it takes stacks with
    2 |H| <= n, 32 P <= B n and B P n >= 2^15, and supports only for k = 3,
    where each codim-2 W is one point."""
    if q == 2 or k < 2 or (supports and k > 3) or (q, k) == (3, 3):
        return False
    points = projective_representative_count(q, k)
    return k == 2 or (count > 1 and 2 * projective_representative_count(q, k - 1) <= n
                      and 32 * points <= count * n and count * points * n >= 2**15)


def _point_pass(fld: GF, stack: np.ndarray, supports: bool):
    """The point pass over the plain codes stacked in stack (k, B, n):
    (weights, qm), as _pass returns them.

    Proportional columns give proportional entries in every word, and zero
    columns zero entries, so with c_p the number of columns proportional to
    point p and z the zero columns, the word with normal h has weight
    n - z - sum of c_p over the points on the hyperplane h^perp (Dodunekov
    & Simonis, Codes and projective multisets, 1998).  For k = 2 each
    hyperplane is one point, so the weights are n - z - c_p.

    Two words share a support iff S meets both hyperplanes only inside
    their intersection W, where S is the set of points with c_p > 0: QM
    fails iff some codim-2 W lies in two hyperplanes H with
    sigma(H) = |S & H| equal to |S & W|.  For k = 2, W is empty and this
    says that two points are missing from S.  For k = 3, W is a point w
    and any two lines meet in one point, so it says that two lines miss S,
    or that two lines meet S in the same single point.  One gather of
    seen_p (M + p) over each line, M above any sum of ids on a line, gives
    sigma(H) M plus the sum of the ids in S & H, which is the id of that
    single point when sigma(H) = 1.
    """
    k, count, n = stack.shape
    points = projective_representative_count(fld.q, k)
    ids = _point_ids(fld, stack) + (points + 1) * np.arange(count)[:, None]
    counts = np.bincount(ids.ravel(), minlength=count * (points + 1)).reshape(count, -1)
    counts, zero = counts[:, :points], counts[:, points:]
    if k == 2:
        inside = counts
    else:
        lines = _incidence(fld, k)
        inside = counts[:, lines].sum(axis=2)
    weights = n - zero - inside + (n + 1) * np.arange(count)[:, None]
    weights = np.bincount(weights.ravel(), minlength=count * (n + 1)).reshape(count, n + 1)
    if not supports:
        return weights, None
    seen = counts > 0
    if k == 2:
        return weights, (~seen).sum(axis=1) <= 1
    scale = points * lines.shape[1]
    sigma, single = np.divmod((seen * (scale + np.arange(points)))[:, lines].sum(axis=2), scale)
    code, line = np.nonzero(sigma == 1)  # lines meeting S in one point
    tangents = np.bincount(code * points + single[code, line], minlength=count * points)
    clash = ((sigma == 0).sum(axis=1) >= 2) | (tangents.reshape(count, points) >= 2).any(axis=1)
    return weights, ~clash


def _pass(fld: GF, stack: np.ndarray, supports: bool, blocks, multiplicities=None):
    """The one weight pass over the codes stacked in stack (k, B, n), a
    stack of one for a single code: (weights, qm).  blocks lazily yields
    the stack's enumeration blocks as _lift words, so none is built
    before the guard passes or when the point pass runs; plain codes of
    the shapes _by_points picks take the point pass instead.

    weights counts each code's words by weight, shape (B, n + 1).  Bin 0 is
    empty exactly for a full-rank code; such a code is MWS when no bin
    exceeds 1, and its minimum distance is its first nonzero bin.  qm tells
    for each code whether its projective words have pairwise distinct
    supports, or is None without supports."""
    k, count, n = stack.shape
    _check_guard(fld.q, k)
    if multiplicities is None and _by_points(fld.q, k, count, n, supports):
        return _point_pass(fld, stack, supports)
    return _tally(fld, stack.shape, blocks, supports, multiplicities)


def _enumerate(code: LinearCode, supports: bool):
    """The code's _pass, as a stack of one whose blocks come from
    codeword_matrix, plane words packed: (its weights, whether its supports
    are pairwise distinct, or None without supports)."""
    blocks = (codeword_matrix(code, block, packed=True)[:, None]
              for block in range(_block_count(code.q, code.k)))
    stack = np.array(code.generator, dtype=np.int64)[:, None]
    weights, qm = _pass(code.field, stack, supports, blocks,
                        None if code.is_plain else code.multiplicities)
    return weights, None if qm is None else bool(qm[0])


def _spectrum(code: LinearCode, weights) -> WeightSpectrum:
    """The spectrum from _enumerate's weights, a histogram row for a plain
    code and otherwise each block's word weights, counted by np.unique (as
    fast as a Counter on Python integers); each count scales by q - 1."""
    q1 = code.q - 1
    if code.is_plain:
        pairs = enumerate(weights[0].tolist())
    else:
        pairs = zip(*(a.tolist() for a in np.unique(np.concatenate(weights), return_counts=True)))
    return WeightSpectrum({w: c * q1 for w, c in pairs if c})


def _histograms(fld: GF, stack: np.ndarray, supports: bool):
    """The _pass over the plain codes stacked in stack (k, B, n)."""
    def blocks():
        tail, span, prefixes = _stack_layout(fld, stack)
        yield tail
        for prefix in prefixes:
            yield _add(fld, prefix, span)

    return _pass(fld, stack, supports, blocks())


def weight_spectrum(code: LinearCode) -> WeightSpectrum:
    """Exact spectrum over all q^k - 1 nonzero codewords.

    Scalar multiples of a word share weight and support, so only one
    representative per 1-dimensional subspace is counted and each count
    scales by q - 1.  A plain code's words are counted in an (n + 1)-bin
    histogram, and a code with multiplicities by distinct weight (_pass).
    """
    return _spectrum(code, _enumerate(code, supports=False)[0])


def is_mws(code: LinearCode) -> bool:
    """True iff linearly independent codewords always have distinct weights,
    i.e. L reaches its ceiling (q^k - 1)/(q - 1)."""
    spec = weight_spectrum(code)
    return spec.L == projective_representative_count(code.q, code.k)


def mws_criterion_sum(code: LinearCode) -> int:
    """The collision statistic sum_w A_w (A_w - (q-1)); 0 for an MWS code."""
    spec = weight_spectrum(code)
    q1 = code.q - 1
    return sum(a * (a - q1) for a in spec.counts.values())


def is_mws_lemma(code: LinearCode) -> bool:
    """MWS via the quadratic criterion: the collision sum < 2(q-1)^2."""
    return mws_criterion_sum(code) < 2 * (code.q - 1) ** 2


def is_qm(code: LinearCode) -> bool:
    """True iff linearly independent codewords always have distinct supports.

    Multiplicities do not matter since they never change a support.  The
    point pass reads the verdict off the column point counts for k <= 3,
    and the block pass compares the supports of all projective words (see
    _pass).  Over GF(2) distinct nonzero words have distinct supports, so
    every binary code is QM and nothing is counted.
    """
    return code.q == 2 or _enumerate(code, supports=True)[1]


def qm_sufficient_dn(code: LinearCode) -> bool:
    """Sufficient condition for QM: d/N > (q-2)/(q-1), compared exactly.

    False only means the shortcut gives no guarantee; the code may still
    be QM.
    """
    spec = weight_spectrum(code)
    q = code.q
    return spec.d * (q - 1) > (q - 2) * code.effective_length


def qm_sufficient_dD(code: LinearCode) -> bool:
    """Sharper sufficient condition for QM: d/D > (q-2)/(q-1), exact."""
    spec = weight_spectrum(code)
    q = code.q
    return spec.d * (q - 1) > (q - 2) * spec.D


def spectrum_report(code: LinearCode) -> dict:
    """JSON-ready summary: lengths, spectrum, and both predicates, from one
    pass (_pass) that counts the weights and, unless the code is binary and
    so always QM (see is_qm), decides QM."""
    weights, qm = _enumerate(code, supports=code.q > 2)
    spec = _spectrum(code, weights)
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
        "is_mws": spec.L == projective_representative_count(code.q, code.k),
        "is_qm": code.q == 2 or qm,
        "has_zero_column": code.has_zero_column(),
    }
