"""The block pass's plane words over GF(p^m) against the reference oracles.

A word over a field of characteristic p <= 3 is (p - 1) m uint64 bit planes
of n columns each: for p = 2 one plane per base-2 digit, for p = 3 a
"digit = 1" and a "digit = 2" plane per base-3 digit.  Over p >= 5 it is m
planes of base-p digits, whose support is packed into bit sets of the same
limbs.  Lengths 1, 63, 64, 65, 128 and 129 put the last column on both sides
of a limb edge, and small block sizes cut a code into many blocks, so that
every prefix reuses the span of the tail rows.  test_packed.py covers GF(2),
whose words are a single plane.
"""

import numpy as np
import pytest

import reference
from mwscodes import (
    LinearCode,
    build_field,
    generalized_repetition,
    is_qm,
    spectrum_report,
    weight_spectrum,
)
from mwscodes import codes

BIT_FIELDS = [3, 4, 8, 9, 16, 27]
DIGIT_FIELDS = [5, 7, 25, 49]
FIELDS = BIT_FIELDS + DIGIT_FIELDS
FIELD_LENGTHS = [(q, n) for q in BIT_FIELDS for n in [1, 63, 64, 65, 128, 129]] + [
    (q, n) for q in DIGIT_FIELDS for n in [1, 63, 64, 65, 129]]
# the largest k whose (q^k - 1)/(q - 1) words the per-word oracle counts fast
MAX_K = {3: 5, 4: 4, 8: 3, 9: 3, 16: 3, 27: 2, 5: 4, 7: 3, 25: 2, 49: 2}


def width(fld, n):
    """The entries of a word: uint64 limbs for p <= 3, else uint8 digits."""
    return (fld.p - 1) * fld.m * -(-n // 64) if fld.p <= 3 else fld.m * n


def dtype(fld):
    return np.uint64 if fld.p <= 3 else np.uint8


def damaged_generator(q, k, n, seed):
    """A random k x n generator over GF(q) with a zero column at a limb edge
    and, for k >= 3, its last row a multiple of its first, which leaves bin 0
    of the histogram nonzero and repeats supports."""
    rng = np.random.default_rng(seed)
    gen = rng.integers(0, q, size=(k, n))
    gen[:, min(n, 64) - 1] = 0
    if k >= 3:
        gen[k - 1] = build_field(q).mul_array(gen[0], q - 1)
    return gen


def block_pass(fld, stack, supports):
    """The block pass over stack (k, B, n), whatever _pass would pick."""
    tail, span, prefixes = codes._stack_layout(fld, stack)
    blocks = [tail] + [codes._add(fld, prefix, span) for prefix in prefixes]
    return codes._tally(fld, stack.shape, iter(blocks), supports)


@pytest.mark.parametrize("q", [3, 4, 8, 9, 5, 7, 25, 49])
def test_addition_negation_and_keys_are_the_field_tables(q):
    fld = build_field(q)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(q), np.arange(q)))  # q^2 columns
    words = codes._lift(fld, np.stack([a, b]))
    assert words.dtype == dtype(fld) and words.shape == (2, width(fld, q * q))
    total = codes._elements(fld, codes._add(fld, words[0], words[1]), q * q)
    assert total.tolist() == [fld.add(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert codes._elements(fld, words, q * q).tolist() == [a.tolist(), b.tolist()]
    assert np.array_equal(codes._unpack(codes._key(fld, words), q * q), np.stack([a, b]) != 0)
    if fld.p > 2:  # -b: the halves of the bit planes swapped for p = 3, else (p - 1) b
        negated = (np.roll(words, words.shape[-1] // 2, axis=-1) if fld.p == 3
                   else (fld.p - 1) * words % fld.p)
        assert codes._elements(fld, negated, q * q).tolist() == [
            [fld.neg(x) for x in row] for row in (a.tolist(), b.tolist())]


@pytest.mark.parametrize("q,n", FIELD_LENGTHS)
def test_histograms_and_supports_match_reference(q, n, block_rows):
    fld = build_field(q)
    for k in range(1, MAX_K[q] + 1):
        gen = damaged_generator(q, k, n, 1000 * q + 10 * n + k)
        expected = reference.histogram(fld, gen.tolist())
        distinct = reference.distinct_supports(fld, gen.tolist())
        for rows in (codes.BLOCK_ROWS, 3):
            block_rows(rows)
            hist, qm = block_pass(fld, gen[:, None], supports=True)
            assert hist.tolist() == [expected]
            assert qm.tolist() == [distinct == (q**k - 1) // (q - 1)]


@pytest.mark.parametrize("q", FIELDS)
def test_codeword_matrix_lists_the_reference_words(q, block_rows):
    fld = build_field(q)
    k = MAX_K[q]
    for n in (k, 65):
        gen = damaged_generator(q, k, n, q + n)
        gen[:, :k] = np.eye(k, dtype=np.int64)  # full rank again
        code = LinearCode(fld, tuple(map(tuple, gen.tolist())))
        expected = reference.words(code)
        for rows in (codes.BLOCK_ROWS, 10, 3):
            block_rows(rows)
            count = codes._block_count(q, k)
            blocks = [codes.codeword_matrix(code, b) for b in range(count)]
            assert [tuple(w) for b in blocks for w in b.tolist()] == expected
            assert all(b.ndim == 2 and b.shape[1] == n and b.dtype == np.uint8 for b in blocks)
            for b, words in enumerate(blocks):
                packed = codes.codeword_matrix(code, b, packed=True)
                assert packed.dtype == dtype(fld) and packed.shape == (len(words), width(fld, n))
                assert np.array_equal(codes._elements(fld, packed, n), words)


# (q, k, B, n): stacks whose shapes _by_points leaves to the block pass
STACKS = [(3, 4, 30, 20), (4, 4, 20, 65), (9, 3, 25, 12), (8, 3, 10, 129), (27, 3, 4, 30),
          (3, 3, 8, 64), (3, 4, 5, 129), (5, 4, 20, 20), (25, 3, 4, 30)]


@pytest.mark.parametrize("q,k,count,n", STACKS)
def test_search_stacks_match_reference(q, k, count, n, block_rows):
    fld = build_field(q)
    gens = np.stack([damaged_generator(q, k, n, seed) for seed in range(count)])
    gens[::2] = np.random.default_rng(q).integers(0, q, size=gens[::2].shape)
    expected = [(reference.histogram(fld, g.tolist()),
                 reference.distinct_supports(fld, g.tolist())) for g in gens]
    assert not codes._by_points(q, k, count, n, supports=True)
    if fld.p <= 3:  # bit planes stay limb-outermost: each plane limb runs along the words
        tail = codes._stack_layout(fld, gens.transpose(1, 0, 2))[0]
        assert np.moveaxis(tail, -1, 0).flags.c_contiguous
    for rows in (codes.BLOCK_ROWS, 5):
        block_rows(rows)
        for supports in (False, True):
            hist, qm = codes._pass(fld, gens.transpose(1, 0, 2), supports)
            assert hist.tolist() == [h for h, _ in expected]
            if supports:
                assert qm.tolist() == [d == (q**k - 1) // (q - 1) for _, d in expected]
    assert not all(qm[1::2])  # the damaged generators repeat supports


@pytest.mark.parametrize("n", [20, 63, 64])
@pytest.mark.parametrize("q", [3, 4, 9, 5, 25])
def test_codes_with_multiplicities_match_reference(q, n, block_rows):
    # the weights leave the planes through their key; N passes 2^63 at n = 64
    fld = build_field(q)
    k = min(MAX_K[q], 3)
    gen = damaged_generator(q, k, n, n)
    gen[:, :k] = np.eye(k, dtype=np.int64)
    base = LinearCode(fld, tuple(map(tuple, gen.tolist())))
    small = np.random.default_rng(n).integers(1, 5, size=n).tolist()
    for profile in (small, [2**i for i in range(n)]):
        code = generalized_repetition(base, profile)
        expected = reference.spectrum(code)
        for rows in (codes.BLOCK_ROWS, 4):
            block_rows(rows)
            assert weight_spectrum(code).counts == expected
            report = spectrum_report(code)
            assert {int(w): a for w, a in report["counts"].items()} == expected
            assert report["is_qm"] == is_qm(code) == reference.is_qm(code)
