"""The GF(2) block pass, which holds words as uint64 bit sets, against the
reference oracles.

A binary word is n columns packed 64 to a limb and its weight is their
popcount.  Lengths 1, 63, 64, 65, 128 and 129 put the last column on both
sides of a limb edge, and block sizes small enough to cut a code into many
blocks make every prefix reuse the span of the tail rows.  The oracle for
long codes is reference.binary_word_blocks, a message-matrix product; the
per-word oracles of reference.py check it, and the short codes, directly.
"""

import numpy as np
import pytest

import reference
from mwscodes import (
    LinearCode,
    build_field,
    generalized_repetition,
    is_mws,
    spectrum_report,
    weight_spectrum,
)
from mwscodes import codes

FIELD = build_field(2)
LENGTHS = [1, 63, 64, 65, 128, 129]


def damaged_generator(k, n, seed):
    """A random k x n binary generator with a zero column at a limb edge
    (when k is even) and, when k is a multiple of 3, a repeated row, which
    leaves bin 0 of its histogram nonzero."""
    gen = np.random.default_rng(seed).integers(0, 2, size=(k, n))
    if k % 2 == 0:
        gen[:, min(n, 64) - 1] = 0
    if k % 3 == 0 and k > 1:
        gen[k - 1] = gen[0]
    return gen


def block_sizes(k):
    # the default, one that leaves about 2^(k/2) prefixes behind the tail,
    # and for short codes one that cuts them into blocks of two to four words
    return [codes.BLOCK_ROWS, 2 ** -(-k // 2)] + ([3] if k <= 10 else [])


@pytest.mark.parametrize("k", range(1, 19))
def test_packed_histograms_and_spectra_match_reference(k, block_rows):
    for n in (LENGTHS[k % 6], LENGTHS[(k + 3) % 6]):
        gen = damaged_generator(k, n, 100 * k + n)
        expected = reference.binary_histogram(gen)
        full_rank = expected[0] == 0
        assert full_rank == (k <= n and codes.gf_rank(FIELD, gen.tolist()) == k)
        if full_rank:
            code = LinearCode(FIELD, tuple(map(tuple, gen.tolist())))
            spectrum = {w: c for w, c in enumerate(expected) if c}
        for rows in block_sizes(k):
            block_rows(rows)
            hist, qm = codes._histograms(FIELD, gen[:, None], supports=False)
            assert hist.tolist() == [expected] and qm is None
            if full_rank:
                assert weight_spectrum(code).counts == spectrum
                assert is_mws(code) == (len(spectrum) == 2**k - 1)


def test_binary_word_blocks_match_the_per_word_oracle():
    for k, n in [(1, 1), (3, 64), (5, 65), (6, 129)]:
        gen = damaged_generator(k, n, k).tolist()
        words = [tuple(w) for block in reference.binary_word_blocks(gen, rows=7)
                 for w in block.tolist()]
        assert words == reference.generator_words(FIELD, gen)
        assert reference.binary_histogram(gen) == reference.histogram(FIELD, gen)


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 4, 9) for n in LENGTHS if n >= k])
def test_codeword_matrix_unpacks_the_same_words_in_order(k, n, block_rows):
    gen = damaged_generator(k, n, n)
    gen[:, :k] = np.eye(k, dtype=np.int64)  # full rank again
    code = LinearCode(FIELD, tuple(map(tuple, gen.tolist())))
    expected = reference.words(code)
    for rows in block_sizes(k):
        block_rows(rows)
        blocks = [codes.codeword_matrix(code, b) for b in range(codes._block_count(2, k))]
        assert all(b.ndim == 2 and b.shape[1] == n and b.dtype == np.uint8 for b in blocks)
        assert [tuple(w) for b in blocks for w in b.tolist()] == expected


@pytest.mark.parametrize("n", [62, 63, 64, 65])
@pytest.mark.parametrize("k", [3, 7])
def test_doubling_profiles_on_both_sides_of_two_to_the_63(k, n, block_rows):
    # m_i = 2^i gives N = 2^n - 1, below 2^63 for n <= 63 and above it from
    # n = 64 on; the weights leave the packed words through _unpack
    gen = damaged_generator(k, n, k + n)
    gen[:, :k] = np.eye(k, dtype=np.int64)
    code = generalized_repetition(LinearCode(FIELD, tuple(map(tuple, gen.tolist()))),
                                  [2**i for i in range(n)])
    assert (code.effective_length >= 2**63) == (n >= 64)
    expected = reference.spectrum(code)
    for rows in block_sizes(k):
        block_rows(rows)
        assert weight_spectrum(code).counts == expected
        report = spectrum_report(code)
        assert {int(w): a for w, a in report["counts"].items()} == expected
        assert report["is_mws"] == (len(expected) == 2**k - 1)


# (k, B, n): the binary search stacks of the workloads' shapes, and stacks
# whose words take two and three limbs
STACKS = [(3, 700, 6), (2, 800, 21), (5, 40, 65), (4, 30, 129), (6, 20, 64)]


@pytest.mark.parametrize("k,count,n", STACKS)
def test_search_stacks_match_reference(k, count, n, monkeypatch):
    # every fourth generator repeats a row, so bin 0 and a support repeat
    rng = np.random.default_rng(k * n)
    gens = rng.integers(0, 2, size=(count, k, n))
    gens[::4, k - 1] = gens[::4, 0]
    expected = [(reference.histogram(FIELD, g.tolist()),
                 reference.distinct_supports(FIELD, g.tolist())) for g in gens]
    for rows in (codes.BLOCK_ROWS, 5):
        monkeypatch.setattr(codes, "BLOCK_ROWS", rows)
        for supports in (False, True):
            hist, qm = codes._histograms(FIELD, gens.transpose(1, 0, 2), supports)
            assert hist.tolist() == [h for h, _ in expected]
            if supports:  # the packed words are their own support keys
                assert qm.tolist() == [d == 2**k - 1 for _, d in expected]
    assert not all(qm) and any(qm)


@pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 128, 129, 200])
def test_bit_sets_unpack_to_their_mask(n):
    mask = np.random.default_rng(n).integers(0, 2, size=(5, 3, n)).astype(bool)
    words = codes._bit_sets(mask)
    assert words.dtype == np.uint64 and words.shape == (5, 3, -(-n // 64))
    assert np.array_equal(codes._unpack(words, n), mask)
    assert np.array_equal(np.bitwise_count(words).sum(axis=-1), mask.sum(axis=-1))
