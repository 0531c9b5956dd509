"""Support comparison by fingerprint against the per-word reference.

codes._distinct_rows folds each support key's uint64 limbs into one
fingerprint, sorts those along the words and settles fingerprint ties on
the full keys.  Lengths 63, 64, 65, 128 and 129 put the keys on both sides
of one, two and three limbs.  The candidates include QM codes, rank-deficient
ones and non-QM ones whose few nonzero columns lie anywhere, so some keys
differ only past the first limb.  A patched fold that makes every word, or
every word with the same first limb, tie must leave every count unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from mwscodes import LinearCode, build_field, is_qm
from mwscodes import codes

FIELDS = [3, 4, 5, 9]
LENGTHS = [63, 64, 65, 128, 129]


def candidates(q, k, n, count, seed):
    """count generators (count, k, n) over GF(q), cycling through random
    ones (QM at these lengths), rank-deficient ones (a row a multiple of
    another) and non-QM ones (at most k + 1 nonzero columns, anywhere)."""
    fld = build_field(q)
    rng = np.random.default_rng(seed)
    gens = rng.integers(0, q, size=(count, k, n))
    for i, gen in enumerate(gens):
        if i % 3 == 1:
            gen[k - 1] = fld.mul_array(gen[0], rng.integers(1, q))
        elif i % 3 == 2:
            gen[:, rng.permutation(n)[rng.integers(1, k + 2):]] = 0
    return gens


def support_keys(fld, gens):
    """The support keys (words, B, limbs) of the block pass over gens."""
    tail, span, prefixes = codes._stack_layout(fld, gens.transpose(1, 0, 2))
    blocks = [tail] + [codes._add(fld, prefix, span) for prefix in prefixes]
    return np.concatenate([codes._key(fld, words) for words in blocks])


def check_against_reference(q, k, gens):
    fld = build_field(q)
    points = (q**k - 1) // (q - 1)
    expected = [reference.distinct_supports(fld, g.tolist()) for g in gens]
    assert codes._distinct_rows(support_keys(fld, gens)).tolist() == expected
    _, qm = codes._histograms(fld, gens.transpose(1, 0, 2), supports=True)
    assert qm.tolist() == [d == points for d in expected]
    for gen, distinct in zip(gens, expected):
        if codes.gf_rank(fld, gen.tolist()) == k:
            assert is_qm(LinearCode(fld, tuple(map(tuple, gen.tolist())))) == (distinct == points)
    return expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from([3, 4]), st.sampled_from(LENGTHS),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_distinct_rows_and_is_qm_match_reference(q, k, n, count, seed):
    check_against_reference(q, k, candidates(q, k, n, count, seed))


@pytest.mark.parametrize("q", FIELDS)
@pytest.mark.parametrize("n", [65, 129])
@pytest.mark.parametrize("fold", ["all tie", "first limb"])
def test_fingerprint_collisions_are_settled_exactly(q, n, fold, monkeypatch):
    k = 3 if q == 9 else 4
    gens = candidates(q, k, n, 6, q * n)
    expected = check_against_reference(q, k, gens)
    assert len(set(expected)) > 1  # QM and non-QM candidates
    if fold == "all tie":
        monkeypatch.setattr(codes, "_fingerprints", lambda keys: np.zeros(keys.shape[:-1], np.uint64))
    else:  # keys equal on their first limb tie, while the other runs stay apart
        monkeypatch.setattr(codes, "_fingerprints", lambda keys: keys[..., 0])
    assert check_against_reference(q, k, gens) == expected
