"""Property tests over random code corpora and hypothesis-generated inputs."""

import numpy as np
import pytest
import reference
from hypothesis import given, settings, strategies as st

from mwscodes import (
    LinearCode,
    build_field,
    codeword,
    is_mws,
    is_mws_lemma,
    is_qm,
    projective_representatives,
    qm_sufficient_dD,
    qm_sufficient_dn,
    random_code,
    spectrum_report,
    trial_rng,
    weight_spectrum,
    weighted_weight,
)
from mwscodes import codes

CORPUS_SEED = 20240817


def corpus(per_cell=40):
    """Random full-rank codes over q in {2,3,4,5}, k <= 3, n <= 12."""
    trial = 0
    for q in (2, 3, 4, 5):
        for k in (1, 2, 3):
            for i in range(per_cell):
                n = k + (i % (13 - k))
                yield random_code(q, k, n, trial_rng(CORPUS_SEED, trial))
                trial += 1


@pytest.fixture(scope="module")
def code_corpus():
    return list(corpus())


def test_spectrum_normalization(code_corpus):
    for code in code_corpus:
        spec = weight_spectrum(code)
        q = code.q
        assert spec.total == q**code.k - 1
        assert all(a % (q - 1) == 0 for a in spec.counts.values())
        assert spec.L <= (q**code.k - 1) // (q - 1)


def test_lemma_equivalence(code_corpus):
    for code in code_corpus:
        assert is_mws(code) == is_mws_lemma(code)


def test_mws_implies_qm(code_corpus):
    for code in code_corpus:
        if is_mws(code):
            assert is_qm(code)


def test_sufficient_conditions_sound(code_corpus):
    for code in code_corpus:
        if qm_sufficient_dn(code) or qm_sufficient_dD(code):
            assert is_qm(code)


def test_dn_implies_dD(code_corpus):
    for code in code_corpus:
        if qm_sufficient_dn(code):
            assert qm_sufficient_dD(code)


def test_unit_multiplicities_give_hamming_weight(code_corpus):
    for code in code_corpus[:100]:
        ones = (1,) * code.n
        for msg in projective_representatives(code.field, code.k):
            word = codeword(code, msg)
            assert weighted_weight(word, ones) == sum(1 for x in word if x)


@given(
    q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_field_axioms_hypothesis(q, data):
    f = build_field(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a:
        assert f.mul(a, f.inv(a)) == 1


@given(
    word=st.lists(st.integers(0, 4), min_size=1, max_size=14),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_weighted_weight_additive_over_support(word, data):
    mult = data.draw(
        st.lists(st.integers(1, 1 << 40), min_size=len(word), max_size=len(word))
    )
    total = weighted_weight(word, mult)
    assert total == sum(m for x, m in zip(word, mult) if x)
    assert weighted_weight(word, [1] * len(word)) == sum(1 for x in word if x)


# Multiplicity profiles for codes._weights, by name; "limbs" draws m_i of
# exactly 1 to 5 limbs of w = 63 - bit_length(n) bits.
WEIGHT_PROFILES = {
    "ones": lambda n: [1] * n,
    "small": lambda n: [1 + i % 4 for i in range(n)],
    "doubling": lambda n: [2**i for i in range(n)],
    "2^62": lambda n: [2**62] * n,
    "2^63 - 1": lambda n: [2**63 - 1] * n,
    "2^200 + i": lambda n: [2**200 + i for i in range(n)],
}


@given(
    st.sampled_from([1, 2, 31, 63, 64, 65, 200]),
    st.sampled_from([*WEIGHT_PROFILES, "limbs"]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_limb_weights_match_weighted_weight(n, profile, data):
    if profile == "limbs":
        bits = data.draw(st.integers(1, 5)) * (63 - n.bit_length())
        m = data.draw(st.lists(st.integers(1, 2**bits - 1), min_size=n, max_size=n))
        m[data.draw(st.integers(0, n - 1))] |= 1 << bits - 1
    else:
        m = WEIGHT_PROFILES[profile](n)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=6))
    rows += [[True] * n, [False] * n]  # the largest sum, and none
    weights = codes._weights(m, np.array(rows))
    assert weights.dtype == np.int64
    assert (weights.ndim == 1) == (sum(m) < 2**63)  # else base-2^w digit rows
    if weights.ndim == 2:
        w = 63 - n.bit_length()
        assert weights.min() >= 0 and weights.max() < 2**w
        weights = weights.astype(object) @ [1 << w * j for j in range(weights.shape[1])]
    assert weights.tolist() == [weighted_weight(r, m) for r in rows]


def _wide_profile(kind, n, data):
    """A profile whose N sits at a target near 2^63 (the last m_i makes up
    the rest), whose limb sums carry, or whose m_i repeat."""
    w = 63 - n.bit_length()
    if kind == "carry":  # every w-bit limb full, so n of them carry into the next
        return [2 ** (w * data.draw(st.integers(1, 3))) - 1 - data.draw(st.integers(0, 3))
                for _ in range(n)]
    if kind == "repeated":  # equal and additive m_i: words of different supports collide
        a, b = 2**63 - data.draw(st.integers(0, 2)), 2**64 + data.draw(st.integers(0, 2))
        return data.draw(st.lists(st.sampled_from([a, b, a + b]), min_size=n, max_size=n))
    target = {"below": 2**63 - 1, "at": 2**63, "above": 2**63 + 1, "paper": 2**64 - 1}[kind]
    rest = data.draw(st.lists(st.integers(1, 2**60), min_size=n - 1, max_size=n - 1))
    return [*rest, target - sum(rest)]


@given(
    st.sampled_from([2, 3, 4]),
    st.integers(1, 3),
    st.sampled_from(["below", "at", "above", "paper", "carry", "repeated"]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_wide_profile_spectra_match_the_reference(q, k, kind, data):
    n = data.draw(st.integers(k, 8))
    base = random_code(q, k, n, trial_rng(data.draw(st.integers(0, 2**16)), 0))
    m = _wide_profile(kind, n, data)
    code = LinearCode(field=base.field, generator=base.generator, multiplicities=tuple(m))
    expected = reference.spectrum(code)
    counts = weight_spectrum(code).counts
    assert counts == expected and list(counts) == sorted(counts)
    assert all(type(w) is int and type(c) is int for w, c in counts.items())
    report = spectrum_report(code)
    assert list(report["counts"].items()) == [(str(w), c) for w, c in expected.items()]
    assert report["is_mws"] == reference.is_mws(code) == is_mws(code)
    assert report["D"] == max(expected) and report["N"] == sum(m)


@given(st.sampled_from([2, 3, 4, 5]), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_projective_count(q, k):
    reps = list(projective_representatives(build_field(q), k))
    assert len(reps) == (q**k - 1) // (q - 1)
    assert len(set(reps)) == len(reps)
