"""The weight passes against the slow reference oracle in reference.py.

Every analysis is checked with the default block size and with block sizes
small enough to cut each code into several blocks, for plain profiles and
for multiplicity profiles whose weights take one int64 limb or two.  Plain [n, 2] codes over q > 2
take the point pass, the rest the block pass.
"""

import numpy as np
import pytest

import reference
from mwscodes import (
    build_field,
    generalized_repetition,
    identity_code,
    is_mws,
    is_qm,
    mws_pipeline,
    projective_representatives,
    random_code,
    simplex,
    spectrum_report,
    trial_rng,
    weight_spectrum,
)
from mwscodes import cli, codes

# 127 and 131 sit on either side of the uint8 limit for word entries.
FIELDS = [2, 3, 4, 5, 7, 8, 9, 25, 27, 127, 131, 243, 256, 257, 2187]
PROFILES = ["plain", "small", "doubling20", "doubling64"]  # doubling64: two limbs, N >= 2^62
BLOCK_SIZES = [codes.BLOCK_ROWS, 10, 3]


def make_code(q, profile):
    k = 3 if q < 100 else 2
    n = {"plain": 8, "small": 8, "doubling20": 20, "doubling64": 64}[profile]
    code = random_code(q, k, n, trial_rng(q, PROFILES.index(profile)))
    if profile == "small":
        rng = np.random.default_rng(q)
        return generalized_repetition(code, rng.integers(1, 5, size=n).tolist())
    if profile.startswith("doubling"):
        return generalized_repetition(code, [2**i for i in range(n)])
    return code


def blocks(code):
    return [codes.codeword_matrix(code, b) for b in range(codes._block_count(code.q, code.k))]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("q", FIELDS)
def test_analyses_match_reference(q, profile, block_rows):
    code = make_code(q, profile)
    assert (code.effective_length >= 2**62) == (profile == "doubling64")
    spec, mws, qm = reference.spectrum(code), reference.is_mws(code), reference.is_qm(code)
    for rows in BLOCK_SIZES:
        block_rows(rows)
        assert weight_spectrum(code).counts == spec
        assert is_mws(code) == mws
        assert is_qm(code) == qm
        report = spectrum_report(code)
        assert {int(w): a for w, a in report["counts"].items()} == spec
        assert (report["is_mws"], report["is_qm"]) == (mws, qm)


@pytest.mark.parametrize("q", FIELDS)
def test_blocks_list_the_reference_words_in_order(q, block_rows):
    code = make_code(q, "plain")
    expected = reference.words(code)
    for rows in BLOCK_SIZES:
        block_rows(rows)
        got = blocks(code)
        assert all(b.ndim == 2 and b.shape[1] == code.n for b in got)
        assert all(len(b) <= max(rows, q) for b in got)
        assert [tuple(w) for b in got for w in b.tolist()] == expected


def test_base_131_digits_do_not_overflow(monkeypatch):
    # over GF(131^2) words are added digit by digit; q - 1 has both digits
    # 130, so sums up to 260 arise, beyond uint8
    q = 131**2
    code = codes.LinearCode(build_field(q), ((q - 1, q - 1, 1), (1, 0, q - 1)))
    assert [tuple(w) for b in blocks(code) for w in b.tolist()] == reference.words(code)
    monkeypatch.setenv("MWSCODES_MAX_ENUM", str(q**2))
    assert weight_spectrum(code).counts == reference.spectrum(code)


def test_small_blocks_cut_a_code_into_many():
    assert codes._block_count(2, 16) == 1  # 2^16 - 1 words: one default block
    assert codes._block_count(9, 5) == 1
    assert codes._block_count(2, 20) == 16  # blocks of 2^16 words behind 15 prefixes
    assert codes._block_count(2187, 2) == 1


@pytest.mark.parametrize("q", FIELDS)
def test_projective_representatives_match_reference_order(q):
    for k in range(1, 4 if q < 100 else 3):
        assert projective_representatives(build_field(q), k) == list(
            reference.representatives(q, k))


@pytest.mark.parametrize("maker", [identity_code, simplex])
@pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 2), (9, 2)])
def test_structured_codes_match_reference(maker, q, k, block_rows):
    code = maker(q, k)
    for rows in BLOCK_SIZES:
        block_rows(rows)
        assert weight_spectrum(code).counts == reference.spectrum(code)
        assert is_qm(code) == reference.is_qm(code)


@pytest.mark.parametrize("q", [2, 3])
def test_supports_differing_only_beyond_64_columns(q):
    # support keys hold 64 columns per uint64; here every support differs
    # from the others only in columns 64 and later
    k, zeros = 3, 70
    gen = [[0] * zeros + [int(i == j) for j in range(k)] for i in range(k)]
    code = codes.LinearCode(build_field(q), tuple(map(tuple, gen)))
    assert is_qm(code) == reference.is_qm(code) == (q == 2)
    assert spectrum_report(code)["is_qm"] == (q == 2)


def count_blocks(monkeypatch):
    """Count codeword_matrix calls made through the codes module."""
    calls = []
    real = codes.codeword_matrix

    def counted(code, block=0, **kwargs):
        calls.append((code.n, block))
        return real(code, block, **kwargs)

    monkeypatch.setattr(codes, "codeword_matrix", counted)
    return calls


def count_passes(monkeypatch):
    """Count weight passes, point or block, made through their one
    dispatcher codes._pass: the (k, B, n) shape of each."""
    calls = []
    real = codes._pass

    def counted(fld, stack, *args):
        calls.append(stack.shape)
        return real(fld, stack, *args)

    monkeypatch.setattr(codes, "_pass", counted)
    return calls


def test_spectrum_report_enumerates_once(monkeypatch):
    calls = count_blocks(monkeypatch)
    spectrum_report(make_code(3, "plain"))
    assert len(calls) == 1


def no_supports(mask):
    raise AssertionError("supports computed")


def test_weights_never_compute_supports(monkeypatch):
    # every block pass reads a word's support as a bit set, whose popcount
    # is its weight; a weights-only pass never compares those supports
    monkeypatch.setattr(codes, "_distinct_rows", no_supports)
    calls = count_blocks(monkeypatch)
    for q in (4, 5, 25):
        for profile in ("plain", "small"):
            code = make_code(q, profile)
            assert weight_spectrum(code).counts == reference.spectrum(code)
            assert is_mws(code) == reference.is_mws(code)
    assert len(calls) == 12  # k = 3 codes: one block pass each


def test_pipeline_and_construct_reuse_their_verdicts(monkeypatch, capsys):
    calls = count_passes(monkeypatch)
    mws_pipeline(2, 4, "identity")
    assert len(calls) == 2  # the base's report and the embedded spectrum
    for argv, passes in [(["simplex", "--q", "3", "--k", "2"], 1),
                         (["embed", "--q", "2", "--k", "3", "--source", "identity"], 2)]:
        calls.clear()
        assert cli.main(["construct", *argv, "--verify-qm", "--verify-mws"]) in (0, 1)
        assert len(calls) == passes
    capsys.readouterr()


@pytest.mark.parametrize("profile", PROFILES)
def test_binary_codes_are_qm_without_supports(profile, monkeypatch):
    code = make_code(2, profile)
    spec = reference.spectrum(code)
    assert reference.is_qm(code)
    # a binary word is its own support key, so no support may be compared
    monkeypatch.setattr(codes, "_distinct_rows", no_supports)
    calls = count_passes(monkeypatch)
    assert is_qm(code) is True and calls == []  # no pass at all
    report = spectrum_report(code)
    assert report["is_qm"] is True and len(calls) == 1
    assert {int(w): a for w, a in report["counts"].items()} == spec


def test_every_binary_code_is_qm():
    # distinct nonzero binary words have distinct supports
    for k in range(1, 5):
        for n in range(k, 8):
            for t in range(5):
                code = random_code(2, k, n, trial_rng(n, t))
                assert is_qm(code) is reference.is_qm(code) is True


def test_binary_qm_needs_no_enumeration_guard():
    code = identity_code(2, 30)  # 2^30 words, over the default guard
    assert is_qm(code) is True
    with pytest.raises(codes.EnumerationTooLargeError):
        spectrum_report(code)
