"""Linear code primitives: encodings, spectra, predicates, file format."""

import functools
import itertools

import numpy as np
import pytest
import reference

from mwscodes import (
    EnumerationTooLargeError,
    LinearCode,
    build_field,
    codeword,
    dumps_code,
    is_mws,
    is_mws_lemma,
    is_qm,
    loads_code,
    mws_criterion_sum,
    projective_representatives,
    qm_sufficient_dD,
    qm_sufficient_dn,
    simplex,
    identity_code,
    spectrum_report,
    support,
    weight_spectrum,
    weighted_weight,
)
from mwscodes import codes
from mwscodes.codes import RankDeficientError, _check_guard, codeword_matrix


def make_code(q, rows, mult=()):
    return LinearCode(
        field=build_field(q),
        generator=tuple(tuple(r) for r in rows),
        multiplicities=tuple(mult),
    )


STAIR_2 = [[1, 0, 0], [0, 1, 1]]  # binary code with weights 1, 2, 3


# -- projective representatives -----------------------------------------------

def scalar_orbit_oracle(q, k):
    """Brute force: group all nonzero vectors by scalar multiples."""
    f = build_field(q)
    orbits = set()
    for v in itertools.product(range(q), repeat=k):
        if not any(v):
            continue
        orbit = frozenset(
            tuple(f.mul(s, x) for x in v) for s in range(1, q)
        )
        orbits.add(orbit)
    return orbits


@pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_projective_representatives_one_per_orbit(q, k):
    reps = list(projective_representatives(build_field(q), k))
    assert len(reps) == (q**k - 1) // (q - 1)
    orbits = scalar_orbit_oracle(q, k)
    assert len(orbits) == len(reps)
    for rep in reps:
        # canonical form: first nonzero coordinate is 1
        assert next(x for x in rep if x) == 1
        assert any(rep in orbit for orbit in orbits)
    assert reps == sorted(reps)  # lexicographic order


def test_projective_representatives_binary():
    reps = list(projective_representatives(build_field(2), 2))
    assert reps == [(0, 1), (1, 0), (1, 1)]


def test_projective_representatives_ternary():
    reps = list(projective_representatives(build_field(3), 2))
    assert set(reps) == {(0, 1), (1, 0), (1, 1), (1, 2)}


# -- codeword / support / weight ----------------------------------------------

def test_codeword_zero_and_unit_messages():
    code = make_code(2, STAIR_2)
    assert codeword(code, (0, 0)) == (0, 0, 0)
    assert codeword(code, (1, 0)) == (1, 0, 0)
    assert codeword(code, (0, 1)) == (0, 1, 1)
    assert codeword(code, (1, 1)) == (1, 1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, 243, 256, 257, 512, 2187])
def test_codeword_matrix_matches_codeword(q, monkeypatch):
    # every enumeration block against per-message encoding, with the default
    # block size and with one that cuts the code into several blocks
    rng = np.random.default_rng(q)
    k, n = (4, 7) if q < 100 else (2, 5)
    while True:
        try:
            code = make_code(q, rng.integers(0, q, size=(k, n)).tolist())
            break
        except ValueError:  # rank-deficient draw
            pass
    expected = [codeword(code, m) for m in projective_representatives(code.field, k)]
    for rows in (codes.BLOCK_ROWS, 7):
        monkeypatch.setattr(codes, "BLOCK_ROWS", rows)
        codes._layout.cache_clear()
        words = [codeword_matrix(code, b) for b in range(codes._block_count(q, k))]
        assert all(w.shape[1] == n for w in words)
        assert [tuple(w) for block in words for w in block.tolist()] == expected
    codes._layout.cache_clear()


def test_support():
    assert support((0, 1, 2, 0)) == {1, 2}
    assert support((0, 0)) == frozenset()
    assert support((1, 1, 1, 1)) == {0, 1, 2, 3}


def test_weighted_weight():
    assert weighted_weight((1, 0, 1), (1, 2, 4)) == 5
    assert weighted_weight((0, 0, 0), (7, 8, 9)) == 0
    assert weighted_weight((1, 1, 1), (1, 1, 1)) == 3


def test_weighted_weight_length_mismatch():
    with pytest.raises(ValueError):
        weighted_weight((1, 0), (1, 2, 3))


# -- construction invariants --------------------------------------------------

def test_rank_deficient_generator_rejected():
    with pytest.raises(ValueError, match="rank"):
        make_code(2, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(RankDeficientError):
        make_code(3, [[1, 2, 0], [2, 1, 0]])  # row 2 = 2 * row 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 243, 257, 512, 2187])
def test_gf_rank_matches_scalar_elimination(q):
    # a k x r times r x n product has rank at most r, so r < min(k, n)
    # makes it rank deficient; zero rows, columns and entries come along
    fld = build_field(q)
    rng = np.random.default_rng(q)
    ranks = set()
    for _ in range(150):
        k, n, r = rng.integers(1, 7), rng.integers(1, 10), rng.integers(0, 7)
        left, right = rng.integers(0, q, (k, r)).tolist(), rng.integers(0, q, (r, n)).tolist()
        rows = [[functools.reduce(fld.add, (fld.mul(a[t], right[t][j]) for t in range(r)), 0)
                 for j in range(n)] for a in left]
        rank = reference.gf_rank(fld, rows)
        assert codes.gf_rank(fld, rows) == rank
        ranks.add((rank, rank == min(k, n)))
    assert {(0, False), (1, True), (2, False), (3, True)} <= ranks
    if q == 2:  # int bit-set rows: up to 16 rows of up to 2000 columns, over byte edges
        wide = set()
        for _ in range(60):
            k, n, r = rng.integers(1, 17), rng.integers(1, 2001), rng.integers(0, 17)
            rows = (rng.integers(0, 2, (k, r)) @ rng.integers(0, 2, (r, n)) % 2).tolist()
            rank = reference.gf_rank(fld, rows)
            assert codes.gf_rank(fld, rows) == rank
            wide.add(rank == min(k, n))
        assert wide == {False, True}


def test_bad_multiplicities_rejected():
    with pytest.raises(ValueError):
        make_code(2, STAIR_2, mult=(1, 0, 1))
    with pytest.raises(ValueError):
        make_code(2, STAIR_2, mult=(1, 1))


# -- weight spectrum ----------------------------------------------------------

def test_spectrum_identity_333():
    spec = weight_spectrum(identity_code(2, 3))
    assert spec.counts == {1: 3, 2: 3, 3: 1}
    assert (spec.d, spec.D, spec.L) == (1, 3, 3)


def test_spectrum_simplex_2_3():
    spec = weight_spectrum(simplex(2, 3))
    assert spec.counts == {4: 7}
    assert (spec.d, spec.D, spec.L) == (4, 4, 1)


def test_spectrum_stair():
    # Oracle: the three nonzero words are 100, 011, 111.
    spec = weight_spectrum(make_code(2, STAIR_2))
    assert spec.counts == {1: 1, 2: 1, 3: 1}
    assert spec.L == 3


def test_spectrum_guard_env_override(monkeypatch):
    monkeypatch.setenv("MWSCODES_MAX_ENUM", "16")
    with pytest.raises(EnumerationTooLargeError):
        weight_spectrum(identity_code(2, 5))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 9])
def test_guard_verdict_is_q_to_the_k_above_the_limit(q, k, monkeypatch):
    for limit in sorted({0, 1, q**k - 1, q**k, q**k + 1}):
        monkeypatch.setenv("MWSCODES_MAX_ENUM", str(limit))
        try:
            _check_guard(q, k)
            refused = False
        except EnumerationTooLargeError:
            refused = True
        assert refused == (q**k > limit), (q, k, limit)


# -- predicates ---------------------------------------------------------------

def test_is_mws_examples():
    assert is_mws(make_code(2, STAIR_2)) is True
    assert is_mws(identity_code(2, 3)) is False
    assert is_mws(simplex(2, 3)) is False


def test_mws_criterion_sum_examples():
    assert mws_criterion_sum(make_code(2, STAIR_2)) == 0
    # identity [3,3]_2: spectrum {1:3, 2:3, 3:1} -> 3*2 + 3*2 + 1*0 = 12
    assert mws_criterion_sum(identity_code(2, 3)) == 12
    assert not is_mws_lemma(identity_code(2, 3))
    # simplex q=2,k=3: A_4 = 7 -> 7*6 = 42
    assert mws_criterion_sum(simplex(2, 3)) == 42
    assert not is_mws_lemma(simplex(2, 3))


def test_is_qm_examples():
    assert is_qm(identity_code(2, 4)) is True
    assert is_qm(identity_code(3, 2)) is False  # 11 and 12 share support
    assert is_qm(simplex(3, 2)) is True


def test_qm_sufficient_conditions():
    # q = 2: threshold (q-2)/(q-1) = 0, every code with d >= 1 qualifies
    assert qm_sufficient_dn(identity_code(2, 3)) is True
    # simplex q=3,k=2: d=3, n=4, 3/4 > 1/2
    assert qm_sufficient_dn(simplex(3, 2)) is True
    # q=3 code with d=1, n=4: 1/4 > 1/2 fails (no guarantee)
    code = make_code(3, [[1, 0, 0, 0], [0, 1, 1, 1]])
    spec = weight_spectrum(code)
    assert spec.d == 1
    assert qm_sufficient_dn(code) is False


def test_qm_dn_implies_dD():
    # D <= N, so the d/N condition is the stricter one
    for code in [identity_code(2, 3), simplex(3, 2), make_code(3, [[1, 1, 0], [0, 1, 1]])]:
        if qm_sufficient_dn(code):
            assert qm_sufficient_dD(code)


# -- matrix file format -------------------------------------------------------

def test_matrix_roundtrip_plain():
    code = make_code(3, [[1, 0, 2], [0, 1, 1]])
    text = dumps_code(code)
    assert text.splitlines()[0] == "3 2 3"
    assert len(text.splitlines()) == 3  # multiplicity line omitted when all 1
    back = loads_code(text)
    assert back.generator == code.generator
    assert back.multiplicities == (1, 1, 1)


def test_matrix_roundtrip_with_multiplicities():
    code = make_code(2, STAIR_2, mult=(1, 2, 4))
    back = loads_code(dumps_code(code))
    assert back.multiplicities == (1, 2, 4)
    assert back.effective_length == 7


def test_matrix_parse_errors():
    with pytest.raises(ValueError):
        loads_code("2 2\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        loads_code("2 2 2\n1 0\n")


@pytest.mark.parametrize("make, message", [
    (lambda: make_code(3, [[1, 0], [1]]), "generator rows have unequal lengths"),
    (lambda: make_code(3, [[]]), "generator needs at least one column"),
    (lambda: make_code(3, [[1, 3]]), "generator entry outside [0, q)"),
    (lambda: make_code(3, [[1, -1]]), "generator entry outside [0, q)"),
    (lambda: loads_code("3 2 2\n1 0\n0 1 2\n"), "rows must have exactly n=2 entries"),
    (lambda: codeword(make_code(3, [[1, 0], [0, 1]]), (1,)), "message length differs from k"),
])
def test_malformed_codes_and_messages_are_refused(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_spectrum_report_shape():
    rep = spectrum_report(make_code(2, STAIR_2))
    assert rep["q"] == 2 and rep["k"] == 2 and rep["n"] == 3 and rep["N"] == 3
    assert rep["counts"] == {"1": 1, "2": 1, "3": 1}
    assert rep["is_mws"] is True and rep["is_qm"] is True
    assert rep["has_zero_column"] is False
    assert rep["field"]["modulus"] == [0, 1]
