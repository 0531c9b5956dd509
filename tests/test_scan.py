"""The batched candidate scan against a per-candidate reference loop.

The reference builds every candidate as a LinearCode (random_code, or
[I | A] written out entry by entry) and judges it with the slow predicates
of reference.py.  The scan must accept the same candidates, with the same
matrix text and minimum distance, and the Monte-Carlo chunk must return the
same exact sums, at the default block size and at block sizes that split
both the batches and the codes.  A GV search is a QM scan: the reference
accepts a GV candidate by the d/N condition or else by its supports, and
must accept the same candidates by the same path.
"""

import importlib
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from mwscodes import (
    LinearCode,
    SearchConfig,
    build_field,
    dumps_code,
    estimate_expectation,
    gv_qm_search,
    random_code,
    search,
    support,
    trial_rng,
)
from mwscodes import codes
from mwscodes.codes import gf_rank

search_mod = importlib.import_module("mwscodes.search")  # the package re-exports search()

BLOCK_SIZES = [codes.BLOCK_ROWS, 10, 3]

# (q, k, n): square binary draws are often rank deficient, and so are 1 in
# 8 ternary 2 x 3 draws, so the replay of a trial's later draws runs.  The
# others sit just above the shortest MWS length or below q + 1, where QM and
# the d/N condition decide differently from candidate to candidate, so
# accepted and rejected candidates mix.
SHAPES = [(2, 3, 3), (2, 4, 4), (3, 2, 3), (2, 2, 4), (2, 3, 8), (3, 2, 4), (3, 2, 7), (3, 3, 6),
          (4, 2, 5), (4, 2, 11), (5, 2, 8), (5, 2, 17), (7, 2, 9), (7, 2, 28), (8, 2, 6),
          (9, 2, 10)]


def window(q, k, n, mode):
    """70 candidates: random trials 3..72, or systematic generators from
    0.618 of the way into the space (capped at the search's space guard),
    past the low indices whose A is mostly zero."""
    if mode == "random":
        return 3, 73
    space = q ** (k * (n - k))
    lo = int(min(space, search_mod.DEFAULT_SPACE_GUARD) * 0.618) if space > 70 else 0
    return lo, min(lo + 70, space)


def systematic(q, k, n, index):
    rows = [[int(i == j) for j in range(k)]
            + [index // q ** (i * (n - k) + j) % q for j in range(n - k)] for i in range(k)]
    return LinearCode(build_field(q), tuple(map(tuple, rows)))


def reference_accepts(target, code):
    if target == "mws":
        return reference.is_mws(code)
    if target == "qm":
        return reference.is_qm(code)
    q = code.q
    if min(reference.spectrum(code)) * (q - 1) > (q - 2) * code.n:
        return "sufficient_dn"
    return "support_check" if reference.is_qm(code) else None


def reference_hits(q, k, n, mode, seed, target, lo, hi):
    """Every accepted candidate of lo..hi-1 as (index, matrix text, minimum
    distance, acceptance)."""
    hits = []
    for i in range(lo, hi):
        code = random_code(q, k, n, trial_rng(seed, i)) if mode == "random" \
            else systematic(q, k, n, i)
        accepted = reference_accepts(target, code)
        if accepted:
            hits.append((i, dumps_code(code), min(reference.spectrum(code)), accepted))
    return hits


def scan_hits(q, k, n, mode, seed, target, lo, hi):
    """The same list from repeated scans, each starting after the last hit;
    "gv" scans for QM and reads the path off the distance, as gv_qm_search."""
    hits = []
    scanned = "qm" if target == "gv" else target
    while (hit := search_mod._scan_chunk((q, k, n, mode, seed, scanned, lo, hi))) is not None:
        index, text, distance = hit
        accepted = True if target != "gv" else \
            "sufficient_dn" if distance * (q - 1) > (q - 2) * n else "support_check"
        hits.append((index, text, distance, accepted))
        lo = index + 1
    return hits


def reference_expectation(q, k, n, seed, start, stop):
    total = total_sq = hits = 0
    for t in range(start, stop):
        spec = reference.spectrum(random_code(q, k, n, trial_rng(seed, t)))
        s = sum(a * (a - (q - 1)) for a in spec.values())
        total, total_sq = total + s, total_sq + s * s
        hits += len(spec) == (q**k - 1) // (q - 1)
    return total, total_sq, hits


@pytest.mark.parametrize("target", ["mws", "qm", "gv"])
@pytest.mark.parametrize("mode", ["random", "exhaustive"])
@pytest.mark.parametrize("q,k,n", SHAPES)
def test_scan_matches_reference_loop(q, k, n, mode, target, monkeypatch):
    lo, hi = window(q, k, n, mode)
    expected = reference_hits(q, k, n, mode, 5, target, lo, hi)
    for rows in BLOCK_SIZES:
        monkeypatch.setattr(codes, "BLOCK_ROWS", rows)
        assert scan_hits(q, k, n, mode, 5, target, lo, hi) == expected


@pytest.mark.parametrize("q,k,n", SHAPES)
def test_expectation_chunk_matches_reference_loop(q, k, n, monkeypatch):
    expected = reference_expectation(q, k, n, 8, 2, 60)
    for rows in BLOCK_SIZES:
        monkeypatch.setattr(codes, "BLOCK_ROWS", rows)
        assert search_mod._expectation_chunk((q, k, n, 8, 2, 60)) == expected


def test_square_binary_draws_are_replayed():
    # the scan tests above replay the draws of these trials: 2/3 of the
    # first draws of a square binary 3 x 3 matrix are rank deficient
    first = [next(search_mod._draws(2, 3, 3, trial_rng(5, i))) for i in range(3, 70)]
    assert sum(gf_rank(build_field(2), m.tolist()) < 3 for m in first) > 20


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_histograms_match_reference_per_candidate(q, monkeypatch):
    # a stack mixing QM and non-QM codes whose supports differ only beyond
    # column 64 (two key columns), and a rank-deficient one (bin 0)
    k, n = 3, 70
    rng = np.random.default_rng(q)
    stack = np.zeros((6, k, n), dtype=np.int64)
    stack[:, :, 64:67] = np.eye(k, dtype=np.int64)
    stack[1:4, :, 67:] = rng.integers(0, q, size=(3, k, 3))
    stack[4, :, :40] = rng.integers(0, q, size=(k, 40))
    stack[5, 2] = stack[5, 0]
    fld = build_field(q)
    for rows in BLOCK_SIZES:
        monkeypatch.setattr(codes, "BLOCK_ROWS", rows)
        hist, distinct = codes._histograms(fld, stack.transpose(1, 0, 2), supports=True)
        for gen, h, d in zip(stack, hist, distinct):
            # reference.words needs only these attributes, and a LinearCode
            # would refuse the rank-deficient generator
            code = SimpleNamespace(field=fld, q=q, k=k, n=n, generator=tuple(map(tuple, gen.tolist())))
            words = reference.words(code)
            weights = [sum(map(bool, w)) for w in words]
            assert h.tolist() == np.bincount(weights, minlength=n + 1).tolist()
            assert d == len({support(w) for w in words})
    assert hist[5, 0] > 0 and (hist[:5, 0] == 0).all()
    assert (distinct[:4] == (q**k - 1) // (q - 1)).all() == (q == 2)


# -- work done ----------------------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """The LinearCodes constructed, counted through LinearCode.__post_init__."""
    codes_built = []
    real = LinearCode.__post_init__

    def counted(self):
        real(self)
        codes_built.append(self)

    monkeypatch.setattr(LinearCode, "__post_init__", counted)
    return codes_built


def test_scan_without_witness_builds_no_code(built):
    # n = 9 is below the MWS lower bound 10 for (4, 2): no witness exists
    report = search(SearchConfig(q=4, k=2, n_lo=9, n_hi=9, trials=300, seed=1))
    assert report["lengths"][0]["found"] is False
    report = search(SearchConfig(q=4, k=2, n_lo=5, n_hi=5, mode="exhaustive"))
    assert report["lengths"][0]["found"] is False
    estimate_expectation(2, 2, 21, samples=200, seed=3)
    assert built == []


def test_scan_with_witness_builds_only_its_recheck(built):
    # the scan writes the witness's text itself; only the re-verification
    # reads it back into a LinearCode
    report = search(SearchConfig(q=3, k=2, n_lo=6, n_hi=6, mode="exhaustive"))
    witness = report["lengths"][0]["witness"]["matrix"]
    assert [dumps_code(code) for code in built] == [witness]
    built.clear()
    report = gv_qm_search(3, 2, trials=50, seed=0)
    assert [dumps_code(code) for code in built] == [report["witness"]["matrix"]]
