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
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from mwscodes import (
    LinearCode,
    SearchConfig,
    build_field,
    dumps_code,
    estimate_expectation,
    gv_qm_search,
    projective_representatives,
    random_code,
    search,
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


def block_pass(fld, stack, supports):
    """The block pass over stack (k, B, n), whatever _pass would pick, and
    its blocks of plane words (codes._lift)."""
    tail, span, prefixes = codes._stack_layout(fld, stack)
    blocks = [tail] + [codes._add(fld, prefix, span) for prefix in prefixes]
    return codes._tally(fld, stack.shape, iter(blocks), supports), blocks


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_histograms_match_reference_per_candidate(q, monkeypatch):
    # a stack mixing QM and non-QM codes whose supports differ only beyond
    # column 64 (two key columns), and a rank-deficient one (bin 0); six
    # codes this short take the block pass, which compares support keys
    k, n = 3, 70
    points = (q**k - 1) // (q - 1)
    rng = np.random.default_rng(q)
    stack = np.zeros((6, k, n), dtype=np.int64)
    stack[:, :, 64:67] = np.eye(k, dtype=np.int64)
    stack[1:4, :, 67:] = rng.integers(0, q, size=(3, k, 3))
    stack[4, :, :40] = rng.integers(0, q, size=(k, 40))
    stack[5, 2] = stack[5, 0]
    fld = build_field(q)
    assert not codes._by_points(q, k, 6, n, supports=True)
    expected = [(reference.histogram(fld, gen.tolist()),
                 reference.distinct_supports(fld, gen.tolist())) for gen in stack]
    for rows in BLOCK_SIZES:
        monkeypatch.setattr(codes, "BLOCK_ROWS", rows)
        hist, qm = codes._pass(fld, stack.transpose(1, 0, 2), supports=True)
        assert [h.tolist() for h in hist] == [h for h, _ in expected]
        assert qm.tolist() == [d == points for _, d in expected]
        _, blocks = block_pass(fld, stack.transpose(1, 0, 2), supports=True)
        # a block holds (p - 1) m bit planes per word; their OR is its support
        planes = [words.reshape(*words.shape[:-1], (fld.p - 1) * fld.m, -1) for words in blocks]
        keys = np.concatenate([np.bitwise_or.reduce(w, axis=-2) for w in planes])
        assert codes._distinct_rows(keys).tolist() == [d for _, d in expected]
    # the point pass, whose QM test reads no supports, agrees
    hist_points, qm_points = codes._point_pass(fld, stack.transpose(1, 0, 2), supports=True)
    assert hist_points.tolist() == hist.tolist() and qm_points.tolist() == qm.tolist()
    assert hist[5, 0] > 0 and (hist[:5, 0] == 0).all()
    assert qm[:4].all() == (q == 2)


# -- point pass against block pass and reference -------------------------------

POINT_FIELDS = [3, 4, 5, 7, 8, 9, 16, 27]  # prime, 2^m and p^m


@st.composite
def stacks(draw):
    """(q, k, generators (B, k, n)) with zero columns, columns repeated up to
    a scalar and rank-deficient generators (a row repeated or zero).  k = 4
    comes only with q <= 4, for MWS histograms without supports."""
    q = draw(st.sampled_from(POINT_FIELDS))
    k = draw(st.sampled_from([2, 3, 4] if q <= 4 else [2, 3]))
    n = draw(st.integers(k, {2: min(q * (q + 1) // 2 + 2, 40), 3: 30 if q <= 4 else 14, 4: 10}[k]))
    count = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fld = build_field(q)
    gens = rng.integers(0, q, size=(count, k, n))
    for gen in gens:
        damage = rng.integers(4)  # none, zero columns, repeated columns, rank deficiency
        if damage == 1:
            gen[:, rng.random(n) < 0.3] = 0
        elif damage == 2:
            for _ in range(rng.integers(1, n + 1)):
                gen[:, rng.integers(n)] = fld.mul_array(gen[:, rng.integers(n)], rng.integers(1, q))
        elif damage == 3:
            gen[rng.integers(k)] = gen[rng.integers(k)] if rng.random() < 0.5 else 0
    return q, k, gens


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_point_pass_matches_block_pass_and_reference(case):
    q, k, gens = case
    fld = build_field(q)
    stack = gens.transpose(1, 0, 2)
    supports = k <= 3
    points = (q**k - 1) // (q - 1)
    hist, qm = codes._point_pass(fld, stack, supports)
    (block_hist, block_qm), _ = block_pass(fld, stack, supports)
    expected = [reference.histogram(fld, g.tolist()) for g in gens]
    assert hist.tolist() == block_hist.tolist() == expected
    if supports:
        expected = [reference.distinct_supports(fld, g.tolist()) == points for g in gens]
        assert qm.tolist() == block_qm.tolist() == expected
    else:
        assert qm is block_qm is None
    # the table and the normalised ids agree on the same columns
    assert (codes._point_table(fld, k)[codes._base_q(fld, stack)]
            == codes._normalised_ids(fld, stack)).all()


@pytest.mark.parametrize("q", [2, *POINT_FIELDS])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_point_ids_index_the_representatives(q, k):
    # every nonzero multiple of representative i has id i, and 0 has id P,
    # by the table (a stack of two codes, 2 q^k columns) and by normalising
    # (one code)
    fld = build_field(q)
    reps = np.array(projective_representatives(fld, k))
    multiples = fld.mul_array(np.arange(1, q)[:, None, None], reps).reshape(-1, k)
    columns = np.concatenate([multiples, np.zeros((1, k), dtype=np.int64)]).T
    expected = np.append(np.tile(np.arange(len(reps)), q - 1), len(reps)).tolist()
    assert codes._point_ids(fld, columns[:, None]).tolist() == [expected]
    assert codes._point_ids(fld, np.stack([columns, columns], axis=1)).tolist() == [expected] * 2


def test_point_pass_qm_on_point_sets():
    # the 6 points 0, 1, 2, 4, 5, 7 of PG(2, 3) form a QM [6, 3]_3 code and
    # none of their 5-point subsets does; all 13 points (the simplex code)
    # are QM, and the points of one line are not
    fld = build_field(3)
    reps = np.array(projective_representatives(fld, 3))
    sets = [[0, 1, 2, 4, 5, 7], *itertools.combinations([0, 1, 2, 4, 5, 7], 5), list(range(13)),
            [0, 1, 2, 3]]
    for chosen in sets:
        gen = reps[list(chosen)].T[None]
        _, qm = codes._point_pass(fld, gen.transpose(1, 0, 2), supports=True)
        assert bool(qm[0]) == (reference.distinct_supports(fld, gen[0].tolist()) == 13)
        assert bool(qm[0]) == (len(chosen) in (6, 13))


@pytest.mark.parametrize("q,k,count,n,supports,expected", [
    (3, 2, 1, 4, True, True),  # k = 2 over q > 2, single codes included
    (2187, 2, 1, 3, True, True),
    (2, 2, 1000, 21, False, False),  # binary: blocks
    (2, 5, 436, 30, False, False),
    (3, 3, 280, 19, False, False),  # k = 3 over GF(3): the bit-plane block pass
    (3, 3, 50, 56, True, False),
    (3, 3, 200, 24, False, False),
    (3, 3, 200, 24, True, False),
    (3, 3, 20, 12, False, False),
    (3, 3, 1, 2600, True, False),
    (3, 3, 64, 26, True, False),
    (3, 3, 280, 7, False, False),
    (4, 3, 200, 12, False, True),  # a search batch above 2 |H|
    (4, 3, 200, 12, True, True),
    (4, 3, 1, 2600, True, False),  # one code: the incidence costs more
    (4, 3, 100, 12, True, False),  # B P n < 2^15
    (4, 3, 280, 9, False, False),  # n < 2 |H|
    (3, 4, 16, 60, False, False),  # 32 P > B n
    # (3, 4) stacks keep the point pass past the threshold: blocks beat a
    # cold incidence at each of these shapes, but a cached one, as in a
    # search's later batches, beats blocks at nearly all of them
    *[(3, 4, count, n, False, (count, n) not in [(20, 26), (20, 40)])
      for n in (26, 40, 64, 65, 78, 128) for count in (20, 50, 200, 300)],
    (3, 4, 273, 60, False, True),
    (3, 4, 273, 60, True, False),  # supports past k = 3
    (3, 9, 1, 20, True, False),  # the verify workload's codes: |H| > n
    (4, 6, 1, 1365, True, False),
])
def test_dispatch_rule(q, k, count, n, supports, expected):
    assert codes._by_points(q, k, count, n, supports) is expected


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
