"""The vectorised trial generator, search._trial_draws, against trial_rng.

A trial's matrices are defined as the draws of trial_rng(seed, t) (_draws).
The kernel must give draw r of every trial, and draw through trial_rng
exactly the trials whose word stream had a rejected word up to that draw
or whose index needs two spawn words.  The rejection oracle reads the raw
64-bit outputs of trial_rng's bit generator and applies integers(0, q)'s
rejection rule.
"""

import importlib
import itertools

import numpy as np
import pytest

from mwscodes import (
    SearchConfig,
    codes,
    estimate_expectation,
    gv_qm_search,
    random_code,
    search,
    trial_rng,
)

search_mod = importlib.import_module("mwscodes.search")  # the package re-exports search()

QS = [2, 3, 4, 5, 7, 8, 9, 25, 27, 243, 256, 257, 2187]
# seeds of 1, 2, 3, 4, 5 and 7 32-bit words: SeedSequence's pool holds 4,
# and every word past the fourth takes 4 more hash constants
SEEDS = [0, 2**32, 2**64 + 3, 2**127 + 5, 3**90, 2**200 + 7]
# k = 1..4 with n up to 30, k n odd and even
SHAPES = [(1, 1), (1, 4), (1, 29), (2, 3), (2, 30), (3, 3), (3, 8), (3, 29), (4, 4), (4, 30)]
ROUNDS = range(4)


def reference_draw(seed, trial, r, q, k, n):
    return next(itertools.islice(search_mod._draws(q, k, n, trial_rng(seed, trial)), r, None))


def reference_rejected(seed, trial, r, q, k, n):
    """Whether integers(0, q) rejects any of the first (r + 1) k n words."""
    count = (r + 1) * k * n
    raw = trial_rng(seed, trial).bit_generator.random_raw((count + 1) // 2)
    words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1).ravel()[:count]
    return bool((words * q & 0xFFFFFFFF < 2**32 % q).any())


def record_trial_rngs(monkeypatch):
    """Patch search.trial_rng to log the trial of each call."""
    calls = []

    def recording(seed, trial):
        calls.append(trial)
        return trial_rng(seed, trial)

    monkeypatch.setattr(search_mod, "trial_rng", recording)
    return calls


def check_against_reference(seed, trials, q, monkeypatch):
    """The number of (shape, round, trial) cells drawn through trial_rng."""
    calls = record_trial_rngs(monkeypatch)
    for (k, n), r in itertools.product(SHAPES, ROUNDS):
        start = len(calls)
        gens = search_mod._trial_draws(seed, np.array(trials), r, q, k, n)
        assert gens.shape == (len(trials), k, n) and gens.dtype == np.int64
        assert calls[start:] == [t for t in trials
                                 if t >> 32 or reference_rejected(seed, t, r, q, k, n)]
        for j, t in enumerate(trials):
            assert np.array_equal(gens[j], reference_draw(seed, t, r, q, k, n))
    return len(calls)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("q", QS)
def test_kernel_matches_trial_rng(q, seed, monkeypatch):
    rng = np.random.default_rng(q)
    trials = [0, 1, 2**31 - 1, 2**32 - 1] + rng.integers(0, 2**32, 4).tolist()
    check_against_reference(seed, trials, q, monkeypatch)


@pytest.mark.parametrize("q", [3 * 2**30, 5 * 2**29 + 1, 2**31 + 1])
def test_kernel_flags_exactly_the_rejected_trials(q, monkeypatch):
    # integers(0, q) rejects a word with probability (2^32 mod q) / 2^32:
    # 1/4, 3/8 and nearly 1/2 here, so most trials meet one in some round
    flagged = check_against_reference(7, list(range(12)), q, monkeypatch)
    assert 0 < flagged < len(SHAPES) * len(ROUNDS) * 12


def test_kernel_flags_trials_past_two_to_the_32(monkeypatch):
    calls = record_trial_rngs(monkeypatch)
    trials = [2**32 - 1, 2**32, 2**32 + 5, 2**40]
    gens = search_mod._trial_draws(3, np.array(trials), 1, 4, 2, 5)
    assert calls == trials[1:]
    for j, t in enumerate(trials):
        assert np.array_equal(gens[j], reference_draw(3, t, 1, 4, 2, 5))


def test_kernel_refuses_a_negative_seed():
    # np.random.SeedSequence(seed) refuses it; this is numpy's message
    with pytest.raises(ValueError, match="expected non-negative integer"):
        search_mod._trial_draws(-5, np.arange(3), 0, 3, 2, 5)


def candidates(q, k, n, seed, lo, hi):
    return [(first, gens.tolist(), hist.tolist())
            for first, gens, hist, _ in search_mod._candidates(q, k, n, "random", seed, lo, hi, False)]


def reference_candidates(q, k, n, seed, lo, hi):
    return [list(map(list, random_code(q, k, n, trial_rng(seed, t)).generator))
            for t in range(lo, hi)]


def test_scan_draws_trials_past_two_to_the_32_through_trial_rng(monkeypatch):
    # square binary 3 x 3 draws are rank deficient 2 times in 3, so the
    # trials from 2^32 on also take their redraws through trial_rng
    lo, hi = 2**32 - 3, 2**32 + 3
    calls = record_trial_rngs(monkeypatch)
    gens = [g for _, batch, _ in candidates(2, 3, 3, 9, lo, hi) for g in batch]
    assert set(calls) == set(range(2**32, hi)) and len(calls) > hi - 2**32
    assert gens == reference_candidates(2, 3, 3, 9, lo, hi)


def test_random_mode_calls_trial_rng_only_for_flagged_trials(monkeypatch):
    # for q a power of 2 the kernel never meets a rejection, so no trial of
    # these runs goes through trial_rng
    def refuse(seed, trial):
        raise AssertionError(f"trial_rng({seed}, {trial}) called")

    monkeypatch.setattr(search_mod, "trial_rng", refuse)
    search(SearchConfig(q=4, k=2, n_lo=9, n_hi=9, trials=300, seed=1))
    search(SearchConfig(q=2, k=3, n_lo=3, n_hi=4, trials=300, seed=1))
    estimate_expectation(2, 2, 21, samples=300, seed=3)
    gv_qm_search(4, 2, trials=50, seed=0)


def batch_bound(q, k, n):
    """_candidates' batch size, most, at the current BLOCK_ROWS."""
    return max(1, min(search_mod._full_batch(q, k), codes.BLOCK_ROWS // (k * n)))


# (q, k, n): q with rejection (3, 5, 7) and without (2, 4, 8); square and
# near-square shapes whose rank-deficient draws take redraw rounds; output
# counts J = 1 (k n <= 2 in round 0 and in every redraw over q = 2), J not a
# power of two, and J = 1757 at n = 1757
BATCH_EDGE_SHAPES = [(2, 1, 1), (2, 3, 3), (3, 1, 2), (3, 2, 2), (4, 2, 3), (5, 2, 2),
                     (7, 2, 5), (8, 3, 3), (7, 2, 1757), (4, 1, 1757)]


@pytest.mark.parametrize("block_rows", [7, 40])
@pytest.mark.parametrize("q,k,n", BATCH_EDGE_SHAPES)
def test_scan_matches_reference_across_draw_ahead_edges(q, k, n, block_rows, monkeypatch):
    # each batch's first draws are taken ahead of its enumeration, and a
    # small block puts many batch edges inside the range: every batch but
    # the last holds exactly most candidates, and the scan must still give
    # trial_rng's codes
    monkeypatch.setattr(codes, "BLOCK_ROWS", block_rows)
    lo, hi = (3, 43) if n < 100 else (1, 13)
    most = batch_bound(q, k, n)
    batches = candidates(q, k, n, 11, lo, hi)
    assert [(first, len(batch)) for first, batch, _ in batches] == [
        (first, min(most, hi - first)) for first in range(lo, hi, most)]
    gens = [g for _, batch, _ in batches for g in batch]
    assert gens == reference_candidates(q, k, n, 11, lo, hi)


def record_calls(monkeypatch):
    """Patch _trial_draws and _histograms to log ("draw", r, trials) and
    ("hist", candidates) in call order."""
    calls = []
    real_draws, real_histograms = search_mod._trial_draws, search_mod._histograms

    def drawing(seed, trials, r, q, k, n):
        calls.append(("draw", r, len(trials)))
        return real_draws(seed, trials, r, q, k, n)

    def enumerating(fld, stack, supports):
        calls.append(("hist", stack.shape[1]))  # stack is (k, B, n)
        return real_histograms(fld, stack, supports)

    monkeypatch.setattr(search_mod, "_trial_draws", drawing)
    monkeypatch.setattr(search_mod, "_histograms", enumerating)
    return calls


@pytest.mark.parametrize("block_rows", [None, 40])
@pytest.mark.parametrize("q,k,n,gv", [(2, 3, 3, False), (2, 3, 40, False), (2, 2, 9000, False),
                                      (2, 4, 0, True), (2, 6, 0, True)])
def test_an_early_witness_draws_at_most_one_window(q, k, n, gv, block_rows, monkeypatch):
    # binary codes are QM, so trial 0 is the witness: its search draws and
    # enumerates one batch of most trials, then only redraw rounds of that
    # batch's rank-deficient trials, each drawn and enumerated once
    if block_rows is not None:
        monkeypatch.setattr(codes, "BLOCK_ROWS", block_rows)
    calls = record_calls(monkeypatch)
    if gv:
        report = gv_qm_search(q, k, trials=10**6, seed=2)
        n, trial = report["n"], report["witness_trial"]
    else:
        report = search(SearchConfig(q=q, k=k, n_lo=n, n_hi=n, target="qm", trials=10**6, seed=2))
        trial = report["lengths"][0]["witness_trial"]
    assert trial == 0
    draws = calls[::2]
    assert draws[0] == ("draw", 0, batch_bound(q, k, n))
    assert [r for _, r, _ in draws] == list(range(len(draws)))
    assert calls[1::2] == [("hist", size) for _, _, size in draws]


@pytest.mark.parametrize("block_rows", [None, 40])
def test_an_early_exhaustive_witness_enumerates_one_batch(block_rows, monkeypatch):
    # index 0 of [13,3]_2 is QM; [I | A] has full rank, so nothing is drawn
    # or redrawn
    if block_rows is not None:
        monkeypatch.setattr(codes, "BLOCK_ROWS", block_rows)
    calls = record_calls(monkeypatch)
    report = search(SearchConfig(q=2, k=3, n_lo=13, n_hi=13, target="qm", mode="exhaustive"))
    assert report["lengths"][0]["witness_index"] == 0
    assert calls == [("hist", batch_bound(2, 3, 13))]


@pytest.mark.parametrize("q,k,n", [(2, 3, 3), (2, 4, 4), (3, 2, 2)])
def test_each_batch_draws_once_per_round(q, k, n, monkeypatch):
    # square draws are often rank deficient, so batches take redraw rounds:
    # a scan of at most most trials calls _trial_draws once for each round
    # r = 0, 1, ..., R, and a longer scan does so once per batch, in order
    monkeypatch.setattr(codes, "BLOCK_ROWS", 40)
    most = batch_bound(q, k, n)
    calls = record_calls(monkeypatch)
    for hi in (1, most // 2, most, 5 * most + 3):
        calls.clear()
        estimate_expectation(q, k, n, samples=hi, seed=6)
        rounds = [r for kind, r, *_ in calls if kind == "draw"]
        starts = [i for i, r in enumerate(rounds) if r == 0]
        assert len(starts) == len(range(0, hi, most))
        for a, b in zip(starts, starts[1:] + [len(rounds)]):
            assert rounds[a:b] == list(range(b - a))
    assert max(rounds) > 0  # the redraw rounds ran


def test_long_codes_draw_and_count_at_most_one_bound_per_call(monkeypatch):
    # at the GV length 1757 of (7, 2) one block of BLOCK_ROWS entries holds
    # 18 trials' 2 x 1757 matrices, against 8192 candidates in a full batch:
    # no kernel call may draw, and no histogram pass count, more than 18
    calls = record_calls(monkeypatch)
    most = batch_bound(7, 2, 1757)
    assert most == 18
    estimate_expectation(7, 2, 1757, samples=3000, seed=3)
    assert max(call[-1] for call in calls) == most  # every full batch holds the bound
    calls.clear()
    report = search(SearchConfig(q=7, k=2, n_lo=1757, n_hi=1757, target="qm", trials=3000, seed=1))
    assert report["shortest_success"] == 1757
    assert 0 < max(call[-1] for call in calls) <= most
