"""The vectorised trial generator, search._trial_draws, against trial_rng.

A trial's matrices are defined as the draws of trial_rng(seed, t) (_draws).
The kernel must give draw r of every trial it does not flag, flag exactly
the trials whose word stream had a rejected word up to that draw or whose
index needs two spawn words, and the scans must draw the flagged trials
through trial_rng.  The rejection oracle reads the raw 64-bit outputs of
trial_rng's bit generator and applies integers(0, q)'s rejection rule.
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


def check_against_reference(seed, trials, q):
    """The number of (shape, round, trial) cells the kernel flagged."""
    flagged = 0
    for (k, n), r in itertools.product(SHAPES, ROUNDS):
        gens, slow = search_mod._trial_draws(seed, np.array(trials), r, q, k, n)
        assert gens.shape == (len(trials), k, n) and gens.dtype == np.int64
        for j, t in enumerate(trials):
            assert slow[j] == reference_rejected(seed, t, r, q, k, n)
            if not slow[j]:
                assert np.array_equal(gens[j], reference_draw(seed, t, r, q, k, n))
        flagged += int(slow.sum())
    return flagged


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("q", QS)
def test_kernel_matches_trial_rng(q, seed):
    rng = np.random.default_rng(q)
    trials = [0, 1, 2**31 - 1, 2**32 - 1] + rng.integers(0, 2**32, 4).tolist()
    check_against_reference(seed, trials, q)


@pytest.mark.parametrize("q", [3 * 2**30, 5 * 2**29 + 1, 2**31 + 1])
def test_kernel_flags_exactly_the_rejected_trials(q):
    # integers(0, q) rejects a word with probability (2^32 mod q) / 2^32:
    # 1/4, 3/8 and nearly 1/2 here, so most trials meet one in some round
    flagged = check_against_reference(7, list(range(12)), q)
    assert 0 < flagged < len(SHAPES) * len(ROUNDS) * 12


def test_kernel_flags_trials_past_two_to_the_32():
    trials = np.array([2**32 - 1, 2**32, 2**32 + 5, 2**40])
    gens, slow = search_mod._trial_draws(3, trials, 1, 4, 2, 5)
    assert slow.tolist() == [False, True, True, True]
    assert np.array_equal(gens[0], reference_draw(3, 2**32 - 1, 1, 4, 2, 5))


def test_kernel_slices_below_the_block_size(monkeypatch):
    trials = np.arange(40)
    expected = search_mod._trial_draws(5, trials, 2, 3, 3, 7)
    monkeypatch.setattr(codes, "BLOCK_ROWS", 1)  # one trial per slice
    gens, slow = search_mod._trial_draws(5, trials, 2, 3, 3, 7)
    assert np.array_equal(gens, expected[0]) and np.array_equal(slow, expected[1])


def test_kernel_refuses_a_negative_seed():
    # splitting a negative int into 32-bit words would never end
    with pytest.raises(ValueError, match="expected non-negative integer"):
        search_mod._trial_draws(-5, np.arange(3), 0, 3, 2, 5)


def candidates(q, k, n, seed, lo, hi):
    return [(first, gens.tolist(), hist.tolist())
            for first, gens, hist, _ in search_mod._candidates(q, k, n, "random", seed, lo, hi, False)]


def reference_candidates(q, k, n, seed, lo, hi):
    return [list(map(list, random_code(q, k, n, trial_rng(seed, t)).generator))
            for t in range(lo, hi)]


@pytest.mark.parametrize("q,k,n", [(2, 3, 3), (3, 2, 3), (5, 2, 4)])
def test_scan_draws_flagged_trials_through_trial_rng(q, k, n, monkeypatch):
    # a rejection is too rare to meet by chance, so the mask is forced: every
    # other trial comes back flagged with a nonsense matrix, in the first
    # draws and in the redraws of rank-deficient ones (square binary 3 x 3
    # draws are rank deficient 2 times in 3)
    expected = candidates(q, k, n, 4, 0, 40)
    real = search_mod._trial_draws

    def flagging(seed, trials, r, q, k, n):
        gens, slow = real(seed, trials, r, q, k, n)
        slow[::2] = True
        gens[slow] = -1
        return gens, slow

    monkeypatch.setattr(search_mod, "_trial_draws", flagging)
    assert candidates(q, k, n, 4, 0, 40) == expected
    gens = [g for _, batch, _ in expected for g in batch]
    assert gens == reference_candidates(q, k, n, 4, 0, 40)


def test_scan_draws_trials_past_two_to_the_32_through_trial_rng():
    lo, hi = 2**32 - 3, 2**32 + 3
    gens = [g for _, batch, _ in candidates(2, 3, 3, 9, lo, hi) for g in batch]
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
