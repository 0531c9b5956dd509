"""Search machinery: determinism, exhaustive verdicts, Monte-Carlo estimates."""

import importlib
import re

import numpy as np
import pytest

from mwscodes import (
    SearchConfig,
    SearchSpaceTooLargeError,
    estimate_expectation,
    gv_qm_search,
    is_mws,
    is_qm,
    loads_code,
    random_code,
    search,
    trial_rng,
)
from mwscodes import codes
from mwscodes.cli import main
from mwscodes.codes import gf_rank
from mwscodes.gf import build_field


# -- random_code --------------------------------------------------------------

def test_random_code_full_rank_square():
    for t in range(50):
        code = random_code(2, 3, 3, trial_rng(11, t))
        assert gf_rank(code.field, [list(r) for r in code.generator]) == 3


def test_random_code_ranks_each_draw_once(monkeypatch):
    from mwscodes import codes

    ranks = []
    real_rank = codes.gf_rank
    monkeypatch.setattr(codes, "gf_rank", lambda f, rows: ranks.append(1) or real_rank(f, rows))

    class CountingRng:
        def __init__(self, rng):
            self.rng, self.draws = rng, 0

        def integers(self, *args, **kwargs):
            self.draws += 1
            return self.rng.integers(*args, **kwargs)

    total = 0
    for t in range(40):  # square binary draws are often rank-deficient
        rng = CountingRng(trial_rng(11, t))
        random_code(2, 3, 3, rng)
        total += rng.draws
    assert total > 40 and len(ranks) == total


def test_random_code_with_no_rows_raises():
    with pytest.raises(ValueError, match="at least one row"):
        random_code(2, 0, 3, trial_rng(0, 0))


def test_random_code_deterministic():
    a = random_code(3, 2, 6, trial_rng(42, 5))
    b = random_code(3, 2, 6, trial_rng(42, 5))
    assert a.generator == b.generator
    c = random_code(3, 2, 6, trial_rng(42, 6))
    assert c.generator != a.generator


def test_random_code_entry_marginals():
    # Conditioning on full rank biases entries away from zero.  Exact oracle
    # at (q=2, k=2, n=4): 210 of 256 matrices have rank 2, carrying 896 ones
    # out of 210*8 entries, so each entry is 1 with probability 8/15.
    counts = np.zeros((2, 4))
    samples = 10_000
    for t in range(samples):
        code = random_code(2, 2, 4, trial_rng(7, t))
        counts += code.array
    freq = counts / samples
    assert np.all(np.abs(freq - 8 / 15) < 0.02)


def test_random_code_entry_marginals_long():
    # At n much larger than k the rank filter rejects almost nothing and the
    # marginals sit at 1/2.
    counts = np.zeros((2, 12))
    samples = 10_000
    for t in range(samples):
        code = random_code(2, 2, 12, trial_rng(7, t))
        counts += code.array
    freq = counts / samples
    assert np.all(np.abs(freq - 0.5) < 0.02)


def test_random_code_needs_n_ge_k():
    with pytest.raises(ValueError):
        random_code(2, 3, 2, trial_rng(0, 0))


# -- search -------------------------------------------------------------------

@pytest.mark.parametrize("overrides, message", [
    ({"n_lo": 6, "n_hi": 5}, "n_lo must be <= n_hi"),
    ({"target": "gv"}, "unknown target 'gv'"),
    ({"mode": "pruned"}, "unknown mode 'pruned'"),
    ({"trials": 0}, "trials must be >= 1"),
    ({"trials": -2}, "trials must be >= 1"),
])
def test_search_config_refuses_bad_parameters(overrides, message):
    with pytest.raises(ValueError) as exc:
        SearchConfig(**{"q": 3, "k": 2, "n_lo": 5, "n_hi": 6, **overrides})
    assert str(exc.value) == message


def test_exhaustive_binary_k2():
    config = SearchConfig(q=2, k=2, n_lo=2, n_hi=3, target="mws", mode="exhaustive")
    report = search(config)
    by_n = {e["n"]: e for e in report["lengths"]}
    assert by_n[2]["found"] is False and by_n[2]["definitive"] is True
    assert by_n[3]["found"] is True
    assert report["shortest_success"] == 3
    witness = loads_code(by_n[3]["witness"]["matrix"])
    assert is_mws(witness)


def test_exhaustive_ternary_k2():
    config = SearchConfig(q=3, k=2, n_lo=5, n_hi=6, target="mws", mode="exhaustive")
    report = search(config)
    by_n = {e["n"]: e for e in report["lengths"]}
    assert by_n[5]["found"] is False
    assert by_n[6]["found"] is True
    assert report["shortest_success"] == 6


def test_exhaustive_guard():
    # 4^(2*18) = 2^72 systematic generators, far above DEFAULT_SPACE_GUARD
    config = SearchConfig(q=4, k=2, n_lo=20, n_hi=20, target="mws", mode="exhaustive")
    with pytest.raises(SearchSpaceTooLargeError):
        search(config)


def test_exhaustive_guard_is_checked_at_n_hi_before_any_length(monkeypatch):
    # n = 5 alone would pass; the range is refused for n_hi = 40 unscanned
    monkeypatch.setattr(importlib.import_module("mwscodes.search"), "_scan_chunk",
                        lambda args: pytest.fail("scanned"))
    config = SearchConfig(q=3, k=2, n_lo=5, n_hi=40, mode="exhaustive")
    with pytest.raises(SearchSpaceTooLargeError, match=re.escape("3**76 exceeds")):
        search(config)


def test_random_search_finds_q4_witness_at_lower_bound():
    config = SearchConfig(
        q=4, k=2, n_lo=10, n_hi=10, target="mws", mode="random", trials=100_000, seed=1
    )
    report = search(config)
    entry = report["lengths"][0]
    assert entry["found"] is True
    witness = loads_code(entry["witness"]["matrix"])
    assert is_mws(witness)


def test_random_matches_exhaustive_negative_verdicts():
    # where exhaustive says none exists, random search must come up empty
    for q, n in [(2, 2), (3, 5)]:
        exh = search(SearchConfig(q=q, k=2, n_lo=n, n_hi=n, target="mws", mode="exhaustive"))
        assert exh["lengths"][0]["found"] is False
        rnd = search(
            SearchConfig(q=q, k=2, n_lo=n, n_hi=n, target="mws", mode="random",
                         trials=2_000, seed=3)
        )
        assert rnd["lengths"][0]["found"] is False


def _strip_clock(report):
    return {k: v for k, v in report.items() if k != "wall_clock_seconds"}


def test_search_worker_count_invariance():
    # random mode with trials=2_000, and exhaustive mode, whose witness
    # (index 361 of 3^8) lies in the first of several chunks
    for mode in ("random", "exhaustive"):
        base = None
        for workers in (1, 2, 3):
            config = SearchConfig(
                q=3, k=2, n_lo=6, n_hi=6, target="mws", mode=mode,
                trials=2_000, seed=9, workers=workers,
            )
            report = _strip_clock(search(config))
            if base is None:
                base = report
            else:
                assert report == base
        assert base["lengths"][0]["found"] is True


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that runs each mapped task in this
    process only when its result is asked for, and records which tasks ran
    and which were cancelled by shutdown(cancel_futures=True)."""

    last = None

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.pending, self.ran, self.cancelled = [], [], []
        RecordingPool.last = self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def map(self, fn, tasks):
        self.pending = list(tasks)
        while self.pending:
            task = self.pending.pop(0)
            self.ran.append(task[-2:])
            yield fn(task)

    def shutdown(self, wait=True, cancel_futures=False):
        if cancel_futures:
            self.cancelled += [task[-2:] for task in self.pending]
            self.pending.clear()


def test_search_cancels_chunks_after_the_witness(monkeypatch, block_rows):
    block_rows(4)  # a full batch of [n,2]_3 candidates is one candidate
    search_mod = importlib.import_module("mwscodes.search")
    config = dict(q=3, k=2, n_lo=6, n_hi=6, target="mws", mode="exhaustive")
    serial = _strip_clock(search(SearchConfig(**config)))
    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", RecordingPool)
    report = _strip_clock(search(SearchConfig(**config, workers=2)))
    assert report == serial
    pool = RecordingPool.last
    # 3^8 = 6561 candidates in 8 chunks of 821; the witness, index 361, is
    # in the first, so the other seven are cancelled without running
    assert pool.ran == [(0, 821)]
    assert len(pool.cancelled) == 7 and pool.cancelled[-1] == (5747, 6561)


def test_pool_starts_no_more_processes_than_chunks(monkeypatch, block_rows):
    # 3 trials on 8 workers make 3 one-trial chunks, so 3 processes suffice
    block_rows(4)
    search_mod = importlib.import_module("mwscodes.search")
    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", RecordingPool)
    search(SearchConfig(q=3, k=2, n_lo=5, n_hi=5, trials=3, seed=1, workers=8))
    pool = RecordingPool.last
    assert pool.ran == [(0, 1), (1, 2), (2, 3)]
    assert pool.max_workers == 3


def _full_batch(q, k):
    return max(1, codes.BLOCK_ROWS // ((q**k - 1) // (q - 1)))


def _chunk(args):
    return args[-2:]


def test_a_range_of_one_full_batch_starts_no_pool(monkeypatch):
    search_mod = importlib.import_module("mwscodes.search")

    def no_pool(workers):
        raise AssertionError("a pool started")

    monkeypatch.setattr(search_mod, "_process_pool", no_pool)
    for q, k in [(3, 2), (2, 3), (257, 2), (2, 20)]:
        block = _full_batch(q, k)
        for total in sorted({1, max(1, block // 2), block}):
            for workers in (1, 2, 3, 8, 64):
                assert search_mod._run_chunks(_chunk, (q, k), total, workers) == [(0, total)]
    # the drivers pass their q and k: every space here is under one batch
    search(SearchConfig(q=3, k=2, n_lo=5, n_hi=6, mode="exhaustive", workers=4))
    search(SearchConfig(q=3, k=2, n_lo=6, n_hi=6, trials=3_000, seed=9, workers=2))
    estimate_expectation(2, 2, 10, samples=2_000, seed=5, workers=3)


@pytest.mark.parametrize("q,k", [(3, 2), (2, 3), (257, 2), (2, 20)])
@pytest.mark.parametrize("workers", [2, 3, 8])
def test_a_range_over_one_full_batch_fans_out_in_full_batches(monkeypatch, q, k, workers):
    search_mod = importlib.import_module("mwscodes.search")
    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", RecordingPool)
    block = _full_batch(q, k)
    for total in (block + 1, 3 * block, 40 * block + 7):
        RecordingPool.last = None
        chunks = search_mod._run_chunks(_chunk, (q, k), total, workers)
        pool = RecordingPool.last
        assert chunks == pool.ran and 1 < len(chunks) <= 4 * workers
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == total
        assert all(hi - lo >= block for lo, hi in chunks[:-1])
        assert pool.max_workers == min(workers, len(chunks))


WALL_CLOCK = re.compile(r'^\s*"wall_clock_seconds":.*$', re.MULTILINE)


@pytest.mark.parametrize("argv", [
    ["search", "--q", "3", "--k", "2", "--n", "5..6", "--trials", "600", "--seed", "9"],
    ["search", "--q", "3", "--k", "2", "--n", "5..6", "--mode", "exhaustive"],
    ["montecarlo", "--q", "2", "--k", "2", "--n", "10", "--samples", "600", "--seed", "5"],
])
def test_real_pool_payloads_match_one_worker(capsys, monkeypatch, block_rows, argv):
    # 16-word blocks make a full batch 4 or 5 candidates, so these spaces
    # fan out to a real pool; its forked workers inherit the setting
    block_rows(16)
    search_mod = importlib.import_module("mwscodes.search")
    real_pool, pools = search_mod._process_pool, []
    monkeypatch.setattr(search_mod, "_process_pool",
                        lambda workers: pools.append(workers) or real_pool(workers))
    outputs = []
    for workers in ("1", "2"):
        assert main(argv + ["--workers", workers]) == 0
        outputs.append(WALL_CLOCK.sub("", capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert pools and set(pools) == {2}


def test_serial_runs_call_the_worker_once_per_range(monkeypatch):
    # one worker scans each length, and draws all samples, in a single task
    search_mod = importlib.import_module("mwscodes.search")
    tasks = []
    for name in ("_scan_chunk", "_expectation_chunk"):
        def recording(args, real=getattr(search_mod, name)):
            tasks.append(args[-2:])
            return real(args)

        monkeypatch.setattr(search_mod, name, recording)
    search(SearchConfig(q=2, k=3, n_lo=6, n_hi=7, mode="exhaustive"))
    estimate_expectation(2, 2, 5, samples=300, seed=1)
    assert tasks == [(0, 2**9), (0, 2**12), (0, 300)]


def test_search_skips_lengths_below_k():
    report = search(SearchConfig(q=2, k=3, n_lo=2, n_hi=3, mode="exhaustive"))
    assert report["lengths"][0]["skipped"] == "n < k"


# -- gv_qm_search -------------------------------------------------------------

def test_gv_qm_search_binary():
    report = gv_qm_search(2, 4, trials=50, seed=0)
    assert report["n"] == 4  # lambda_2 = 1
    assert report["found"] is True
    assert report["acceptance_path"] == "sufficient_dn"
    assert is_qm(loads_code(report["witness"]["matrix"]))


def test_gv_qm_search_ternary():
    report = gv_qm_search(3, 2, trials=200, seed=0)
    assert report["n"] == 38
    assert report["found"] is True
    assert is_qm(loads_code(report["witness"]["matrix"]))


def test_gv_qm_search_raises_when_witness_fails_recheck(monkeypatch):
    # at q = 2 the d/n condition accepts first, so only the final re-check
    # calls is_qm; the raise must not depend on assert statements (python -O)
    search_mod = importlib.import_module("mwscodes.search")  # the package re-exports search()
    monkeypatch.setattr(search_mod, "is_qm", lambda code: False)
    with pytest.raises(AssertionError, match="re-verification"):
        gv_qm_search(2, 4, trials=50, seed=0)


# -- estimate_expectation -----------------------------------------------------

def test_estimate_small_case():
    est = estimate_expectation(2, 2, 3, samples=2_000, seed=5)
    assert est.mws_fraction > 0  # witnesses exist at n = 3
    assert est.mean >= 0
    assert est.mean <= est.bound + 4 * est.stderr


def test_estimate_respects_bound_at_threshold():
    est = estimate_expectation(2, 2, 21, samples=2_000, seed=5)
    assert est.bound == pytest.approx(1.958, abs=1e-3)
    assert est.mean <= est.bound + 4 * est.stderr
    assert est.mws_fraction > 0


def test_estimate_worker_invariance():
    a = estimate_expectation(2, 2, 8, samples=1_000, seed=2, workers=1)
    for workers in (2, 3):
        b = estimate_expectation(2, 2, 8, samples=1_000, seed=2, workers=workers)
        assert a.to_dict().keys() == b.to_dict().keys()
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_clock_seconds"), db.pop("wall_clock_seconds")
        assert da == db
