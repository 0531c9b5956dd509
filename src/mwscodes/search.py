"""Randomized and exhaustive searches for QM / MWS codes.

Determinism contract: every trial derives its RNG purely from (seed, trial
index), and witness selection always picks the smallest successful index.
Reports are therefore byte-identical for any worker count and any chunking
of the trial space.

Exhaustive mode enumerates systematic generators [I | A] only.  Every
full-rank code is permutation-equivalent to a systematic one and coordinate
permutations preserve weight spectra, so a "none exists" verdict at a length
is definitive while the space shrinks from q^{kn} to q^{k(n-k)}.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import eqbound_value, lambda_q
from .codes import (
    LinearCode,
    RankDeficientError,
    is_mws,
    is_qm,
    qm_sufficient_dn,
    weight_spectrum,
)
from .gf import build_field
from .matrixio import dumps_code, loads_code

DEFAULT_SPACE_GUARD = 2**30


def __getattr__(name: str):
    # ProcessPoolExecutor is imported on first use (PEP 562): it loads
    # multiprocessing, which only runs with workers > 1 need.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _process_pool(workers: int):
    """A pool of `workers` processes.  The class is read as this module's
    attribute, so a ProcessPoolExecutor set on the module replaces it."""
    return sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)


class SearchSpaceTooLargeError(RuntimeError):
    """Raised when exhaustive enumeration would exceed the space guard."""


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run."""

    q: int
    k: int
    n_lo: int
    n_hi: int
    target: str = "mws"  # "mws" or "qm"
    mode: str = "random"  # "random" or "exhaustive"
    trials: int = 10_000
    seed: int = 0
    workers: int = 1
    space_guard: int = DEFAULT_SPACE_GUARD

    def __post_init__(self):
        if self.n_lo > self.n_hi:
            raise ValueError("n_lo must be <= n_hi")
        if self.target not in ("mws", "qm"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.mode not in ("random", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.trials < 1:
            raise ValueError("random mode needs trials >= 1")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """RNG for one trial, a pure function of (seed, trial index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(ss))


def random_code(q: int, k: int, n: int, rng: np.random.Generator) -> LinearCode:
    """A uniformly random full-rank k x n generator matrix over GF(q).

    Entries are i.i.d. uniform; rank-deficient draws are rejected, which
    leaves the uniform distribution on full-rank matrices.  Zero columns are
    allowed (the uniform model includes them).  LinearCode's own rank check
    is the only one made per draw.
    """
    if n < k:
        raise ValueError("need n >= k for a full-rank k x n matrix")
    fld = build_field(q)
    while True:
        mat = rng.integers(0, q, size=(k, n))
        try:
            return LinearCode(field=fld, generator=tuple(map(tuple, mat.tolist())))
        except RankDeficientError:
            continue


def _target_predicate(target: str):
    return is_mws if target == "mws" else is_qm


def _random_chunk(args) -> tuple[int | None, str | None, int]:
    """Run trials [start, stop); return (witness trial index, matrix text,
    trials examined in this chunk)."""
    q, k, n, seed, start, stop, target = args
    check = _target_predicate(target)
    for t in range(start, stop):
        code = random_code(q, k, n, trial_rng(seed, t))
        if check(code):
            return t, dumps_code(code), t - start + 1
    return None, None, stop - start


def _systematic_code(fld, k: int, n: int, index: int) -> LinearCode:
    """The index-th systematic generator [I | A], A in row-major base-q digits."""
    q = fld.q
    rows = []
    for i in range(k):
        row = [1 if j == i else 0 for j in range(k)]
        for j in range(n - k):
            row.append((index // q ** (i * (n - k) + j)) % q)
        rows.append(tuple(row))
    return LinearCode(field=fld, generator=tuple(rows))


def _exhaustive_chunk(args) -> tuple[int | None, str | None, int]:
    q, k, n, start, stop, target = args
    fld = build_field(q)
    check = _target_predicate(target)
    for idx in range(start, stop):
        code = _systematic_code(fld, k, n, idx)
        if check(code):
            return idx, dumps_code(code), idx - start + 1
    return None, None, stop - start


def _run_chunks(worker, tasks, workers: int):
    """Evaluate chunk tasks, optionally in a process pool.

    Results are merged by chunk order; chunks strictly after the first
    witness are skipped (they can only hold larger indices), which keeps the
    outcome identical to a fully sequential scan.
    """
    if workers <= 1 or len(tasks) <= 1:
        results = []
        for task in tasks:
            res = worker(task)
            results.append(res)
            if res[0] is not None:
                break
        return results
    with _process_pool(workers) as pool:
        return list(pool.map(worker, tasks))


def _chunk_ranges(total: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]


def search(config: SearchConfig) -> dict:
    """Search each length in [n_lo, n_hi] for a code with the target property.

    Random mode tests config.trials random codes per length; exhaustive mode
    scans every systematic generator, so its negative verdicts are
    definitive.  Witnesses are re-verified from their serialized form before
    being reported.
    """
    t0 = time.monotonic()
    lengths = []
    shortest = None
    for n in range(config.n_lo, config.n_hi + 1):
        if n < config.k:
            lengths.append({"n": n, "skipped": "n < k", "found": False})
            continue
        if config.mode == "exhaustive":
            entry = _search_exhaustive_length(config, n)
        else:
            entry = _search_random_length(config, n)
        lengths.append(entry)
        if entry["found"] and shortest is None:
            shortest = n
    return {
        "q": config.q,
        "k": config.k,
        "target": config.target,
        "mode": config.mode,
        "trials": config.trials if config.mode == "random" else None,
        "seed": config.seed if config.mode == "random" else None,
        "lengths": lengths,
        "shortest_success": shortest,
        "wall_clock_seconds": time.monotonic() - t0,
    }


def _witness_entry(matrix_text: str, target: str) -> dict:
    code = loads_code(matrix_text)
    check = _target_predicate(target)
    if not check(code):
        raise AssertionError("witness failed re-verification from serialized form")
    return {
        "matrix": matrix_text,
        "has_zero_column": code.has_zero_column(),
    }


def _search_random_length(config: SearchConfig, n: int) -> dict:
    chunk = max(1, math.ceil(config.trials / max(config.workers, 1) / 4))
    tasks = [
        (config.q, config.k, n, config.seed, lo, hi, config.target)
        for lo, hi in _chunk_ranges(config.trials, chunk)
    ]
    results = _run_chunks(_random_chunk, tasks, config.workers)
    hits = [r[0] for r in results if r[0] is not None]
    if hits:
        best = min(hits)
        text = next(r[1] for r in results if r[0] == best)
        witness = _witness_entry(text, config.target)
        return {
            "n": n,
            "found": True,
            "witness": witness,
            "witness_trial": best,
            "candidates_examined": best + 1,
            "definitive": False,
        }
    return {
        "n": n,
        "found": False,
        "witness": None,
        "candidates_examined": config.trials,
        "definitive": False,
    }


def _search_exhaustive_length(config: SearchConfig, n: int) -> dict:
    q, k = config.q, config.k
    space = q ** (k * (n - k))
    if space > config.space_guard:
        raise SearchSpaceTooLargeError(
            f"systematic space q^(k(n-k)) = {space} exceeds guard {config.space_guard}"
        )
    chunk = max(1, math.ceil(space / max(config.workers, 1) / 4))
    tasks = [
        (q, k, n, lo, hi, config.target) for lo, hi in _chunk_ranges(space, chunk)
    ]
    results = _run_chunks(_exhaustive_chunk, tasks, config.workers)
    hits = [r[0] for r in results if r[0] is not None]
    if hits:
        best = min(hits)
        text = next(r[1] for r in results if r[0] == best)
        witness = _witness_entry(text, config.target)
        return {
            "n": n,
            "found": True,
            "witness": witness,
            "witness_index": best,
            "candidates_examined": best + 1,
            "definitive": True,
        }
    return {
        "n": n,
        "found": False,
        "witness": None,
        "candidates_examined": space,
        "definitive": True,
    }


# -- GV-style QM search -------------------------------------------------------

def gv_qm_search(q: int, k: int, trials: int = 10_000, seed: int = 0) -> dict:
    """Random search for a QM code at the GV-type length n = ceil(k lambda_q).

    Acceptance tries the cheap d/N sufficient condition first and falls back
    to the full support comparison; the report says which path fired.  Not
    finding a witness within the trial budget is an outcome, not an error.
    """
    n = math.ceil(k * lambda_q(q))
    t0 = time.monotonic()
    found = None
    for t in range(trials):
        code = random_code(q, k, n, trial_rng(seed, t))
        if qm_sufficient_dn(code):
            found = (t, code, "sufficient_dn")
            break
        if is_qm(code):
            found = (t, code, "support_check")
            break
    report = {
        "q": q,
        "k": k,
        "n": n,
        "target": "qm",
        "seed": seed,
        "trials": trials,
        "found": found is not None,
        "wall_clock_seconds": time.monotonic() - t0,
    }
    if found:
        t, code, path = found
        if not is_qm(code):
            raise AssertionError("witness failed re-verification")
        report.update(
            {
                "witness_trial": t,
                "acceptance_path": path,
                "witness": {
                    "matrix": dumps_code(code),
                    "has_zero_column": code.has_zero_column(),
                },
            }
        )
    return report


# -- Monte-Carlo validation of the averaging argument -------------------------

def _expectation_chunk(args) -> tuple[int, int, int]:
    """Return (sum of collision statistics, sum of squares, MWS hits)."""
    q, k, n, seed, start, stop = args
    total = 0
    total_sq = 0
    hits = 0
    ceiling = (q**k - 1) // (q - 1)
    for t in range(start, stop):
        code = random_code(q, k, n, trial_rng(seed, t))
        spec = weight_spectrum(code)
        s = sum(a * (a - (q - 1)) for a in spec.counts.values())
        total += s
        total_sq += s * s
        if spec.L == ceiling:
            hits += 1
    return total, total_sq, hits


@dataclass(frozen=True)
class ExpectationEstimate:
    """Monte-Carlo estimate of the expected weight-collision statistic."""

    q: int
    k: int
    n: int
    samples: int
    seed: int
    mean: float
    stderr: float
    bound: float
    bound_exact: str
    mws_fraction: float
    wall_clock_seconds: float = field(compare=False, default=0.0)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "mean": self.mean,
            "stderr": self.stderr,
            "bound": self.bound,
            "bound_exact": self.bound_exact,
            "mws_fraction": self.mws_fraction,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


def estimate_expectation(
    q: int, k: int, n: int, samples: int, seed: int = 0, workers: int = 1
) -> ExpectationEstimate:
    """Sample random [n,k]_q codes and compare the mean collision statistic
    sum_w A_w(A_w - (q-1)) against its exact theoretical ceiling
    q^{2k-2n} sum_w C(n,w)^2 (q-1)^{2w}."""
    t0 = time.monotonic()
    chunk = max(1, math.ceil(samples / max(workers, 1) / 4))
    tasks = [(q, k, n, seed, lo, hi) for lo, hi in _chunk_ranges(samples, chunk)]
    if workers <= 1 or len(tasks) <= 1:
        results = [_expectation_chunk(t) for t in tasks]
    else:
        with _process_pool(workers) as pool:
            results = list(pool.map(_expectation_chunk, tasks))
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    hits = sum(r[2] for r in results)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    bound = eqbound_value(q, k, n)
    return ExpectationEstimate(
        q=q,
        k=k,
        n=n,
        samples=samples,
        seed=seed,
        mean=mean,
        stderr=stderr,
        bound=float(bound),
        bound_exact=f"{bound.numerator}/{bound.denominator}",
        mws_fraction=hits / samples,
        wall_clock_seconds=time.monotonic() - t0,
    )
