"""Randomized and exhaustive searches for QM / MWS codes.

Random, exhaustive and GV searches share one candidate scan, _scan_chunk,
which returns the first accepted candidate of an index range.  Search and
Monte-Carlo share one runner, _run_chunks, which runs the index space as one
task, or in chunks in a process pool, where a search stops at the first
chunk with a witness and cancels the chunks after it.  A chunk is never
smaller than one full enumeration batch (_full_batch), so a pool starts only
when each chunk has that much work to pay for the pool's start; a smaller
space runs in this process whatever the worker count.

A scan stacks its candidates in batches (_candidates) and reads each
verdict off the candidate's weight histogram, or its supports for QM over
q > 2.  Only a witness becomes a LinearCode, re-verified from its
serialized text through the public predicates.

Determinism contract: every trial derives its RNG purely from (seed, trial
index), and witness selection always picks the smallest successful index.
Reports are therefore byte-identical for any worker count and any chunking
of the trial space.  Trial i's code is the first full-rank matrix among the
draws of trial_rng(seed, i) (_draws).  The scans do not create that RNG:
_trial_draws computes the same draws for a whole batch of trials with
integer array arithmetic, and only a trial it cannot compute exactly (a
rejected word in numpy's bounded draw, or an index of 2^32 or more) goes
through trial_rng.

Exhaustive mode enumerates systematic generators [I | A] only.  Every
full-rank code is permutation-equivalent to a systematic one and coordinate
permutations preserve weight spectra, so a "none exists" verdict at a length
is definitive while the space shrinks from q^{kn} to q^{k(n-k)}.  [I | A]
has rank k by construction, so these candidates need no rank test.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import codes
from .bounds import eqbound_value, lambda_q
from .codes import (
    LinearCode,
    RankDeficientError,
    _histograms,
    is_mws,
    is_qm,
    projective_representative_count,
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

    def __post_init__(self):
        if self.n_lo > self.n_hi:
            raise ValueError("n_lo must be <= n_hi")
        if self.target not in ("mws", "qm"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.mode not in ("random", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.trials < 1:
            raise ValueError("random mode needs trials >= 1")
        if self.mode == "random":
            np.random.SeedSequence(self.seed)  # a negative seed fails; exhaustive mode reads none
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """RNG for one trial, a pure function of (seed, trial index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.PCG64(ss))


def _draws(q: int, k: int, n: int, rng: np.random.Generator):
    """The k x n matrices a trial draws in turn, entries i.i.d. uniform."""
    while True:
        yield rng.integers(0, q, size=(k, n))


# _trial_draws replays trial_rng's generator as integer array arithmetic.
# These are fixed parts of the algorithms it replays: numpy's SeedSequence
# hash constants and the PCG64 multiplier.
_M32 = 0xFFFFFFFF
_M64 = 2**64 - 1
_ENTROPY_HASH = (0x43B0D7E5, 0x931E8875)  # mixing entropy in: initial value, multiplier
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_chain(start: int, mult: int, count: int) -> np.ndarray:
    """The count + 1 hash constants start * mult^i mod 2^32, as uint32."""
    chain = [start]
    for _ in range(count):
        chain.append(chain[-1] * mult & _M32)
    return np.array(chain, dtype=np.uint32)


_STATE_HASH = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's, for 8 words


def _mul128(xh, xl, ah, al):
    """(xh, xl) * (ah, al) mod 2^128 on uint64 (high, low) halves; the low
    halves' full product goes through 32-bit limbs."""
    x0, x1 = xl & _M32, xl >> 32
    a0, a1 = al & _M32, al >> 32
    p00, p01, p10 = x0 * a0, x0 * a1, x1 * a0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    high = x1 * a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + xh * al + xl * ah
    return high, xl * al


def _trial_draws(seed: int, trials: np.ndarray, r: int, q: int, k: int, n: int):
    """Draw r of each trial, next(islice(_draws(q, k, n, trial_rng(seed, t)),
    r, None)), for all trials t at once: (matrices (B, k, n), mask of the
    trials not computed, which the caller draws through trial_rng).

    The steps replay numpy exactly.  SeedSequence hashes the seed's words
    into a pool, read here off numpy's own SeedSequence(seed), hashes each
    trial's spawn word into it and generates 8 words: PCG64's initial
    state s and sequence; only these two hashes are replayed.  PCG64 seeds
    its LCG x -> M x + c, c = 2 sequence + 1, by one step from 0, adding s
    and one more step, so its m-th output comes from M^(m+2) (s + c) +
    (sum_{i<m+2} M^i) c mod 2^128, computed for every m at once, through
    the XSL-RR output; each 64-bit output gives two 32-bit words, low half
    first.  integers(0, q) maps word u to u q >> 32, but rejects u when
    u q mod 2^32 < 2^32 mod q (never for q a power of 2): the draw holds
    words r k n .. (r + 1) k n - 1 only when no earlier word was rejected.
    A trial with a rejected word, or an index of 2^32 or more (two spawn
    words), is left to the caller.  Trials are taken in slices so that no
    array exceeds one enumeration block, BLOCK_ROWS x n entries.
    """
    pool = np.random.SeedSequence(seed).pool  # refuses a negative seed
    # the spawn word's hash constants follow the ones that built the pool:
    # 4 to fill the pool, 12 to mix it, and 4 per seed word past the fourth
    calls = 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - 4)
    spawn = _hash_chain(*_ENTROPY_HASH, calls + 4)[calls:]
    trials = np.asarray(trials, dtype=np.int64)
    kn = k * n
    reject = 2**32 % q
    first = 0 if reject else r * kn  # the words to check or read
    m0, m1 = first // 2, ((r + 1) * kn + 1) // 2  # the 64-bit outputs holding them
    a, c, jumps = 1, 0, []
    for m in range(m1 + 2):
        if m >= m0 + 2:
            jumps.append([[a >> 64, c >> 64], [a & _M64, c & _M64]])
        a, c = a * _PCG_MULT % 2**128, (c * _PCG_MULT + 1) % 2**128
    jh, jl = np.array(jumps, dtype=np.uint64).transpose(1, 2, 0)  # (2, J) each: M^j, sum M^i

    gens = np.empty((len(trials), k, n), dtype=np.int64)
    slow = trials >> 32 != 0
    step = max(1, codes.BLOCK_ROWS * n // (2 * len(jumps)))
    for lo in range(0, len(trials), step):
        part = slice(lo, lo + step)
        # the spawn word into the pool, then the pool into 8 state words;
        # uint32 arithmetic wraps mod 2^32 as SeedSequence's does
        v = ((trials[part, None] & _M32).astype(np.uint32) ^ spawn[:-1]) * spawn[1:]
        v ^= v >> 16
        v = _MIX_L * pool - _MIX_R * v
        v ^= v >> 16
        v = (np.concatenate([v, v], axis=1) ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
        v ^= v >> 16
        words = v.astype("<u4").view("<u8").astype(np.uint64)  # s high, s low, seq high, low
        inc_h = words[:, 2:3] << 1 | words[:, 3:4] >> 63
        inc_l = words[:, 3:4] << 1 | 1
        x_l = inc_l + words[:, 1:2]
        x_h = inc_h + words[:, 0:1] + (x_l < inc_l)
        # every output state at once: M^j (s + c) + (sum_{i<j} M^i) c
        high, low = _mul128(np.concatenate([x_h, inc_h], axis=1)[:, :, None],
                            np.concatenate([x_l, inc_l], axis=1)[:, :, None], jh, jl)
        low_sum = low[:, 0] + low[:, 1]
        high = high[:, 0] + high[:, 1] + (low_sum < low[:, 0])
        v, rot = high ^ low_sum, high >> 58
        out = v >> rot | v << (-rot & 63)
        stream = out.astype("<u8").view("<u4")  # each output's low half first
        scaled = stream[:, first - 2 * m0:(r + 1) * kn - 2 * m0].astype(np.uint64) * q
        if reject:
            slow[part] |= ((scaled & _M32) < reject).any(axis=1)
        gens[part] = (scaled[:, -kn:] >> 32).reshape(-1, k, n)
    return gens, slow


def random_code(q: int, k: int, n: int, rng: np.random.Generator) -> LinearCode:
    """A uniformly random full-rank k x n generator matrix over GF(q).

    Entries are i.i.d. uniform; rank-deficient draws are rejected, which
    leaves the uniform distribution on full-rank matrices.  Zero columns are
    allowed (the uniform model includes them).  Each draw is ranked once, by
    LinearCode's own check.  The search scans use the same matrices, which
    _trial_draws computes for many trials at once without creating their
    RNGs, and rank them from their weight histograms instead.
    """
    if n < k:
        raise ValueError("need n >= k for a full-rank k x n matrix")
    fld = build_field(q)
    for mat in _draws(q, k, n, rng):
        try:
            return LinearCode(field=fld, generator=tuple(map(tuple, mat.tolist())))
        except RankDeficientError:
            continue


def _systematic(q: int, k: int, n: int, lo: int, hi: int) -> np.ndarray:
    """The systematic generators [I | A] of indices lo..hi-1, shape
    (hi - lo, k, n); A holds the index's base-q digits in row-major order,
    least significant first."""
    digits = np.arange(lo, hi)[:, None] // q ** np.arange(k * (n - k)) % q
    gens = np.zeros((hi - lo, k, n), dtype=np.int64)
    gens[:, :, :k] = np.eye(k, dtype=np.int64)
    gens[:, :, k:] = digits.reshape(hi - lo, k, n - k)
    return gens


def _full_batch(q: int, k: int) -> int:
    """Candidates in one full batch of _candidates: BLOCK_ROWS projective
    words, at least one candidate.  BLOCK_ROWS is read at call time."""
    return max(1, codes.BLOCK_ROWS // projective_representative_count(q, k))


def _candidates(q: int, k: int, n: int, mode: str, seed: int, lo: int, hi: int,
                supports: bool):
    """Yield (first index, generators (B, k, n), histograms, distinct support
    counts) for candidates lo..hi-1 in batches of 1, 2, 4, ... candidates,
    up to BLOCK_ROWS projective words, so that an early witness costs little.

    Candidate i is trial i's code in random mode and the i-th systematic
    generator in exhaustive mode.  Random draws come from _trial_draws, and
    from trial_rng for the trials it leaves out.  A rank-deficient draw (bin
    0 not empty) is replaced by its trial's next draw: the batch's deficient
    trials draw again together until each has full rank."""
    if k < 1:
        raise ValueError("generator needs at least one row")
    if n < k:
        raise ValueError("need n >= k for a full-rank k x n matrix")
    fld = build_field(q)

    def draw(trials, r):
        gens, slow = _trial_draws(seed, trials, r, q, k, n)
        for j in np.flatnonzero(slow):
            rng = trial_rng(seed, int(trials[j]))
            gens[j] = next(itertools.islice(_draws(q, k, n, rng), r, None))
        return gens

    most = _full_batch(q, k)
    size = 1
    while lo < hi:
        top = min(lo + size, hi)
        if mode == "random":
            gens = draw(np.arange(lo, top), 0)
        else:
            gens = _systematic(q, k, n, lo, top)
        hist, distinct = _histograms(fld, gens.transpose(1, 0, 2), supports)
        redrawn = np.flatnonzero(hist[:, 0]) if mode == "random" else ()
        r = 0
        while len(redrawn):  # one pass per round of redraws
            r += 1
            gens[redrawn] = draw(lo + redrawn, r)
            hist[redrawn], found = _histograms(fld, gens[redrawn].transpose(1, 0, 2), supports)
            if supports:
                distinct[redrawn] = found
            redrawn = redrawn[hist[redrawn, 0] > 0]
        yield lo, gens, hist, distinct
        lo, size = top, min(2 * size, most)


def _scan_chunk(args) -> tuple[int, str, bool | str] | None:
    """Scan candidates lo..hi-1 and return (index, matrix text, acceptance)
    for the first accepted one, or None.  The verdicts are read off each
    batch's histograms: MWS when no bin holds two words, QM when the
    supports are distinct (always over GF(2)), and for "gv", which asks for
    a QM code and says which check accepted it, the d/N condition on the
    first nonzero bin before the supports."""
    q, k, n, mode, seed, target, lo, hi = args
    supports = target != "mws" and q > 2
    ceiling = projective_representative_count(q, k)
    for first, gens, hist, distinct in _candidates(q, k, n, mode, seed, lo, hi, supports):
        if target == "mws":
            ok = (hist <= 1).all(axis=1)
        else:
            ok = distinct == ceiling if supports else np.full(len(hist), True)
        if target == "gv":
            by_dn = ((hist[:, 1:] > 0).argmax(axis=1) + 1) * (q - 1) > (q - 2) * n
            ok = by_dn | ok
        hits = np.flatnonzero(ok)
        if len(hits):
            j = int(hits[0])
            code = LinearCode(field=build_field(q), generator=tuple(map(tuple, gens[j].tolist())))
            accepted = True if target != "gv" else "sufficient_dn" if by_dn[j] else "support_check"
            return first + j, dumps_code(code), accepted
    return None


def _run_chunks(worker, args, total: int, workers: int, stop=None) -> list:
    """Run worker((*args, lo, hi)) over range(total), where args begin with
    q, k.  A chunk holds max(_full_batch(q, k), ceil(total / workers / 4))
    indices, for about 4 chunks per worker, but never less than one full
    batch, whose enumeration costs at least as much as starting a pool.  With one worker,
    or when that leaves one chunk, the range runs in this process as one task
    and no pool starts; else the chunks run in a pool of at most one process
    per chunk, which is shut down before this returns.

    Results come in chunk order, up to and including the first one for which
    stop holds; the chunks after it are cancelled.  Because pool.map yields
    in chunk order, the first stopping chunk is the same for any worker
    count.
    """
    size = max(_full_batch(*args[:2]), math.ceil(total / workers / 4))
    if workers == 1 or size >= total:
        return [worker((*args, 0, total))]
    tasks = [(*args, lo, min(lo + size, total)) for lo in range(0, total, size)]
    results = []
    with _process_pool(min(workers, len(tasks))) as pool:
        for result in pool.map(worker, tasks):
            results.append(result)
            if stop is not None and stop(result):
                pool.shutdown(cancel_futures=True)
                break
    return results


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
        entry = _search_length(config, n)
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
    if not (is_mws if target == "mws" else is_qm)(code):
        raise AssertionError("witness failed re-verification from serialized form")
    return {
        "matrix": matrix_text,
        "has_zero_column": code.has_zero_column(),
    }


def _search_length(config: SearchConfig, n: int) -> dict:
    q, k = config.q, config.k
    exhaustive = config.mode == "exhaustive"
    if exhaustive:
        space = q ** (k * (n - k))
        if space > DEFAULT_SPACE_GUARD:
            raise SearchSpaceTooLargeError(
                f"systematic space q^(k(n-k)) = {space} exceeds guard {DEFAULT_SPACE_GUARD}"
            )
    else:
        space = config.trials
    args = (q, k, n, config.mode, config.seed, config.target)
    hit = _run_chunks(_scan_chunk, args, space, config.workers,
                      stop=lambda result: result is not None)[-1]
    entry = {"n": n, "found": hit is not None, "witness": None}
    if hit is not None:
        index, text, _ = hit
        entry["witness"] = _witness_entry(text, config.target)
        entry["witness_index" if exhaustive else "witness_trial"] = index
    entry["candidates_examined"] = space if hit is None else hit[0] + 1
    entry["definitive"] = exhaustive
    return entry


# -- GV-style QM search -------------------------------------------------------

def gv_qm_search(q: int, k: int, trials: int = 10_000, seed: int = 0) -> dict:
    """Random search for a QM code at the GV-type length n = ceil(k lambda_q).

    Acceptance tries the cheap d/N sufficient condition first and falls back
    to the full support comparison; the report says which path fired.  Not
    finding a witness within the trial budget is an outcome, not an error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = math.ceil(k * lambda_q(q))
    t0 = time.monotonic()
    hit = _scan_chunk((q, k, n, "random", seed, "gv", 0, trials))
    report = {
        "q": q,
        "k": k,
        "n": n,
        "target": "qm",
        "seed": seed,
        "trials": trials,
        "found": hit is not None,
        "wall_clock_seconds": time.monotonic() - t0,
    }
    if hit is not None:
        index, text, path = hit
        report.update(
            {
                "witness_trial": index,
                "acceptance_path": path,
                "witness": _witness_entry(text, "qm"),
            }
        )
    return report


# -- Monte-Carlo validation of the averaging argument -------------------------

def _expectation_chunk(args) -> tuple[int, int, int]:
    """Return (sum of collision statistics, sum of squares, MWS hits).  A
    code's statistic sum_w A_w (A_w - (q-1)), with A_w = (q-1) c_w for c_w
    projective words of weight w, is (q-1)^2 sum_w c_w (c_w - 1); the sums
    are kept in Python integers."""
    q, k, n, seed, start, stop = args
    total = 0
    total_sq = 0
    hits = 0
    for _, _, hist, _ in _candidates(q, k, n, "random", seed, start, stop, supports=False):
        for collisions in (hist * (hist - 1)).sum(axis=1).tolist():
            s = (q - 1) ** 2 * collisions
            total += s
            total_sq += s * s
        hits += int((hist <= 1).all(axis=1).sum())
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
        return asdict(self)


def estimate_expectation(
    q: int, k: int, n: int, samples: int, seed: int = 0, workers: int = 1
) -> ExpectationEstimate:
    """Sample random [n,k]_q codes and compare the mean collision statistic
    sum_w A_w(A_w - (q-1)) against its exact theoretical ceiling
    q^{2k-2n} sum_w C(n,w)^2 (q-1)^{2w}."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    np.random.SeedSequence(seed)  # refuses a negative seed
    if workers < 1:
        raise ValueError("workers must be >= 1")
    t0 = time.monotonic()
    results = _run_chunks(_expectation_chunk, (q, k, n, seed), samples, workers)
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
