"""Randomized and exhaustive searches for QM / MWS codes.

SearchConfig checks every run.  Random, exhaustive and GV searches (GV is
a random QM search of one length) scan each length by _search_length and
one candidate scan, _scan_chunk, which returns the first accepted candidate
of an index range.  Search and Monte-Carlo share one runner, _run_chunks,
which runs the index space as one task, or in chunks in a process pool,
where a search stops at the first chunk with a witness and cancels the
chunks after it.  A chunk never holds fewer candidates than BLOCK_ROWS
projective words (_full_batch), so a pool starts only when each chunk has
that much work to pay for the pool's start; a smaller space runs in this
process whatever the worker count.

A scan stacks its candidates in batches (_candidates) and reads each
verdict off one weight pass over the batch (codes._pass): the candidate's
weight histogram, and for QM over q > 2 the pass's QM verdict.  A witness
is written out as matrix text, and only that text becomes a LinearCode,
re-verified through the public predicates.

Determinism contract: every trial derives its RNG purely from (seed, trial
index), and witness selection always picks the smallest successful index.
Reports are therefore byte-identical for any worker count and any chunking
of the trial space.  Trial i's code is the first full-rank matrix among the
draws of trial_rng(seed, i) (_draws).  The scans do not create that RNG:
_trial_draws computes the same draws for a whole batch of trials with
integer array arithmetic, a fixed handful of numpy passes over the batch's
PCG64 states, and draws through trial_rng only the trials it cannot
compute exactly (a rejected word in numpy's bounded draw, or an index of
2^32 or more).  A scan takes its candidates in batches of one size,
bounded so that no array outgrows one enumeration block: one _trial_draws
call draws a batch, one weight pass counts it, and its rank-deficient
trials below the batch's first accepted candidate are redrawn together,
one round at a time.  An early witness thus costs one batch of draws and
weight passes, plus the redraw rounds of the trials before it.

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
from .bounds import _unlimited_int_str, eqbound_value, lambda_q
from .codes import (
    LinearCode,
    RankDeficientError,
    _histograms,
    is_mws,
    is_qm,
    projective_representative_count,
)
from .gf import build_field
from .matrixio import _dumps_rows, loads_code

DEFAULT_SPACE_GUARD = 2**30
# A random candidate holds k n entries, and its draws, weight pass and
# witness re-check take memory in proportion: a [1048576, 2]_3 search,
# k n = 2^21, peaks at about 165 MB.
MAX_CANDIDATE_ENTRIES = 2**21


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
    """Raised when exhaustive enumeration would exceed the space guard, or
    a candidate the candidate guard."""


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search, GV or Monte-Carlo run, checked here alone,
    cheapest first: q by build_field (table bound, then factoring), k >= 1,
    n_lo <= n_hi, target, mode, trials and seed (random mode), workers, and
    the candidate guard k n_hi <= MAX_CANDIDATE_ENTRIES."""

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
        build_field(self.q)
        if self.k < 1:
            raise ValueError("generator needs at least one row")
        if self.n_lo > self.n_hi:
            raise ValueError("n_lo must be <= n_hi")
        if self.target not in ("mws", "qm"):
            raise ValueError(f"unknown target {self.target!r}")
        if self.mode not in ("random", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random" and self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.mode == "random":
            np.random.SeedSequence(self.seed)  # a negative seed fails; exhaustive mode reads none
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.k * self.n_hi > MAX_CANDIDATE_ENTRIES:
            raise SearchSpaceTooLargeError(
                f"candidate size k n = {self.k}*{self.n_hi} exceeds guard {MAX_CANDIDATE_ENTRIES}")


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


# A draw's first H states come from one product; longer draws double from there.
H = 16


def _jump(j: int) -> tuple[int, int]:
    """(M^j, S_j) mod 2^128, S_j = sum_{i<j} M^i: j steps of x -> M x + c
    take x to M^j x + S_j c.  The binary powers (M^h, S_h) compose."""
    a, s, jump_m, jump_s = _PCG_MULT, 1, 1, 0
    while j:
        if j & 1:
            jump_m, jump_s = jump_m * a % 2**128, (jump_s * a + s) % 2**128
        j, a, s = j >> 1, a * a % 2**128, s * (a + 1) % 2**128
    return jump_m, jump_s


def _limbs(values: list[int]) -> np.ndarray:
    """128-bit constants as uint64 (high, low, low's low 32 bits, low's high
    32 bits) on a leading axis of 4."""
    raw = b"".join([v.to_bytes(16, "little") for v in values])
    limbs = np.empty((4, len(values)), dtype=np.uint64)
    limbs[1], limbs[0] = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).T
    limbs[2:] = np.frombuffer(raw, dtype="<u4").reshape(-1, 4).T[:2]
    return limbs


def _mul128(x, a, out, tmp) -> None:
    """out = x a mod 2^128 on uint64 (high, low) pairs: x an array pair and a
    its _limbs, each broadcast to out's shape.  tmp is two scratch arrays of
    that shape, so no array is allocated; out must not overlap x.  The low
    halves' full product goes through 32-bit limbs x0, x1 and a0, a1."""
    (xh, xl), (ah, al, a0, a1), (hi, lo), (t0, t1) = x, a, out, tmp
    np.bitwise_and(xl, _M32, out=t0)
    np.multiply(t0, a0, out=lo)  # x0 a0
    np.multiply(t0, a1, out=t0)  # x0 a1
    np.right_shift(lo, 32, out=lo)
    np.bitwise_and(t0, _M32, out=hi)
    np.add(lo, hi, out=lo)
    np.right_shift(t0, 32, out=t0)
    np.right_shift(xl, 32, out=t1)
    np.multiply(t1, a0, out=hi)  # x1 a0
    np.multiply(t1, a1, out=t1)  # x1 a1
    np.add(t1, t0, out=t1)
    np.bitwise_and(hi, _M32, out=t0)
    np.add(lo, t0, out=lo)  # the middle column
    np.right_shift(hi, 32, out=hi)
    np.add(t1, hi, out=t1)
    np.right_shift(lo, 32, out=lo)
    np.add(t1, lo, out=t1)  # the high half of xl al
    np.multiply(xh, al, out=hi)
    np.add(hi, t1, out=hi)
    np.multiply(xl, ah, out=t1)
    np.add(hi, t1, out=hi)
    np.multiply(xl, al, out=lo)


def _add128(x, y, carry) -> None:
    """x += y mod 2^128 in place on uint64 (high, low) pairs, y broadcast to
    x's shape; carry is a bool scratch array of that shape."""
    np.add(x[1], y[1], out=x[1])
    np.less(x[1], y[1], out=carry)
    np.add(x[0], y[0], out=x[0])
    np.add(x[0], carry, out=x[0])


_DOUBLING = _jump(H)


def _trial_draws(seed: int, trials: np.ndarray, r: int, q: int, k: int, n: int,
                 flagged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw r of each trial, next(islice(_draws(q, k, n, trial_rng(seed, t)),
    r, None)), for all trials t at once, as one (B, k, n) array, and the
    trials' flags after this round.  flagged marks the trials drawn through
    trial_rng in an earlier round (all False in round 0); they stay on it.

    The steps replay numpy exactly.  SeedSequence hashes the seed's words
    into a pool, read here off numpy's own SeedSequence(seed), hashes each
    trial's spawn word into it and generates 8 words: PCG64's initial
    state s and sequence; only these two hashes are replayed.  PCG64 seeds
    its LCG x -> M x + c, c = 2 sequence + 1, by one step from 0, adding s
    and one more step, so its m-th output comes from state j = m + 2,
    M^j (s + c) + S_j c = M^j s + S_{j+1} c mod 2^128, through the XSL-RR
    output; each 64-bit output gives two 32-bit words, low half first.  One
    128-bit product of every trial's stacked (s, c) by per-row constants
    (M^j, S_{j+1}) gives the first min(outputs, H) states.  A longer draw
    doubles from there: step h = H, 2H, 4H, ... gives the h states after
    the first h as M^h times them plus S_h c, which the first product's
    extra rows, of constants (0, S_h), give.  The products, the output and
    the scaling write into buffers made once per call.
    integers(0, q) maps word u to u q >> 32, but rejects u when u q mod
    2^32 < 2^32 mod q: the draw holds words r k n .. (r + 1) k n - 1 only
    when none of words 0 .. (r + 1) k n - 1 was rejected.  Only this round's
    words are computed and checked, since flagged carries the earlier
    rounds' verdicts; a power of 2 never rejects.  A trial with a rejected
    word, or an index of 2^32 or more (two spawn words), is flagged and
    drawn through trial_rng instead.  The buffers hold about 4 k n words
    per trial, so the caller bounds their size by the trials it passes:
    _candidates passes one batch.
    """
    kn, count, size = k * n, (r + 1) * k * n, len(trials)
    pool = np.random.SeedSequence(seed).pool  # refuses a negative seed
    # the spawn word's hash constants follow the ones that built the pool:
    # 4 to fill the pool, 12 to mix it, and 4 per seed word past the fourth
    calls = 16 + 4 * max(0, (seed.bit_length() + 31) // 32 - 4)
    start, mult = _ENTROPY_HASH
    spawn = _hash_chain(start * pow(mult, calls, 2**32) & _M32, mult, 4)
    trials = np.asarray(trials, dtype=np.int64)
    # the spawn word into the pool, then the pool into 8 state words;
    # uint32 arithmetic wraps mod 2^32 as SeedSequence's does
    v = ((trials[:, None] & _M32).astype(np.uint32) ^ spawn[:-1]) * spawn[1:]
    v ^= v >> 16
    v = _MIX_L * pool - _MIX_R * v
    v ^= v >> 16
    v = (np.concatenate([v, v], axis=1) ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
    v ^= v >> 16
    words = v.astype("<u4").view("<u8").astype(np.uint64)  # s high, s low, seq high, low
    # x[high/low, (s, c), 1, trial]
    x = np.empty((2, 2, 1, size), dtype=np.uint64)
    x[:, 0, 0] = words[:, :2].T
    x[0, 1, 0], x[1, 1, 0] = words[:, 2] << 1 | words[:, 3] >> 63, words[:, 3] << 1 | 1
    m0 = r * kn // 2  # the first output holding a word to read
    outputs = (count + 1) // 2 - m0
    rows = min(outputs, H)
    # a draw of more than H outputs doubles with h = H, 2H, 4H, ...
    steps, (m, s), h = [], _DOUBLING, rows
    while h < outputs:
        steps.append((m, s))
        m, s, h = m * m % 2**128, s * (m + 1) % 2**128, 2 * h
    # product row i < rows is state m0 + 2 + i, row rows + l S_h c of step l
    mults, sums = [], []
    m, s = _jump(m0 + 2)
    for _ in range(rows):
        s = (s + m) % 2**128
        mults.append(m)
        sums.append(s)
        m = m * _PCG_MULT % 2**128
    width = rows + len(steps)
    consts = _limbs(mults + [0] * len(steps) + sums + [s for _, s in steps])
    # st[high/low, (s, c) part, row, trial]: part 0 ends up holding the
    # states, part 1 the S_h c rows; tmp is scratch, then the scaled words
    st = np.empty((2, 2, outputs, size), dtype=np.uint64)
    tmp = np.empty((2, 2 * outputs * size), dtype=np.uint64)
    carry = np.empty((outputs, size), dtype=bool)
    _mul128(x, consts.reshape(4, 2, width, 1), st[:, :, :width],
            tmp[:, :2 * width * size].reshape(2, 2, width, size))
    state = st[:, 0]
    _add128(state[:, :rows], st[:, 1, :rows], carry[:rows])
    h = rows
    for l, (m, _) in enumerate(steps):
        top = min(2 * h, outputs)
        _mul128(state[:, :top - h], _limbs([m])[:, :, None], state[:, h:top],
                tmp[:, :(top - h) * size].reshape(2, top - h, size))
        _add128(state[:, h:top], st[:, 1, rows + l:rows + l + 1], carry[:top - h])
        h = top
    # XSL-RR: (high ^ low) rotated right by high >> 58, into low
    high, low = state
    shifted = tmp[0, :outputs * size].reshape(outputs, size)
    np.bitwise_xor(high, low, out=low)
    np.right_shift(high, 58, out=high)
    np.right_shift(low, high, out=shifted)
    np.subtract(64, high, out=high)
    np.bitwise_and(high, 63, out=high)
    np.left_shift(low, high, out=low)
    np.bitwise_or(low, shifted, out=low)
    # each trial's words, each output's low half first, times q
    halves = low.astype("<u8", copy=False).view("<u4").reshape(outputs, size, 2)
    scaled = tmp[1].reshape(size, 2 * outputs)
    np.multiply(halves.transpose(1, 0, 2), np.uint64(q), out=scaled.reshape(size, outputs, 2))
    lo = r * kn - 2 * m0  # this round's first word in the stream
    scaled = scaled[:, lo:lo + kn]
    gens = (scaled >> 32).view(np.int64).reshape(size, k, n)
    flagged = flagged | (trials >> 32 != 0)
    reject = 2**32 % q
    if reject:
        flagged |= (np.bitwise_and(scaled, _M32, out=scaled) < reject).any(axis=1)
    for i in np.flatnonzero(flagged):
        rng = trial_rng(seed, int(trials[i]))
        gens[i] = next(itertools.islice(_draws(q, k, n, rng), r, None))
    return gens, flagged


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
    """Candidates in BLOCK_ROWS projective words, at least one: the pool's
    smallest chunk and a cap on _candidates' batches.  BLOCK_ROWS is read
    at call time."""
    return max(1, codes.BLOCK_ROWS // projective_representative_count(q, k))


def _candidates(q: int, k: int, n: int, mode: str, seed: int, lo: int, hi: int,
                supports: bool, accept=None):
    """Yield (first index, generators (B, k, n), histograms, QM verdicts or
    None without supports) for candidates lo..hi-1 in batches of
    most = min(full batch, BLOCK_ROWS // (k n)) consecutive candidates, at
    least one, and fewer only in the last: a batch holds at most BLOCK_ROWS
    projective words and BLOCK_ROWS matrix entries.

    Candidate i is trial i's code in random mode and the i-th systematic
    generator in exhaustive mode.  Random draws come from _trial_draws, one
    call per batch and round, which carries each trial's trial_rng flag
    from round to round.  A rank-deficient draw (bin 0 not empty) is
    replaced by its trial's next draw: the batch's deficient trials draw
    again together until each has full rank.  accept, for a scan, maps a
    batch's (histograms, QM verdicts) to each candidate's verdict, full
    rank included; then only the deficient trials below the batch's first
    accepted candidate draw again, since the scan takes that one, and the
    candidates after it may stay rank deficient.  An early witness thus
    costs one batch of draws and weight passes, plus the redraw rounds of
    the trials before it.  [I | A] has full rank, so exhaustive batches
    never redraw."""
    fld = build_field(q)
    most = max(1, min(_full_batch(q, k), codes.BLOCK_ROWS // (k * n)))
    for first in range(lo, hi, most):
        top = min(first + most, hi)
        if mode == "random":
            gens, flagged = _trial_draws(seed, np.arange(first, top), 0, q, k, n,
                                         np.zeros(top - first, dtype=bool))
        else:
            gens = _systematic(q, k, n, first, top)
        hist, qm = _histograms(fld, gens.transpose(1, 0, 2), supports)
        r = 0
        while len(redrawn := _redrawn(hist, qm, accept)):  # one pass per round
            r += 1
            gens[redrawn], flagged[redrawn] = _trial_draws(seed, first + redrawn, r, q, k, n,
                                                           flagged[redrawn])
            hist[redrawn], found = _histograms(fld, gens[redrawn].transpose(1, 0, 2), supports)
            if supports:
                qm[redrawn] = found
        yield first, gens, hist, qm


def _redrawn(hist: np.ndarray, qm, accept) -> np.ndarray:
    """The batch's rank-deficient candidates, or with accept those below
    its first accepted candidate."""
    deficient = np.flatnonzero(hist[:, 0])
    if accept is not None and len(deficient):
        hits = np.flatnonzero(accept(hist, qm))
        if len(hits):
            return deficient[deficient < hits[0]]
    return deficient


def _scan_chunk(args) -> tuple[int, str, int] | None:
    """Scan candidates lo..hi-1 and return (index, matrix text, minimum
    distance) for the first accepted one, or None.  The verdicts are read off
    each batch's histograms: full rank when bin 0 is empty, MWS when no bin
    holds two words, QM from the pass's QM verdicts (always over GF(2));
    the minimum distance is the first nonzero bin after bin 0."""
    q, k, n, mode, seed, target, lo, hi = args
    supports = target == "qm" and q > 2

    def accept(hist, qm):
        ok = (hist <= 1).all(axis=1) if target == "mws" else qm if supports else True
        return (hist[:, 0] == 0) & ok

    for first, gens, hist, qm in _candidates(q, k, n, mode, seed, lo, hi, supports, accept):
        hits = np.flatnonzero(accept(hist, qm))
        if len(hits):
            j = int(hits[0])
            distance = int(np.flatnonzero(hist[j, 1:])[0]) + 1
            return first + j, _dumps_rows(q, gens[j].tolist()), distance
    return None


def _run_chunks(worker, args, total: int, workers: int, stop=None) -> list:
    """Run worker((*args, lo, hi)) over range(total), where args begin with
    q, k.  A chunk holds max(_full_batch(q, k), ceil(total / workers / 4))
    indices, for about 4 chunks per worker, but never fewer than BLOCK_ROWS
    projective words, whose draws and weight pass take about as long as
    starting a pool (figures in README.md).  With one worker, or when that
    leaves one chunk, the range runs in this process as one task and no
    pool starts; else the chunks run in a pool of at most one process per
    chunk, which is shut down before this returns.

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
    definitive; the space guard is checked once, at n_hi, before any length.
    Witnesses are re-verified from their serialized form before being
    reported.
    """
    q, e = config.q, config.k * (config.n_hi - config.k)
    # q^e >= 2^e > the guard once e reaches its bit length: a long n is
    # refused without computing q^e
    if config.mode == "exhaustive" and (
            e >= DEFAULT_SPACE_GUARD.bit_length() or q**e > DEFAULT_SPACE_GUARD):
        raise SearchSpaceTooLargeError(
            f"systematic space q^(k(n-k)) = {q}**{e} exceeds guard {DEFAULT_SPACE_GUARD}")
    t0 = time.monotonic()
    lengths = []
    shortest = None
    for n in range(config.n_lo, config.n_hi + 1):
        if n < config.k:
            lengths.append({"n": n, "skipped": "n < k", "found": False})
            continue
        entry, _ = _search_length(config, n)
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


def _search_length(config: SearchConfig, n: int) -> tuple[dict, tuple[int, str, int] | None]:
    """Length n's payload entry and scan hit (index, matrix text, minimum
    distance) or None; search has checked the space guard."""
    q, k = config.q, config.k
    exhaustive = config.mode == "exhaustive"
    space = q ** (k * (n - k)) if exhaustive else config.trials
    args = (q, k, n, config.mode, config.seed, config.target)
    hit = _run_chunks(_scan_chunk, args, space, config.workers,
                      stop=lambda result: result is not None)[-1]
    entry = {"n": n, "found": hit is not None, "witness": None}
    if hit is not None:
        index, text, _ = hit
        code = loads_code(text)  # the witness is re-verified from its text
        if not (is_mws if config.target == "mws" else is_qm)(code):
            raise AssertionError("witness failed re-verification from serialized form")
        entry["witness"] = {"matrix": text, "has_zero_column": code.has_zero_column()}
        entry["witness_index" if exhaustive else "witness_trial"] = index
    entry["candidates_examined"] = space if hit is None else hit[0] + 1
    entry["definitive"] = exhaustive
    return entry, hit


# -- GV-style QM search -------------------------------------------------------

def gv_qm_search(q: int, k: int, trials: int = 10_000, seed: int = 0) -> dict:
    """Random search for a QM code at the GV-type length n = ceil(k lambda_q).

    A QM search of that one length by _search_length: the d/N condition
    d (q-1) > (q-2) n implies QM (two independent words of one support S
    give (q-1) d <= (q-2) |S|), so the report reads off the scan's witness
    distance which check accepts it.  Not finding a witness within the
    trial budget is an outcome, not an error.
    """
    # lambda_q >= 1, so n >= k: a k with k * k above the candidate guard is
    # checked at n = k, where SearchConfig refuses it after q and the other
    # parameters, and before the float k * lambda_q could overflow.
    n = k if k * k > MAX_CANDIDATE_ENTRIES else math.ceil(k * lambda_q(q))
    config = SearchConfig(q, k, n, n, target="qm", trials=trials, seed=seed)
    t0 = time.monotonic()
    entry, hit = _search_length(config, n)
    report = {
        "q": q,
        "k": k,
        "n": n,
        "target": "qm",
        "seed": seed,
        "trials": trials,
        "found": entry["found"],
        "wall_clock_seconds": time.monotonic() - t0,
    }
    if hit is not None:
        index, _, d = hit
        report.update(
            {
                "witness_trial": index,
                "acceptance_path": "sufficient_dn" if d * (q - 1) > (q - 2) * n else "support_check",
                "witness": entry["witness"],
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
    q^{2k-2n} sum_w C(n,w)^2 (q-1)^{2w}.  SearchConfig checks the run."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    SearchConfig(q, k, n, n, trials=samples, seed=seed, workers=workers)
    if n < k:
        raise ValueError("need n >= k for a full-rank k x n matrix")
    t0 = time.monotonic()
    results = _run_chunks(_expectation_chunk, (q, k, n, seed), samples, workers)
    total = sum(r[0] for r in results)
    total_sq = sum(r[1] for r in results)
    hits = sum(r[2] for r in results)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    bound = eqbound_value(q, k, n)
    with _unlimited_int_str():  # from n of about 4600 on, past the default 4300 digits
        bound_exact = f"{bound.numerator}/{bound.denominator}"
    return ExpectationEstimate(
        q=q,
        k=k,
        n=n,
        samples=samples,
        seed=seed,
        mean=mean,
        stderr=stderr,
        bound=float(bound),
        bound_exact=bound_exact,
        mws_fraction=hits / samples,
        wall_clock_seconds=time.monotonic() - t0,
    )
