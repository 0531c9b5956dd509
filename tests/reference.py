"""Slow reference oracle for the enumeration core in mwscodes.codes.

Messages come from the recursive generator the library used before its
block enumerator, and words from per-message `codeword`; weights and
supports are then counted one word at a time.
"""

from __future__ import annotations

from collections import Counter

from mwscodes import codeword, support, weighted_weight


def representatives(q: int, k: int):
    """Yield one message per 1-dimensional subspace of GF(q)^k, first nonzero
    coordinate 1, in lexicographic order."""

    def rec(prefix: tuple[int, ...]):
        if len(prefix) == k:
            yield prefix
            return
        leading_zero = not any(prefix)
        for x in range(q):
            if leading_zero and x not in (0, 1):
                continue  # first nonzero coordinate is pinned to 1
            yield from rec(prefix + (x,))

    for msg in rec(()):
        if any(msg):
            yield msg


def words(code) -> list[tuple[int, ...]]:
    return [codeword(code, m) for m in representatives(code.q, code.k)]


def spectrum(code) -> dict[int, int]:
    counts = Counter(weighted_weight(w, code.multiplicities) for w in words(code))
    return {w: c * (code.q - 1) for w, c in sorted(counts.items())}


def is_mws(code) -> bool:
    return len(spectrum(code)) == (code.q**code.k - 1) // (code.q - 1)


def is_qm(code) -> bool:
    ws = words(code)
    return len({support(w) for w in ws}) == len(ws)
