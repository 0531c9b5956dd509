"""Seeded input generator for the mwscodes benchmark.

Every workload is a fixed list of CLI invocations (ops).  The workload seed
drives a numpy RNG that fills systematic [I | A] generator matrices (full
rank by construction, so no mwscodes code is needed to make them), picks the
per-op --seed values and shuffles the op order.  Op sizes never depend on the
seed, so the work per op does not either:

* random searches run at lengths below the paper's lower bound
  ceil((q/2)(q^k-1)/(q-1)) for MWS, or at n < q for k = 2 QM (where two
  projective messages always share the full support), so every trial runs
  whatever the seed;
* ops that can return a witness use a prime q, which keeps the checker's
  oracle to plain mod-p arithmetic.

Each Op carries the generated inputs in `params`, so the checker recomputes
the expected answer from them and never from the program's own output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verify", "search", "bounds", "largefield")

BOUNDS_Q = (2, 3, 4, 5, 7, 8, 9)
BOUNDS_K = (1, 2, 3, 4)


@dataclass
class Op:
    """One CLI invocation: argv for mwscodes.cli.main plus what the checker
    needs to compute the expected payload and exit status."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    shape: tuple[int, int] | None = None  # (q, k) of the code the op enumerates

    @property
    def workers(self) -> int:
        if "--workers" in self.argv:
            return int(self.argv[self.argv.index("--workers") + 1])
        return 1


def mws_lower_bound(q: int, k: int) -> int:
    """ceil((q/2)(q^k - 1)/(q - 1)), computed here independently of mwscodes."""
    return -(-q * (q**k - 1) // (2 * (q - 1)))


def systematic_rows(rng: np.random.Generator, q: int, k: int, n: int) -> list[list[int]]:
    """Rows of a generator [I_k | A] with A uniform over [0, q)."""
    a = rng.integers(0, q, size=(k, n - k))
    return [[int(i == j) for j in range(k)] + [int(x) for x in a[i]] for i in range(k)]


def matrix_text(q: int, rows: list[list[int]], mult: list[int] | None = None) -> str:
    """The mwscodes matrix-file format: 'q k n', optional multiplicities, rows."""
    lines = [f"{q} {len(rows)} {len(rows[0])}"]
    if mult is not None and any(m != 1 for m in mult):
        lines.append(" ".join(map(str, mult)))
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


class _OpList:
    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.ops: list[Op] = []
        self.files = 0

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    def write(self, q: int, rows, mult=None) -> str:
        self.files += 1
        path = self.workdir / f"m{self.files}.mat"
        path.write_text(matrix_text(q, rows, mult))
        return str(path)

    def verify(self, q, k, n, mult=None, flag=None):
        rows = systematic_rows(self.rng, q, k, n)
        argv = ["verify", "--in", self.write(q, rows, mult)] + ([flag] if flag else [])
        params = {"q": q, "rows": rows, "mult": mult or [1] * n, "flag": flag}
        self.ops.append(Op("verify", argv, params, (q, k)))

    def embed(self, q, k, n, flags=()):
        rows = systematic_rows(self.rng, q, k, n)
        argv = ["construct", "embed", "--q", str(q), "--k", str(k),
                "--in", self.write(q, rows), *flags]
        self.ops.append(Op("embed", argv, {"q": q, "rows": rows, "flags": list(flags)}, (q, k)))

    def embed_identity(self, q, k, flags=()):
        argv = ["construct", "embed", "--q", str(q), "--k", str(k), "--source", "identity", *flags]
        rows = [[int(i == j) for j in range(k)] for i in range(k)]
        self.ops.append(Op("embed", argv, {"q": q, "rows": rows, "flags": list(flags),
                                           "source": "identity"}, (q, k)))

    def repetition(self, q, k, n, flags=()):
        rows = systematic_rows(self.rng, q, k, n)
        profile = [int(x) for x in self.rng.integers(1, 5, size=n)]
        argv = ["construct", "repetition", "--q", str(q), "--k", str(k),
                "--in", self.write(q, rows), "--profile", ",".join(map(str, profile)), *flags]
        params = {"q": q, "rows": rows, "mult": profile, "flags": list(flags)}
        self.ops.append(Op("repetition", argv, params, (q, k)))

    def simplex(self, q, k, flags=("--verify-qm",)):
        argv = ["construct", "simplex", "--q", str(q), "--k", str(k), *flags]
        self.ops.append(Op("simplex", argv, {"q": q, "k": k, "flags": list(flags)}, (q, k)))

    def search(self, q, k, n_lo, n_hi, target="mws", mode="random", trials=None, workers=1):
        argv = ["search", "--q", str(q), "--k", str(k), "--n", f"{n_lo}..{n_hi}",
                "--target", target, "--mode", mode]
        params = {"q": q, "k": k, "n_lo": n_lo, "n_hi": n_hi, "target": target,
                  "mode": mode, "trials": trials, "seed": None}
        if mode == "random":
            params["seed"] = self.seed()
            argv += ["--trials", str(trials), "--seed", str(params["seed"])]
        if workers != 1:
            argv += ["--workers", str(workers)]
        self.ops.append(Op("search", argv, params, (q, k)))

    def gv(self, q, k, trials):
        seed = self.seed()
        argv = ["search", "--q", str(q), "--k", str(k), "--gv",
                "--trials", str(trials), "--seed", str(seed)]
        self.ops.append(Op("gv", argv, {"q": q, "k": k, "trials": trials, "seed": seed}, (q, k)))

    def montecarlo(self, q, k, n, samples, workers=1):
        seed = self.seed()
        argv = ["montecarlo", "--q", str(q), "--k", str(k), "--n", str(n),
                "--samples", str(samples), "--seed", str(seed)]
        if workers != 1:
            argv += ["--workers", str(workers)]
        params = {"q": q, "k": k, "n": n, "samples": samples, "seed": seed}
        self.ops.append(Op("montecarlo", argv, params, (q, k)))

    def bounds(self, qs, ks, fmt="json"):
        argv = ["bounds", "--q", ",".join(map(str, qs)), "--k", ",".join(map(str, ks)),
                "--format", fmt]
        self.ops.append(Op("bounds", argv, {"qs": list(qs), "ks": list(ks), "format": fmt}))


def _verify_ops(b: _OpList) -> None:
    # Enumeration-heavy: 2^10 <= q^k <= 2^16 over every small field.
    for q, k, n in [(2, 16, 48), (2, 14, 40), (2, 12, 30), (2, 10, 24), (3, 10, 24),
                    (3, 7, 16), (4, 8, 20), (4, 6, 16), (7, 5, 14), (8, 5, 15), (9, 5, 14)]:
        b.verify(q, k, n)
    b.verify(3, 9, 20, flag="--qm")
    b.verify(5, 6, 18, flag="--mws")
    # Six codes of one shape with a cost near the median op's, so the median
    # falls inside a group of equal-cost ops.
    for _ in range(6):
        b.verify(2, 11, 28)
    # Doubling profiles m_i = 2^i: N < 2^62 takes the int64 weight path,
    # n >= 63 the arbitrary-precision one.
    b.verify(2, 12, 40, mult=[2**i for i in range(40)])
    b.verify(2, 10, 64, mult=[2**i for i in range(64)])
    b.verify(5, 4, 63, mult=[2**i for i in range(63)])
    b.embed(2, 12, 40, flags=("--verify-mws",))
    b.embed(3, 6, 24)
    b.embed_identity(2, 8, flags=("--verify-mws",))
    b.repetition(3, 8, 20, flags=("--verify-qm", "--verify-mws"))
    b.simplex(4, 6)


def _search_ops(b: _OpList) -> None:
    # Cheap ops: GV searches, small exhaustive scans (the k = 2 MWS threshold
    # q(q+1)/2 and 2^k - 1 for q = 2 decide their verdicts), a small QM
    # search and a small Monte-Carlo run.
    for q, k in [(3, 2), (5, 2), (2, 4), (3, 3), (7, 2)]:
        b.gv(q, k, trials=50)
    b.search(3, 2, 5, 6, mode="exhaustive")
    b.search(2, 3, 6, 7, mode="exhaustive")
    b.search(8, 2, 7, 7, target="qm", trials=300)
    b.montecarlo(3, 2, 12, samples=300)
    # Six searches of one shape with different seeds: the median op falls
    # inside this group.  Random MWS searches sit one below the lower bound
    # and random QM searches at k = 2, n < q, so no witness can exist and
    # every trial runs.
    for _ in range(6):
        b.search(4, 2, 9, 9, trials=800)
    for q, k, trials in [(5, 2, 700), (7, 2, 350), (3, 3, 280), (2, 5, 120), (2, 3, 700)]:
        n = mws_lower_bound(q, k) - 1
        b.search(q, k, n, n, trials=trials)
    b.search(7, 2, 6, 6, target="qm", trials=1000)
    b.search(4, 2, 5, 5, mode="exhaustive")
    b.montecarlo(2, 2, 21, samples=800)
    # A fixed share of ops runs on a two-worker pool.
    b.search(4, 2, 9, 9, trials=1200, workers=2)
    b.search(3, 2, 4, 5, trials=600, workers=2)
    b.search(4, 2, 5, 5, mode="exhaustive", workers=2)
    b.montecarlo(2, 2, 21, samples=800, workers=2)


def _bounds_ops(b: _OpList) -> None:
    for q in BOUNDS_Q:
        b.bounds([q], BOUNDS_K)
    b.bounds([3, 4, 5], [2], fmt="csv")


def _largefield_ops(b: _OpList) -> None:
    # Fields above the 256-element table limit use per-element polynomial
    # arithmetic; 128, 243 and 256 are table-built in set-up.  Ops come in
    # groups of about equal cost, sized so that the median falls in the
    # middle of the GF(257) group and the tail inside the GF(512) group,
    # not on the edge between two op sizes.
    for q, n in [(243, 6), (243, 14), (256, 8), (256, 16)]:
        b.verify(q, 2, n)
    for q in (128, 243, 256):
        b.simplex(q, 2)
    for _ in range(6):
        b.verify(257, 2, 8)
    for _ in range(3):
        b.verify(512, 2, 4)
    b.search(512, 2, 6, 6, target="qm", trials=2)
    b.montecarlo(512, 2, 6, samples=2)
    b.verify(2187, 2, 3)


_MAKERS = {
    "verify": _verify_ops,
    "search": _search_ops,
    "bounds": _bounds_ops,
    "largefield": _largefield_ops,
}


def field_orders(ops: list[Op]) -> list[int]:
    """Every q the ops touch; set-up builds these fields."""
    qs: set[int] = set()
    for op in ops:
        qs.update(op.params.get("qs", []))
        if "q" in op.params:
            qs.add(op.params["q"])
    return sorted(qs)


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's op list for this seed, in seeded order; matrix files
    are written under workdir."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    b = _OpList(seed, workdir)
    _MAKERS[workload](b)
    order = b.rng.permutation(len(b.ops))
    return [b.ops[i] for i in order]
