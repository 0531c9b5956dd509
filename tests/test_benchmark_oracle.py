"""Every benchmark op against the benchmark's independent oracle.

Every op of the benchmark's four workloads runs through cli.main, and
benchmarks/checker.py must find no problem with its exit status and
payload: the checker recomputes existence, witness analyses and bounds with
its own oracle, never from the program's output.  The search, GV and
Monte-Carlo ops of the `search` and `largefield` workloads also run with a
small BLOCK_ROWS, which makes the scans cross many batch edges and the
pooled ops split into many chunks.  The `verify` and `construct` ops of the
`largefield` workload, [n, 2] codes over fields of 128 to 2187 elements,
take the point pass; those of the `verify` workload include the doubling
profiles, whose weights need one and several int64 limbs, and the checker
compares their whole payloads.  Beyond the workloads' fixed shapes,
hypothesis draws verify, construct and bounds ops over small fields.  The
benchmark's modules are imported read-only; their ops write their files
under a temporary directory.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mwscodes import cli, codes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import checker  # noqa: E402
import gen  # noqa: E402

SCAN_KINDS = ("search", "gv", "montecarlo")


def assert_checked(ops):
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(op.argv)
        assert checker.check(op, status, out.getvalue()) == [], op.argv


@pytest.mark.parametrize("rows", [codes.BLOCK_ROWS, 256])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scan_ops_pass_the_benchmark_checker(seed, rows, block_rows, tmp_path):
    block_rows(rows)
    ops = [op for workload in ("search", "largefield")
           for op in gen.make_ops(workload, seed, tmp_path / workload) if op.kind in SCAN_KINDS]
    assert len(ops) == 29
    assert_checked(ops)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_largefield_analyses_pass_the_benchmark_checker(seed, tmp_path):
    ops = [op for op in gen.make_ops("largefield", seed, tmp_path) if op.kind not in SCAN_KINDS]
    assert len(ops) == 17 and {op.argv[0] for op in ops} == {"verify", "construct"}
    assert all(op.shape[0] > 2 and op.shape[1] == 2 for op in ops)  # all take the point pass
    assert_checked(ops)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload, count", [("verify", 27), ("bounds", 8)])
def test_workload_ops_pass_the_benchmark_checker(workload, count, seed, tmp_path):
    ops = gen.make_ops(workload, seed, tmp_path)
    assert len(ops) == count
    assert_checked(ops)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(gen.BOUNDS_Q), k=st.integers(1, 4), extra=st.integers(0, 10),
       seed=st.integers(0, 2**32 - 1))
def test_drawn_ops_pass_the_benchmark_checker(q, k, extra, seed):
    # bounds runs on every (q, k) of the grid, whose cells the checker takes
    # from golden_bounds.json; the code ops keep q^k <= 2^10
    n = k + extra
    with tempfile.TemporaryDirectory() as tmp:
        b = gen._OpList(seed, Path(tmp))
        if q**k <= 2**10:
            b.verify(q, k, n)
            b.verify(q, k, n, mult=[2**i for i in range(n)])
            b.embed(q, k, n, flags=("--verify-qm", "--verify-mws"))
            b.repetition(q, k, n)
            b.simplex(q, k)
        b.bounds([q], [k])
        assert_checked(b.ops)
