"""Tests of the benchmark's own generator, checker and span arithmetic.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from mwscodes import cli  # noqa: E402


@pytest.fixture
def workdir(request):
    path = ROOT / ".bench_work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _snapshot(ops, root: Path):
    return [(op.kind, [a.replace(str(root), "<dir>") for a in op.argv], op.params, op.shape)
            for op in ops]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload, workdir):
    a = gen.make_ops(workload, 7, workdir / "a")
    b = gen.make_ops(workload, 7, workdir / "b")
    assert _snapshot(a, workdir / "a") == _snapshot(b, workdir / "b")
    files = sorted(p.name for p in (workdir / "a").iterdir())
    assert files == sorted(p.name for p in (workdir / "b").iterdir())
    for name in files:
        assert (workdir / "a" / name).read_text() == (workdir / "b" / name).read_text()
    c = _snapshot(gen.make_ops(workload, 8, workdir / "c"), workdir / "c")
    assert c != _snapshot(a, workdir / "a")
    if workload == "bounds":  # bound ops are seed-independent; only their order moves
        assert sorted(map(str, c)) == sorted(map(str, _snapshot(a, workdir / "a")))


def test_search_lengths_sit_below_the_lower_bound(workdir):
    for op in gen.make_ops("search", 3, workdir):
        p = op.params
        if op.kind == "search" and p["mode"] == "random":
            if p["target"] == "mws":
                assert p["n_hi"] < gen.mws_lower_bound(p["q"], p["k"])
            else:
                assert p["k"] == 2 and p["n_hi"] < p["q"]


def _op(workdir, kind="verify", **kw):
    b = gen._OpList(5, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    getattr(b, kind)(**kw)
    return b.ops[0]


def test_checker_accepts_real_outputs_and_rejects_an_altered_count(workdir):
    op = _op(workdir, q=3, k=4, n=9)
    status, out = run.run_op(cli, op)[:2]
    assert checker.check(op, status, out) == []
    payload = json.loads(out)
    w = next(iter(payload["counts"]))
    payload["counts"][w] += 1
    assert checker.check(op, status, json.dumps(payload))


def test_checker_rejects_an_unexpected_exit_status(workdir):
    op = _op(workdir, q=3, k=4, n=9)
    status, out = run.run_op(cli, op)[:2]
    assert status == 1  # a random [9,4]_3 code cannot be MWS: 9 < 20
    assert checker.check(op, 0, out)
    assert checker.check(op, "AssertionError: boom", out)


def test_checker_rejects_a_non_mws_witness(workdir):
    op = _op(workdir, kind="search", q=3, k=2, n_lo=5, n_hi=6, mode="exhaustive")
    status, out = run.run_op(cli, op)[:2]
    assert checker.check(op, status, out) == []
    payload = json.loads(out)
    entry = payload["lengths"][1]
    assert entry["found"]
    entry["witness"]["matrix"] = "3 2 6\n1 0 1 1 1 1\n0 1 1 1 1 1\n"  # columns repeat
    assert any("not MWS" in p for p in checker.check(op, status, json.dumps(payload)))


def test_failed_ops_are_counted_per_cycle(workdir):
    op = _op(workdir, q=2, k=4, n=9)
    good = run.run_op(cli, op)
    bad_status = (0 if good[0] else 1, *good[1:])
    attempted, failed, _ = run.check_cycles([op], [[good], [good], [bad_status]])
    assert (attempted, failed) == (3, 1)
    attempted, failed, _ = run.check_cycles([op], [[bad_status], [bad_status]])
    assert (attempted, failed) == (2, 2)


def test_self_time_subtracts_the_union_of_children():
    S = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union covers [1, 6]
        ["leaf", 7.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert tracing.self_times(S) == pytest.approx([10 - 5 - 3, 3 - 1, 1, 3, 5])


def test_totals_do_not_count_a_span_nested_in_one_of_the_same_name():
    S = [
        ["f", 0.0, 4.0, -1, 0],
        ["g", 1.0, 3.0, 0, 0],
        ["f", 1.5, 2.5, 1, 0],
        ["f", 5.0, 6.0, -1, 1],
    ]
    st = tracing.SpanStats(S)
    assert st.total("f") == pytest.approx(5.0)
    assert st.total("f", ops={1}) == pytest.approx(1.0)
    assert st.total("f", "g") == pytest.approx(5.0)
    assert st.calls("f") == 3


def test_tracer_wraps_every_binding_and_restores_it():
    import mwscodes

    codes, search = (tracing.layer_modules(mwscodes)[m] for m in ("codes", "search"))
    tracer = tracing.Tracer(mwscodes)
    originals = (cli.main, search.is_mws, codes.is_mws, codes.GF.mul)
    tracer.install()
    try:
        assert search.is_mws is codes.is_mws is not originals[1]
        tracer.active = True
        code = mwscodes.identity_code(2, 3)
        assert not search.is_mws(code)  # weights 1, 2, 3 for 7 codewords
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (cli.main, search.is_mws, codes.is_mws, codes.GF.mul) == originals
    names = [sp[0] for sp in tracer.spans]
    assert "codes.is_mws" in names and "codes.codeword_matrix" in names
    parent = tracer.spans[names.index("codes.weight_spectrum")][tracing.PARENT]
    assert tracer.spans[parent][0] == "codes.is_mws"


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
