"""The mwscodes benchmark: a closed loop of CLI invocations with one client.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all            # every workload, one table

Each op is one `mwscodes.cli.main(argv)` call made in-process, with stdout
captured.  A run generates the workload's op list from --seed, then repeats
the op list (a cycle) until the cycles have taken --seconds and at least four
ran; set-up is measured in fresh interpreters between the first cycles.  The
caches of the program are cleared before every op, as a CLI call starts cold,
except build_field's fields, which are set-up.  Times are scaled to a nominal
machine speed by a reference loop timed next to every op (REF_NOMINAL_S).
Outputs are checked after the timed region: the first cycle against an
independent oracle, later cycles for equality with the first.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from a
traced cycle, next to untraced and traced throughput.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

MIN_CYCLES = 4
SETUP_REPS = 5
# Times are reported at a nominal machine speed: each is multiplied by
# REF_NOMINAL_S over the reference loops' time measured next to it.  The
# value is that time on the 2-vCPU machine the benchmark was built on, whose
# speed drifts by up to 1.5x (2x for memory-bound work) over seconds to
# minutes under other load.
REF_NOMINAL_S = 0.0015
TIME_LIMIT_S = 120  # stop adding cycles past this, whatever --seconds says

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "fraction"),
]

PER_LAYER = [
    ("gf.field_builds", "count"),
    ("gf.build_field_s", "s"),
    ("gf.scalar_calls", "count"),
    ("gf.inv_calls", "count"),
    ("codes.enum_passes", "count"),
    ("codes.codewords_enumerated", "count"),
    ("codes.enum_frac", "fraction"),
    ("codes.codewords_per_s", "1/s"),
    ("codes.passes_per_report", "ratio"),
    ("codes.enum_bytes_computed", "bytes"),
    ("codes.reps_frac", "fraction"),
    ("codes.shape_repeat_frac", "fraction"),
    ("codes.gf_rank_calls", "count"),
    ("codes.gf_rank_frac", "fraction"),
    ("codes.validate_calls", "count"),
    ("codes.validate_self_frac", "fraction"),
    ("codes.weight_spectrum_self_frac", "fraction"),
    ("codes.is_qm_self_frac", "fraction"),
    ("codes.is_mws_self_frac", "fraction"),
    ("constructions.build_self_frac", "fraction"),
    ("search.random_code_calls", "count"),
    ("search.random_code_self_frac", "fraction"),
    ("search.trial_rng_frac", "fraction"),
    ("search.full_rank_ratio", "ratio"),
    ("search.driver_self_frac", "fraction"),
    ("search.pool_wait_frac", "fraction"),
    ("search.candidates_per_s", "1/s"),
    ("bounds.eqbound_frac", "fraction"),
    ("bounds.scan_steps", "count"),
    ("bounds.cap_hits", "count"),
    ("bounds.lambda_frac", "fraction"),
    ("bounds.report_self_frac", "fraction"),
    ("matrixio.load_frac", "fraction"),
    ("matrixio.dump_frac", "fraction"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
]

# Set-up as a CLI user pays it: a fresh interpreter imports the CLI and builds
# every field the workload uses.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mwscodes.cli; "
    "from mwscodes.gf import build_field; [build_field(int(q)) for q in sys.argv[2:]]"
)

_GATHER_TABLE = np.arange(256 * 256, dtype=np.int64).reshape(256, 256) % 251
_GATHER_ROWS, _GATHER_COLS = np.random.default_rng(0).integers(0, 256, size=(2, 200_000))

_WALL = re.compile(r'"wall_clock_seconds": [-+0-9.eE]+')


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*gen.WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def reset_caches(modules) -> None:
    """Clear every functools cache of the program except build_field's."""
    for mod in modules:
        for attr, obj in vars(mod).items():
            if attr != "build_field" and hasattr(obj, "cache_clear"):
                obj.cache_clear()


def reference_loop() -> float:
    """The machine's current speed, measured without mwscodes: the geometric
    mean of the best of three timings of a pure-Python loop and of a numpy
    table gather, because the program's time is a mix of interpreter-bound
    and memory-bound work and the two slow down by different amounts."""
    best_py = best_np = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for j in range(20_000):
            acc += j * j
        t1 = time.perf_counter()
        _GATHER_TABLE[_GATHER_ROWS, _GATHER_COLS].sum()
        t2 = time.perf_counter()
        best_py, best_np = min(best_py, t1 - t0), min(best_np, t2 - t1)
    return (best_py * best_np) ** 0.5


def run_op(cli, op: gen.Op):
    """(status, stdout, seconds, reference-loop seconds measured just before)."""
    ref = reference_loop()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            status = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the argv
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error fails the op, not the run
            status = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return status, out.getvalue(), dt, ref


def run_cycles(cli, modules, ops, seconds, min_cycles, tracer=None, between=None):
    """Repeat the op list until the cycles have taken `seconds` and
    `min_cycles` ran.  Returns per cycle the run_op record of each op; with
    a tracer, also the spans and counts of the first cycle.
    `between` runs after each cycle, outside the measured time."""
    cycles, first_trace = [], None
    elapsed = 0.0
    while True:
        if tracer:
            tracer.reset()
            tracer.active = True
        t0 = time.perf_counter()
        records = []
        for i, op in enumerate(ops):
            # A CLI call starts with cold caches, so every op does; field
            # tables are the exception, being set-up.
            reset_caches(modules)
            if tracer:
                tracer.op = i
            records.append(run_op(cli, op))
        elapsed += time.perf_counter() - t0
        if tracer:
            tracer.active = False
            if first_trace is None:
                first_trace = (list(tracer.spans), tracer.counts())
        cycles.append(records)
        if between:
            between()
        if elapsed >= seconds and len(cycles) >= min_cycles:
            break
        if elapsed * (len(cycles) + 1) / len(cycles) > TIME_LIMIT_S:
            break
    return cycles, first_trace


def check_cycles(ops, cycles) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): cycle one against the oracle, the rest
    against cycle one."""
    attempted = failed = 0
    problems = []
    for i, op in enumerate(ops):
        status, stdout = cycles[0][i][:2]
        first = checker.check(op, status, stdout)
        problems += [f"{' '.join(op.argv)}: {p}" for p in first]
        ref = checker.normalized(stdout)
        for c, cycle in enumerate(cycles):
            attempted += 1
            st, out = cycle[i][:2]
            if first or st != status or (c and checker.normalized(out) != ref):
                failed += 1
                if not first and c:
                    problems.append(f"{' '.join(op.argv)}: cycle {c + 1} differs from cycle 1")
    return attempted, failed, problems


def setup_once(qs) -> float:
    """One set-up in a fresh interpreter, scaled to the nominal speed."""
    ref = reference_loop()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, qs)],
                   cwd=ROOT, check=True)
    dt = time.perf_counter() - t0
    return dt * REF_NOMINAL_S / ((ref + reference_loop()) / 2)


def tail(samples: list[float], n_ops: int) -> tuple[float, float]:
    """(value, percentile) of the latency tail.  The percentile is the
    highest one with ten samples beyond it in MIN_CYCLES cycles; it is read
    from all the run's samples, so it has at least ten beyond it and does
    not move with the number of cycles that fitted."""
    s = sorted(samples)
    beyond = 10 * len(s) // (MIN_CYCLES * n_ops)
    return s[-beyond - 1], 100.0 * (1 - 10 / (MIN_CYCLES * n_ops))


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children (pool workers
    and set-up interpreters), whichever is larger."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def scaled(cycle) -> list[float]:
    """The cycle's op latencies at the nominal machine speed."""
    factor = REF_NOMINAL_S / statistics.median(r[3] for r in cycle)
    return [r[2] * factor for r in cycle]


def ops_rate(cycles) -> float:
    """Ops per second over one pass of the op list, each op at its median
    scaled latency over the cycles."""
    per_cycle = [scaled(c) for c in cycles]
    return len(cycles[0]) / sum(statistics.median(c[i] for c in per_cycle)
                                for i in range(len(cycles[0])))


def end_to_end(cycles, setup_times, rss, attempted, failed):
    latencies = [x for c in cycles for x in scaled(c)]
    tail_s, pct = tail(latencies, len(cycles[0]))
    speed = REF_NOMINAL_S / statistics.median(r[3] for c in cycles for r in c)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_rate(cycles),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "peak_rss_mb": rss,
        "ok_rate": 1 - failed / attempted,
    }
    raw_rate = len(cycles[0]) / statistics.median(sum(r[2] for r in c) for c in cycles)
    notes = {
        "ops_per_s": f"{len(cycles[0])} ops x {len(cycles)} cycles; unscaled {raw_rate:.4g}/s",
        "op_p50_s": f"median of {len(latencies)} samples",
        "op_tail_s": f"p{pct:.1f} of {len(latencies)} samples",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "ok_rate": f"error_rate {failed / attempted:.4g} = {failed} failed / {attempted} attempted",
    }
    return metrics, notes, speed


def per_layer(ops, trace, untraced, traced, build_s, build_field):
    spans, tally = trace
    st = tracing.SpanStats(spans)
    traced_cycle = traced[0]
    total = sum(r[2] for r in traced_cycle)

    def frac(x):
        return x / total

    reports = st.by_name["codes.spectrum_report"]
    passes_in_reports = sum(1 for i in st.by_name["codes.codeword_matrix"]
                            if tracing.has_ancestor(spans, i, "codes.spectrum_report"))
    rank_in_random = sum(1 for i in st.by_name["codes.gf_rank"]
                         if spans[spans[i][tracing.PARENT]][tracing.NAME] == "search.random_code")
    pool_ops = {i for i, op in enumerate(ops) if op.workers > 1}
    pool_total = sum(traced_cycle[i][2] for i in pool_ops)
    search_ops = [i for i, op in enumerate(ops) if op.kind in ("search", "gv", "montecarlo")]
    candidates = sum(checker.candidates(ops[i], json.loads(traced_cycle[i][1])) for i in search_ops)
    driver_s = st.total(*tracing.DRIVERS)
    shapes = [op.shape for op in ops if op.shape]
    enum_s = st.total("codes.codeword_matrix")
    untraced_rate, traced_rate = ops_rate(untraced), ops_rate(traced)
    return {
        "gf.field_builds": build_field.cache_info().misses,
        "gf.build_field_s": build_s,
        "gf.scalar_calls": sum(tally.get(f"gf.{m}", 0) for m in tracing.GF_SCALAR),
        "gf.inv_calls": tally.get("gf.inv", 0),
        "codes.enum_passes": st.calls("codes.codeword_matrix"),
        "codes.codewords_enumerated": tally.get("codes.codewords", 0),
        "codes.enum_frac": frac(enum_s),
        "codes.codewords_per_s": tally.get("codes.codewords", 0) / enum_s if enum_s else 0.0,
        "codes.passes_per_report": passes_in_reports / len(reports) if reports else 0.0,
        "codes.enum_bytes_computed": tally.get("codes.enum_bytes_max", 0),
        "codes.reps_frac": frac(st.total("codes.projective_representatives")),
        "codes.shape_repeat_frac": (len(shapes) - len(set(shapes))) / len(shapes) if shapes else 0.0,
        "codes.gf_rank_calls": st.calls("codes.gf_rank"),
        "codes.gf_rank_frac": frac(st.total("codes.gf_rank")),
        "codes.validate_calls": st.calls("codes.LinearCode.__post_init__"),
        "codes.validate_self_frac": frac(st.self_time(lambda n: n == "codes.LinearCode.__post_init__")),
        "codes.weight_spectrum_self_frac": frac(st.self_time(lambda n: n == "codes.weight_spectrum")),
        "codes.is_qm_self_frac": frac(st.self_time(lambda n: n == "codes.is_qm")),
        "codes.is_mws_self_frac": frac(st.self_time(lambda n: n == "codes.is_mws")),
        "constructions.build_self_frac": frac(st.self_time(lambda n: n.startswith("constructions."))),
        "search.random_code_calls": st.calls("search.random_code"),
        "search.random_code_self_frac": frac(st.self_time(lambda n: n == "search.random_code")),
        "search.trial_rng_frac": frac(st.total("search.trial_rng")),
        "search.full_rank_ratio": st.calls("search.random_code") / rank_in_random if rank_in_random else 0.0,
        "search.driver_self_frac": (st.self_time(lambda n: n in tracing.DRIVERS, ops=pool_ops)
                                    / pool_total if pool_total else 0.0),
        "search.pool_wait_frac": (st.total("search.pool_wait", ops=pool_ops) / pool_total
                                  if pool_total else 0.0),
        "search.candidates_per_s": candidates / driver_s if driver_s else 0.0,
        "bounds.eqbound_frac": frac(st.total("bounds.eqbound_min_n")),
        "bounds.scan_steps": tally.get("bounds.scan_steps", 0),
        "bounds.cap_hits": tally.get("bounds.cap_hits", 0),
        "bounds.lambda_frac": frac(st.total("bounds.lambda_q")),
        "bounds.report_self_frac": frac(st.self_time(lambda n: n == "bounds.bounds_report")),
        "matrixio.load_frac": frac(st.total("matrixio.load_code", "matrixio.loads_code")),
        "matrixio.dump_frac": frac(st.total("matrixio.save_code", "matrixio.dumps_code")),
        "cli.self_s": st.self_time(lambda n: n.startswith("cli.")),
        "cli.bytes_out": sum(len(_WALL.sub('"wall_clock_seconds": 0', r[1])) for r in traced_cycle),
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_frac": 1 - traced_rate / untraced_rate,
        "trace.spans": len(spans),
    }


def write_trace(workload, seed, ops, trace) -> Path:
    spans, tally = trace
    names = sorted({sp[0] for sp in spans})
    index = {n: i for i, n in enumerate(names)}
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json.gz"
    out.parent.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "ops": [op.argv for op in ops],
           "names": names, "span_fields": ["name", "start", "end", "parent", "op"],
           "spans": [[index[sp[0]], *sp[1:]] for sp in spans], "tally": tally}
    with gzip.open(out, "wt") as fh:
        json.dump(doc, fh)
    return out


def run_workload(args, workdir: Path) -> tuple[dict, list[str]]:
    ops = gen.make_ops(args.workload, args.seed, workdir)
    qs = gen.field_orders(ops)
    import mwscodes
    import mwscodes.cli  # noqa: F401  (the package does not import its CLI)

    modules = tracing.layer_modules(mwscodes).values()
    # Build the fields before any op, so no op pays for a table; the time is
    # the traced run's gf.build_field_s.
    build_field = mwscodes.gf.build_field
    t0 = time.perf_counter()
    for q in qs:
        build_field(q)
    build_s = time.perf_counter() - t0
    lines = [f"workload {args.workload}: {len(ops)} ops per cycle, seed {args.seed}, "
             f"closed loop, 1 client, fields {qs}"]

    if not args.trace:
        # Set-up repeats are spread between the first cycles, so they sample
        # the machine's speed phases the way the cycles do.
        setup_times = []

        def between():
            if len(setup_times) < SETUP_REPS:
                setup_times.append(setup_once(qs))

        cycles, _ = run_cycles(mwscodes.cli, modules, ops, args.seconds, MIN_CYCLES,
                               between=between)
        while len(setup_times) < SETUP_REPS:
            between()
        rss = peak_rss_mb()
        attempted, failed, problems = check_cycles(ops, cycles)
        metrics, notes, speed = end_to_end(cycles, setup_times, rss, attempted, failed)
        units = dict(END_TO_END)
        lines.append(f"{len(cycles)} cycles; machine at {speed:.2f}x the nominal speed; "
                     f"times below are scaled to the nominal speed")
    else:
        half = args.seconds / 2
        untraced, _ = run_cycles(mwscodes.cli, modules, ops, half, 2)
        tracer = tracing.Tracer(mwscodes)
        tracer.install()
        try:
            traced, trace = run_cycles(mwscodes.cli, modules, ops, half, 1, tracer)
        finally:
            tracer.uninstall()
        cycles = untraced + traced
        attempted, failed, problems = check_cycles(ops, cycles)
        metrics = per_layer(ops, trace, untraced, traced, build_s, build_field)
        units, notes = dict(PER_LAYER), {}
        path = write_trace(args.workload, args.seed, ops, trace)
        lines.append(f"{len(untraced)} untraced + {len(traced)} traced cycles; "
                     f"tracing overhead {metrics['trace.overhead_frac']:.1%} of ops_per_s; "
                     f"spans in {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:34s} {value:>14.6g} {units[name]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines + [f"FAILED {p}" for p in problems]


def run_all(args) -> int:
    """Every workload in a fresh interpreter, one table."""
    results, status = {}, 0
    for wl in gen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", wl, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        results[wl] = json.loads(lines[-1])
        status |= not results[wl]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mwscodes" / "__init__.py").is_file():
        print(f"no mwscodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, lines = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
