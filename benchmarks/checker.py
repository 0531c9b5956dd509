"""Output checker behind the benchmark's failure count.

check(op, status, stdout) returns the problems found in one op's result; an
empty list means the op is correct.  Expected payloads come from the oracle
over the generator's own inputs, from theorems that settle existence, or,
for bound cells, from the payload recorded at the commit that defined the
benchmark (golden_bounds.json).  Fields that legitimately vary are recorded
by the program but not compared: wall_clock_seconds, witness indices and
candidates_examined.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import oracle
from gen import Op, matrix_text

GOLDEN = json.loads((Path(__file__).parent / "golden_bounds.json").read_text())
_GOLDEN_CELLS = {(c["q"], c["k"]): c for c in GOLDEN["cells"]}


def normalized(stdout: str):
    """The payload with wall_clock_seconds removed, for comparing the same
    op across cycles; CSV output stays text."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "wall_clock_seconds"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return strip(payload)


def check(op: Op, status, stdout: str) -> list[str]:
    if not isinstance(status, int):
        return [f"op raised: {status}"]
    try:
        if op.kind == "bounds" and op.params["format"] == "csv":
            return _check_bounds_csv(op, status, stdout)
        payload = json.loads(stdout)
        return _CHECKS[op.kind](op, status, payload)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def _status(expected_ok: bool, status: int) -> list[str]:
    want = 0 if expected_ok else 1
    return [] if status == want else [f"exit status {status}, expected {want}"]


def _diff(label: str, got, want) -> list[str]:
    if got == want:
        return []
    if isinstance(got, dict) and isinstance(want, dict):
        keys = sorted(set(got) | set(want), key=str)
        bad = [k for k in keys if got.get(k, "<missing>") != want.get(k, "<missing>")]
        return [f"{label}: field {k!r} is {got.get(k, '<missing>')!r:.80}, "
                f"expected {want.get(k, '<missing>')!r:.80}" for k in bad]
    return [f"{label}: {got!r:.80} != {want!r:.80}"]


def _verification(flags, analysis: oracle.Analysis) -> dict:
    checks = {}
    if "--verify-qm" in flags:
        checks["is_qm"] = analysis.is_qm
    if "--verify-mws" in flags:
        checks["is_mws"] = analysis.is_mws
    return checks


def _check_verify(op, status, payload):
    p = op.params
    a = oracle.Analysis(p["q"], p["rows"], p["mult"])
    requested = {"--qm": [a.is_qm], "--mws": [a.is_mws], None: [a.is_qm, a.is_mws]}[p["flag"]]
    return _diff("spectrum", payload, a.report()) + _status(all(requested), status)


def _check_simplex(op, status, payload):
    q, k = op.params["q"], op.params["k"]
    rows = oracle.simplex_rows(q, k)
    a = oracle.Analysis(q, rows)
    want = {"construction": "simplex", **a.report(), "matrix": matrix_text(q, rows)}
    checks = _verification(op.params["flags"], a)
    if checks:
        want["verification"] = checks
    return _diff("simplex", payload, want) + _status(all(checks.values()), status)


def _check_embed(op, status, payload):
    p = op.params
    q, rows = p["q"], p["rows"]
    k, n = len(rows), len(rows[0])
    base = oracle.Analysis(q, rows)
    if not base.is_qm:
        problems = [] if payload.get("error") == "NotQuasiMinimal" else ["non-QM base accepted"]
        return problems + _status(False, status)
    doubling = [2**j for j in range(n)]
    emb = oracle.Analysis(q, rows, doubling)
    want = {
        "construction": p.get("source", "external"),
        "base": base.report(),
        "embedded": {"q": q, "k": k, "base_length": n, "effective_length": 2**n - 1,
                     "distinct_weights": len(emb.counts), "is_mws": emb.is_mws},
        "matrix": matrix_text(q, rows, doubling),
    }
    checks = _verification(p["flags"], emb)
    if checks:
        want["verification"] = checks
    return _diff("embed", payload, want) + _status(all(checks.values()), status)


def _check_repetition(op, status, payload):
    p = op.params
    a = oracle.Analysis(p["q"], p["rows"], p["mult"])
    want = {"construction": "repetition", **a.report(),
            "matrix": matrix_text(p["q"], p["rows"], p["mult"])}
    checks = _verification(p["flags"], a)
    if checks:
        want["verification"] = checks
    return _diff("repetition", payload, want) + _status(all(checks.values()), status)


def _witness(q: int, k: int, n: int, witness: dict, target: str) -> tuple[list[str], oracle.Analysis | None]:
    """Re-verify a witness matrix from its text with the oracle."""
    wq, rows, mult = oracle.parse_matrix(witness["matrix"])
    if (wq, len(rows), len(rows[0])) != (q, k, n) or any(m != 1 for m in mult):
        return [f"witness has shape {(wq, len(rows), len(rows[0]))}, expected {(q, k, n)}"], None
    if oracle.rank(oracle.field(q), rows) != k:
        return ["witness is not full rank"], None
    a = oracle.Analysis(q, rows)
    problems = []
    if not (a.is_mws if target == "mws" else a.is_qm):
        problems.append(f"witness is not {target.upper()}")
    if witness["has_zero_column"] != a.has_zero_column:
        problems.append("witness has_zero_column is wrong")
    return problems, a


def _check_search(op, status, payload):
    p = op.params
    q, k, target, mode = p["q"], p["k"], p["target"], p["mode"]
    echo = {"q": q, "k": k, "target": target, "mode": mode,
            "trials": p["trials"] if mode == "random" else None,
            "seed": p["seed"] if mode == "random" else None}
    problems = _diff("search", {key: payload[key] for key in echo}, echo)
    lengths = payload["lengths"]
    ns = list(range(p["n_lo"], p["n_hi"] + 1))
    if [e["n"] for e in lengths] != ns:
        return problems + [f"lengths cover {[e['n'] for e in lengths]}, expected {ns}"]
    shortest = None
    for e in lengths:
        n = e["n"]
        exists = (oracle.mws_exists if target == "mws" else oracle.qm_exists)(q, k, n)
        if exists is not None and e["found"] != exists:
            problems.append(f"n={n}: found={e['found']}, but existence is {exists}")
        if e["definitive"] != (mode == "exhaustive"):
            problems.append(f"n={n}: definitive={e['definitive']}")
        if e["found"]:
            shortest = n if shortest is None else shortest
            problems += _witness(q, k, n, e["witness"], target)[0]
        elif e["witness"] is not None:
            problems.append(f"n={n}: witness given without found")
    if payload["shortest_success"] != shortest:
        problems.append(f"shortest_success {payload['shortest_success']}, expected {shortest}")
    return problems + _status(True, status)


def _check_gv(op, status, payload):
    p = op.params
    q, k = p["q"], p["k"]
    n = oracle.gv_length(q, k)
    echo = {"q": q, "k": k, "n": n, "target": "qm", "seed": p["seed"], "trials": p["trials"]}
    problems = _diff("gv", {key: payload[key] for key in echo}, echo)
    if payload["found"]:
        wp, a = _witness(q, k, n, payload["witness"], "qm")
        problems += wp
        path = payload["acceptance_path"]
        if path not in ("sufficient_dn", "support_check"):
            problems.append(f"unknown acceptance path {path!r}")
        elif a is not None and path == "sufficient_dn" and not min(a.counts) * (q - 1) > (q - 2) * n:
            problems.append("sufficient_dn path taken but d/n <= (q-2)/(q-1)")
    return problems + _status(True, status)


def _check_montecarlo(op, status, payload):
    p = op.params
    bound = oracle.eqbound_fraction(p["q"], p["k"], p["n"])
    echo = {"q": p["q"], "k": p["k"], "n": p["n"], "samples": p["samples"], "seed": p["seed"],
            "bound_exact": f"{bound.numerator}/{bound.denominator}", "bound": float(bound)}
    problems = _diff("montecarlo", {key: payload[key] for key in echo}, echo)
    mean, stderr = payload["mean"], payload["stderr"]
    if not (mean >= 0 and stderr >= 0 and 0 <= payload["mws_fraction"] <= 1):
        problems.append("negative mean or stderr, or mws_fraction outside [0, 1]")
    if not mean <= float(bound) + 4 * stderr:
        problems.append(f"mean {mean} exceeds bound {float(bound)} + 4 stderr {stderr}")
    return problems + _status(True, status)


def _eqbound_problems(q: int, k: int, value) -> list[str]:
    """The threshold n must satisfy the bound while n - 1 does not; None
    means the bound still fails at the cap."""
    if value is None:
        ok = not oracle.eqbound_holds(q, k, GOLDEN["eqbound_cap"])
    else:
        ok = oracle.eqbound_holds(q, k, value) and (
            value - 1 < max(k, 1) or not oracle.eqbound_holds(q, k, value - 1))
    return [] if ok else [f"({q},{k}): eqbound_min_n={value} is not the threshold"]


def _cells(op):
    return [(q, k) for q in op.params["qs"] for k in op.params["ks"]]


def _check_bounds(op, status, payload):
    cells = payload["cells"]
    want_cells = _cells(op)
    if [(c["q"], c["k"]) for c in cells] != want_cells:
        return [f"cells {[(c['q'], c['k']) for c in cells]}, expected {want_cells}"]
    problems = []
    for cell in cells:
        q, k = cell["q"], cell["k"]
        problems += _eqbound_problems(q, k, cell.pop("eqbound_min_n"))
        problems += _diff(f"bounds({q},{k})", cell, _GOLDEN_CELLS[(q, k)])
    return problems + _status(True, status)


def _check_bounds_csv(op, status, stdout):
    reader = csv.DictReader(io.StringIO(stdout))
    if reader.fieldnames != GOLDEN["fields"]:
        return [f"csv header {reader.fieldnames}"]
    rows = list(reader)
    want_cells = _cells(op)
    if [(int(r["q"]), int(r["k"])) for r in rows] != want_cells:
        return [f"csv rows do not cover {want_cells}"]
    problems = []
    for row, (q, k) in zip(rows, want_cells):
        threshold = row.pop("eqbound_min_n")
        problems += _eqbound_problems(q, k, int(threshold) if threshold else None)
        want = {f: "" if v is None else str(v) for f, v in _GOLDEN_CELLS[(q, k)].items()}
        problems += _diff(f"csv({q},{k})", row, want)
    return problems + _status(True, status)


_CHECKS = {
    "verify": _check_verify,
    "simplex": _check_simplex,
    "embed": _check_embed,
    "repetition": _check_repetition,
    "search": _check_search,
    "gv": _check_gv,
    "montecarlo": _check_montecarlo,
    "bounds": _check_bounds,
}


def candidates(op: Op, payload) -> int:
    """Candidates a search-layer op examined, read from its payload."""
    if op.kind == "search":
        return sum(e.get("candidates_examined", 0) for e in payload["lengths"])
    if op.kind == "gv":
        return payload["witness_trial"] + 1 if payload["found"] else payload["trials"]
    if op.kind == "montecarlo":
        return payload["samples"]
    return 0

