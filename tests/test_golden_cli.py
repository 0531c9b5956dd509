"""Golden CLI payloads: stdout and exit status of a fixed set of invocations.

The fixture `golden_cli.json` holds, for every case, the argv, the matrix
file it reads (if any), the exit status and stdout with `wall_clock_seconds`
masked.  A change that alters any payload fails here; if the change is
intended, record it in CHANGES.md and regenerate the fixture with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

FIXTURE = Path(__file__).with_name("golden_cli.json")
SCHEMAS = Path(__file__).resolve().parents[1] / "schemas"
WALL = re.compile(r'"wall_clock_seconds": [-+0-9.eE]+')


def _matrix(rng, q, k, n, mult=None) -> str:
    """A systematic [I | A] generator in the matrix-file format."""
    a = rng.integers(0, q, size=(k, n - k))
    rows = [[int(i == j) for j in range(k)] + a[i].tolist() for i in range(k)]
    lines = [f"{q} {k} {n}"]
    if mult is not None:
        lines.append(" ".join(map(str, mult)))
    lines += [" ".join(map(str, r)) for r in rows]
    return "\n".join(lines) + "\n"


def _doubling(n):
    return [2**i for i in range(n)]


def cases() -> list[tuple[list[str], str | None]]:
    """(argv, matrix text) pairs; "{in}" in argv names the matrix file."""
    rng = np.random.default_rng(20261018)
    out: list[tuple[list[str], str | None]] = [
        # The README examples (the random search runs on one worker: payloads
        # do not depend on --workers).
        (["construct", "simplex", "--q", "2", "--k", "3", "--verify-qm"], None),
        (["construct", "embed", "--q", "2", "--k", "4", "--source", "identity",
          "--verify-mws"], None),
        (["search", "--q", "3", "--k", "2", "--target", "mws", "--mode", "exhaustive",
          "--n", "5..6"], None),
        (["search", "--q", "4", "--k", "2", "--target", "mws", "--mode", "random",
          "--n", "10", "--trials", "100000", "--seed", "1"], None),
        (["search", "--q", "3", "--k", "2", "--gv", "--trials", "1000", "--seed", "0"], None),
        (["montecarlo", "--q", "2", "--k", "2", "--n", "21", "--samples", "20000",
          "--seed", "7"], None),
        (["bounds", "--q", "3,4,5", "--k", "2", "--format", "csv"], None),
        (["field-info", "--q", "9"], None),
    ]
    shapes = {2: (6, 14), 3: (4, 9), 4: (3, 8), 9: (3, 6), 27: (2, 5), 243: (2, 4),
              256: (2, 4), 257: (2, 4), 512: (2, 3), 2187: (2, 3)}
    for q, (k, n) in shapes.items():
        out.append((["verify", "--in", "{in}"], _matrix(rng, q, k, n)))
    for q, k in [(2, 5), (3, 3), (4, 3), (9, 2), (27, 2), (257, 2)]:
        out.append((["verify", "--in", "{in}"], _matrix(rng, q, k, 20, _doubling(20))))
        out.append((["verify", "--in", "{in}", "--mws"],
                    _matrix(rng, q, k, 64, _doubling(64))))
    out.append((["verify", "--in", "{in}", "--qm"], _matrix(rng, 3, 3, 12)))
    out.append((["verify", "--in", "{in}"], "2 2 3\n1 0 0\n0 1 1\n"))  # MWS stair
    checks = ["--verify-qm", "--verify-mws"]
    for q, k in [(2, 3), (3, 2), (4, 2), (9, 2)]:
        out.append((["construct", "simplex", "--q", str(q), "--k", str(k), *checks], None))
        out.append((["construct", "identity", "--q", str(q), "--k", str(k), *checks], None))
        out.append((["construct", "embed", "--q", str(q), "--k", str(k), "--source",
                     "simplex", *checks], None))
    out.append((["construct", "embed", "--q", "2", "--k", "5", "--source", "identity",
                 *checks], None))
    out.append((["construct", "embed", "--q", "3", "--k", "2", "--in", "{in}", *checks],
                _matrix(rng, 3, 2, 7)))
    out.append((["construct", "embed", "--q", "3", "--k", "2", "--in", "{in}"],
                "3 2 2\n1 0\n0 1\n"))  # not QM: exit 1
    for q, k, n in [(2, 3, 8), (3, 2, 5), (5, 2, 6)]:
        profile = ",".join(str(x) for x in rng.integers(1, 6, size=n))
        out.append((["construct", "repetition", "--q", str(q), "--k", str(k), "--in", "{in}",
                     "--profile", profile, *checks], _matrix(rng, q, k, n)))
    out += [
        (["search", "--q", "2", "--k", "3", "--n", "6..7", "--mode", "exhaustive"], None),
        (["search", "--q", "4", "--k", "2", "--n", "5", "--mode", "exhaustive",
          "--target", "qm"], None),
        (["search", "--q", "4", "--k", "2", "--n", "9", "--trials", "200", "--seed", "3"],
         None),
        (["search", "--q", "5", "--k", "2", "--n", "14..15", "--trials", "300",
          "--seed", "11"], None),
        (["search", "--q", "7", "--k", "2", "--n", "6", "--target", "qm", "--trials", "300",
          "--seed", "5"], None),
        (["search", "--q", "8", "--k", "2", "--n", "9", "--target", "qm", "--trials", "300",
          "--seed", "5"], None),
        (["search", "--q", "2", "--k", "4", "--gv", "--trials", "50", "--seed", "4"], None),
        (["search", "--q", "5", "--k", "2", "--gv", "--trials", "50", "--seed", "4"], None),
        (["montecarlo", "--q", "3", "--k", "2", "--n", "12", "--samples", "300",
          "--seed", "2"], None),
        (["montecarlo", "--q", "4", "--k", "2", "--n", "10", "--samples", "200",
          "--seed", "9"], None),
        (["bounds", "--q", "2,3,4,5,7,8,9", "--k", "1..3"], None),
        (["bounds", "--q", "11", "--k", "3"], None),
        (["bounds", "--q", "13", "--k", "2", "--format", "csv"], None),
        (["bounds", "--q", "16", "--k", "1"], None),
        (["field-info", "--q", "2187"], None),
        # Errors: a bad file, a non-prime-power q, a tripped enumeration guard.
        (["verify", "--in", "{in}"], "2 2 2\n1 0\n"),
        (["construct", "simplex", "--q", "6", "--k", "2"], None),
        (["construct", "identity", "--q", "2", "--k", "29"], None),
    ]
    return out


def run_case(argv, text, tmp: Path) -> dict:
    from mwscodes.cli import main

    if text is not None:
        (tmp / "in.mat").write_text(text)
    real = [a.replace("{in}", str(tmp / "in.mat")) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        status = main(real)
    stdout = WALL.sub('"wall_clock_seconds": 0', buf.getvalue())
    return {"argv": argv, "input": text, "exit": status, "stdout": stdout}


def _golden() -> list[dict]:
    return json.loads(FIXTURE.read_text())


def test_fixture_lists_every_case():
    assert [[g["argv"], g["input"]] for g in _golden()] == [list(c) for c in cases()]


@pytest.mark.parametrize("index", range(len(cases())))
def test_golden_payload(index, tmp_path):
    golden = _golden()[index]
    got = run_case(golden["argv"], golden["input"], tmp_path)
    assert (got["exit"], got["stdout"]) == (golden["exit"], golden["stdout"])


def _schema_name(argv: list[str], status: int) -> str | None:
    """The schema a command's JSON payload follows, if one covers it: an
    error's for exits 2 to 4 and for embed's exit 1, a non-QM source."""
    if status >= 2 or (status == 1 and argv[:2] == ["construct", "embed"]):
        return "error"
    if argv[0] == "construct":
        return "embed_report" if argv[1] == "embed" else "spectrum_report"
    if argv[0] == "verify":
        return "spectrum_report"
    if argv[0] == "search":
        return "gv_search_report" if "--gv" in argv else "search_report"
    if argv[0] == "montecarlo":
        return "montecarlo_report"
    if argv[0] == "bounds" and "csv" not in argv:
        return "bounds_report"
    return None


def test_golden_payloads_follow_their_schemas():
    from mwscodes.cli import _unlimited_int_str

    checked = 0
    for golden in _golden():
        name = _schema_name(golden["argv"], golden["exit"])  # exit 1 elsewhere: a verdict failed
        if name is None:
            continue
        schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
        with _unlimited_int_str():  # bounds cells past 4300 digits
            payload = json.loads(golden["stdout"])
        jsonschema.validate(payload, schema)
        checked += 1
    # 24 verify, 12 construct (simplex, identity, repetition), 7 construct
    # embed, 11 search (3 GV), 3 montecarlo, 3 JSON bounds and 4 errors
    # (exits 1, 2, 2, 3)
    assert checked == 64


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [run_case(argv, text, Path(tmp)) for argv, text in cases()]
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} cases written to {FIXTURE}", file=sys.stderr)
