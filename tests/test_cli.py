"""CLI behavior: exit statuses, JSON payloads, schema validation, round trips."""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import mwscodes.bounds as bounds_mod
from mwscodes import is_mws, load_code, loads_code
from mwscodes import cli, gf
from mwscodes.cli import main

SCHEMAS = Path(__file__).resolve().parents[1] / "schemas"
SRC = Path(__file__).resolve().parents[1] / "src"
search_mod = importlib.import_module("mwscodes.search")  # the package re-exports search()


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.lstrip().startswith("{") else out.out
    return status, payload


def validate(payload, schema_name):
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(payload, schema)


# -- construct ----------------------------------------------------------------

def test_construct_simplex_verify_qm(capsys):
    status, payload = run(capsys, "construct", "simplex", "--q", "2", "--k", "3",
                          "--verify-qm")
    assert status == 0
    assert payload["counts"] == {"4": 7}
    assert payload["verification"]["is_qm"] is True
    validate(payload, "spectrum_report.schema.json")


def test_construct_embed_identity_binary(capsys):
    status, payload = run(capsys, "construct", "embed", "--q", "2", "--k", "3",
                          "--source", "identity", "--verify-mws")
    assert status == 0
    assert payload["embedded"]["effective_length"] == 7
    assert payload["embedded"]["distinct_weights"] == 7


def test_construct_embed_rejects_non_qm_file(capsys, tmp_path):
    mat = tmp_path / "identity_3_2.mat"
    mat.write_text("3 2 2\n1 0\n0 1\n")
    status, payload = run(capsys, "construct", "embed", "--q", "3", "--k", "2",
                          "--in", str(mat))
    assert status == 1
    assert payload["error"] == "NotQuasiMinimal"


def test_construct_writes_readable_matrix(capsys, tmp_path):
    out = tmp_path / "simplex.mat"
    status, payload = run(capsys, "construct", "simplex", "--q", "3", "--k", "2",
                          "--out", str(out))
    assert status == 0
    code = load_code(out)
    assert (code.q, code.k, code.n) == (3, 2, 4)
    # round trip: re-verification agrees with the payload
    status2, payload2 = run(capsys, "verify", "--in", str(out))
    assert payload2["is_qm"] == payload["is_qm"]
    assert payload2["is_mws"] == payload["is_mws"]


def test_construct_bad_kind_arguments(capsys):
    status, payload = run(capsys, "construct", "repetition", "--q", "2", "--k", "2")
    assert status == 2


# -- verify -------------------------------------------------------------------

def test_verify_status_tracks_predicates(capsys, tmp_path):
    mat = tmp_path / "stair.mat"
    mat.write_text("2 2 3\n1 0 0\n0 1 1\n")
    status, payload = run(capsys, "verify", "--in", str(mat))
    assert status == 0 and payload["is_mws"] and payload["is_qm"]
    validate(payload, "spectrum_report.schema.json")

    mat2 = tmp_path / "identity.mat"
    mat2.write_text("2 3 3\n1 0 0\n0 1 0\n0 0 1\n")
    status, payload = run(capsys, "verify", "--in", str(mat2), "--mws")
    assert status == 1  # QM but not MWS
    status, payload = run(capsys, "verify", "--in", str(mat2), "--qm")
    assert status == 0


@pytest.mark.parametrize("text", ["2 -1 3\n", "2 1 -1\n1\n"])
def test_verify_rejects_header_below_one(capsys, tmp_path, text):
    # k = -1 once reached an IndexError (exit 4) reading the missing first row
    mat = tmp_path / "bad.mat"
    mat.write_text(text)
    status, payload = run(capsys, "verify", "--in", str(mat))
    assert status == 2
    assert "header" in payload["detail"]


def test_verify_missing_file(capsys):
    status, payload = run(capsys, "verify", "--in", "/nonexistent.mat")
    assert status == 2


# -- search -------------------------------------------------------------------

def test_search_exhaustive_ternary(capsys):
    status, payload = run(capsys, "search", "--q", "3", "--k", "2", "--target", "mws",
                          "--mode", "exhaustive", "--n", "5..6")
    assert status == 0
    assert payload["shortest_success"] == 6
    assert payload["lengths"][0]["found"] is False
    validate(payload, "search_report.schema.json")


def test_search_n_list_must_be_contiguous(capsys):
    status, payload = run(capsys, "search", "--q", "3", "--k", "2", "--target", "mws",
                          "--mode", "exhaustive", "--n", "5,9")
    assert status == 2
    assert payload["error"] == "ValueError"
    status, payload = run(capsys, "search", "--q", "3", "--k", "2", "--target", "mws",
                          "--mode", "exhaustive", "--n", "5,6")
    assert status == 0
    assert [e["n"] for e in payload["lengths"]] == [5, 6]


@pytest.mark.parametrize("argv,text", [
    (["search", "--q", "3", "--k", "2", "--n", "7..5", "--seed", "1"], "7..5"),
    (["search", "--q", "3", "--k", "2", "--n", ",", "--seed", "1"], ","),
    (["bounds", "--q", "3..2", "--k", "2"], "3..2"),
])
def test_an_empty_int_list_is_refused_by_its_text(capsys, argv, text):
    status = main(argv)
    out = capsys.readouterr()
    assert status == 2
    assert json.loads(out.out) == {"error": "ValueError", "detail": f"no values in {text!r}"}
    assert out.err == f"invalid input: no values in {text!r}\n"


def test_search_exhaustive_binary(capsys):
    status, payload = run(capsys, "search", "--q", "2", "--k", "2", "--target", "mws",
                          "--mode", "exhaustive", "--n", "2..3")
    assert status == 0
    assert payload["shortest_success"] == 3


def test_search_witness_out(capsys, tmp_path):
    out = tmp_path / "witness.mat"
    status, payload = run(capsys, "search", "--q", "2", "--k", "2", "--target", "mws",
                          "--mode", "exhaustive", "--n", "3", "--witness-out", str(out))
    assert status == 0
    assert is_mws(load_code(out))


def test_search_gv_witness_out(capsys, monkeypatch, tmp_path):
    # a GV run that finds a witness writes its matrix text; one that finds
    # none (the scan forced empty) writes no file and no diagnostic
    out = tmp_path / "witness.mat"
    argv = ["search", "--gv", "--q", "3", "--k", "2", "--trials", "3", "--seed", "1",
            "--witness-out", str(out)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["found"]
    assert out.read_bytes() == payload["witness"]["matrix"].encode()
    assert captured.err == f"witness written to {out}\n"
    out.unlink()
    monkeypatch.setattr(search_mod, "_scan_chunk", lambda args: None)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["found"] is False
    assert not out.exists() and captured.err == ""


@pytest.mark.parametrize("argv", [
    ["construct", "simplex", "--q", "2", "--k", "40"],
    ["construct", "embed", "--q", "2", "--k", "40", "--source", "simplex"],
])
def test_construct_simplex_trips_the_guard_before_building(capsys, monkeypatch, argv):
    monkeypatch.delenv("MWSCODES_MAX_ENUM", raising=False)
    monkeypatch.setattr(importlib.import_module("mwscodes.constructions"),
                        "projective_representatives", None)  # a call would be a TypeError
    status, payload = run(capsys, *argv)
    assert status == 3
    assert payload["error"] == "EnumerationTooLargeError"


@pytest.mark.parametrize("argv", [
    ["construct", "identity", "--q", "3", "--k", "30000"],
    ["construct", "embed", "--q", "3", "--k", "30000", "--source", "identity"],
    ["construct", "embed", "--q", "3", "--k", "30000"],  # identity is the default source
])
def test_construct_identity_trips_the_guard_before_building(capsys, monkeypatch, argv):
    monkeypatch.delenv("MWSCODES_MAX_ENUM", raising=False)
    monkeypatch.setattr(importlib.import_module("mwscodes.constructions"),
                        "identity_code", None)  # a call would be a TypeError
    status, payload = run(capsys, *argv)
    assert status == 3
    assert payload["error"] == "EnumerationTooLargeError"


@pytest.mark.parametrize("kind", ["simplex", "identity", "embed"])
def test_construct_refuses_a_non_field_order_before_the_guard(capsys, kind):
    # 6^40 is past the guard too, but the order is the input's real fault
    status, payload = run(capsys, "construct", kind, "--q", "6", "--k", "40")
    assert status == 2
    assert payload["error"] == "NotPrimePowerError"


@pytest.mark.parametrize("kind", ["simplex", "identity", "embed"])
def test_construct_with_a_huge_k_trips_the_guard_at_once(capsys, monkeypatch, kind):
    # the guard must not compute 3**100000000 to refuse it
    monkeypatch.delenv("MWSCODES_MAX_ENUM", raising=False)
    t0 = time.monotonic()
    status, payload = run(capsys, "construct", kind, "--q", "3", "--k", "100000000")
    assert status == 3
    assert payload["error"] == "EnumerationTooLargeError"
    assert time.monotonic() - t0 < 5


def test_search_guard_exit_code(capsys):
    status, payload = run(capsys, "search", "--q", "4", "--k", "3", "--target", "mws",
                          "--mode", "exhaustive", "--n", "30")
    assert status == 3
    assert payload["error"] == "SearchSpaceTooLargeError"


def test_search_with_a_huge_n_trips_the_space_guard_at_once(capsys):
    # the guard must neither compute 3**199996 to refuse it nor format it
    # into its message (past 4300 digits, int-to-str conversion refuses)
    t0 = time.monotonic()
    status, payload = run(capsys, "search", "--q", "3", "--k", "2", "--n", "100000",
                          "--mode", "exhaustive")
    assert status == 3
    assert payload["error"] == "SearchSpaceTooLargeError"
    assert time.monotonic() - t0 < 5


@pytest.mark.parametrize("argv", [
    ["search", "--gv", "--q", "257", "--k", "2", "--trials", "1", "--seed", "0"],
    ["montecarlo", "--q", "3", "--k", "2", "--n", "400000000", "--samples", "1", "--seed", "0"],
    ["search", "--q", "3", "--k", "2", "--n", "1048577", "--trials", "1", "--seed", "0"],
])
def test_oversized_candidates_trip_the_guard_before_any_draw(capsys, monkeypatch, argv):
    # k n above search.MAX_CANDIDATE_ENTRIES: a GV cell of n = 372874868, a
    # Monte-Carlo run and a random search, each refused before its first draw
    monkeypatch.setattr(search_mod, "_trial_draws", lambda *args: pytest.fail("drew"))
    status, payload = run(capsys, *argv)
    assert status == 3
    assert payload["error"] == "SearchSpaceTooLargeError"


def test_search_gv(capsys, monkeypatch):
    status, payload = run(capsys, "search", "--q", "2", "--k", "3", "--gv",
                          "--trials", "50", "--seed", "0")
    assert status == 0
    assert payload["found"] is True
    validate(payload, "gv_search_report.schema.json")
    # a binary GV search accepts its first trial, so a scan that finds
    # nothing stands in for a search without a witness
    monkeypatch.setattr(importlib.import_module("mwscodes.search"), "_scan_chunk",
                        lambda args: None)
    status, payload = run(capsys, "search", "--q", "2", "--k", "3", "--gv",
                          "--trials", "50", "--seed", "0")
    assert status == 0
    assert payload["found"] is False
    validate(payload, "gv_search_report.schema.json")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_search_gv_rejects_fewer_than_one_trial(capsys, trials):
    status, payload = run(capsys, "search", "--q", "3", "--k", "2", "--gv",
                          "--trials", trials, "--seed", "0")
    assert status == 2
    assert payload == {"error": "ValueError", "detail": "trials must be >= 1"}


@pytest.mark.parametrize("argv, detail", [
    (["search", "--q", "3", "--k", "0", "--n", "3", "--seed", "1"],
     "generator needs at least one row"),
    (["search", "--q", "3", "--k", "0", "--n", "3", "--mode", "exhaustive"],
     "generator needs at least one row"),
    (["search", "--q", "1", "--k", "2", "--n", "3", "--seed", "1"],
     "field order must be >= 2, got 1"),
    (["search", "--q", "6", "--k", "2", "--n", "3", "--mode", "exhaustive"],
     "6 is not a prime power"),
    (["montecarlo", "--q", "1", "--k", "2", "--n", "3", "--samples", "2", "--seed", "1"],
     "field order must be >= 2, got 1"),
    (["montecarlo", "--q", "3", "--k", "0", "--n", "3", "--samples", "2", "--seed", "1"],
     "generator needs at least one row"),
])
def test_search_and_montecarlo_reject_bad_q_or_k_before_chunking(capsys, argv, detail):
    status, payload = run(capsys, *argv)
    assert status == 2
    assert payload["detail"] == detail


@pytest.mark.parametrize("argv", [
    ["search", "--q", "3", "--k", "2", "--n", "5", "--trials", "3", "--seed", "1",
     "--workers", "0"],
    ["search", "--q", "3", "--k", "2", "--n", "5", "--mode", "exhaustive", "--workers", "-1"],
    ["montecarlo", "--q", "3", "--k", "2", "--n", "5", "--samples", "3", "--seed", "1",
     "--workers", "-2"],
])
def test_search_and_montecarlo_reject_fewer_than_one_worker(capsys, argv):
    status, payload = run(capsys, *argv)
    assert status == 2
    assert payload == {"error": "ValueError", "detail": "workers must be >= 1"}


@pytest.mark.parametrize("argv", [
    ["search", "--q", "3", "--k", "2", "--n", "5", "--trials", "3", "--workers", "2"],
    ["search", "--q", "3", "--k", "2", "--gv", "--trials", "3"],
    ["montecarlo", "--q", "3", "--k", "2", "--n", "5", "--samples", "3", "--workers", "2"],
])
def test_negative_seed_is_refused_before_any_draw(capsys, monkeypatch, argv):
    # numpy's SeedSequence message; no chunk runs and no pool starts
    search_mod = importlib.import_module("mwscodes.search")
    monkeypatch.setattr(search_mod, "_process_pool", None)
    monkeypatch.setattr(search_mod, "_draws", None)
    status, payload = run(capsys, *argv, "--seed", "-5")
    assert status == 2
    assert payload == {"error": "ValueError", "detail": "expected non-negative integer"}


def test_exhaustive_search_ignores_a_negative_seed(capsys):
    status, payload = run(capsys, "search", "--q", "3", "--k", "2", "--n", "5",
                          "--mode", "exhaustive", "--seed", "-5")
    assert status == 0
    assert payload["seed"] is None


# -- montecarlo ---------------------------------------------------------------

def test_montecarlo(capsys):
    status, payload = run(capsys, "montecarlo", "--q", "2", "--k", "2", "--n", "8",
                          "--samples", "500", "--seed", "7")
    assert status == 0
    assert payload["seed"] == 7
    assert payload["mean"] <= payload["bound"] + 4 * payload["stderr"]
    validate(payload, "montecarlo_report.schema.json")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_montecarlo_rejects_fewer_than_one_sample(capsys, samples):
    status, payload = run(capsys, "montecarlo", "--q", "2", "--k", "2", "--n", "8",
                          "--samples", samples, "--seed", "7")
    assert status == 2
    assert payload["error"] == "ValueError"


def test_montecarlo_logs_random_seed_when_missing(capsys):
    status = main(["montecarlo", "--q", "2", "--k", "2", "--n", "6", "--samples", "100"])
    out = capsys.readouterr()
    assert status == 0
    payload = json.loads(out.out)
    assert "seed" in payload
    assert str(payload["seed"]) in out.err


# -- bounds -------------------------------------------------------------------

def test_bounds_binary_column(capsys):
    status, payload = run(capsys, "bounds", "--q", "2", "--k", "1..6")
    assert status == 0
    lows = [c["lower_bound_length"] for c in payload["cells"]]
    assert lows == [2**k - 1 for k in range(1, 7)]
    validate(payload, "bounds_report.schema.json")


def test_bounds_two_dim_row(capsys):
    status, payload = run(capsys, "bounds", "--q", "3,4,5", "--k", "2")
    assert status == 0
    assert [c["lower_bound_length"] for c in payload["cells"]] == [6, 10, 15]


def test_bounds_rejects_non_prime_power(capsys):
    status, payload = run(capsys, "bounds", "--q", "6", "--k", "2")
    assert status == 2


# (65537, 0) is refused for its k before (65537, 1) for its power, and a bad
# k after a good one fails the whole table
@pytest.mark.parametrize("q,k", [("2", "0"), ("3", "-1"), ("65537", "0,1"), ("2", "1,0")])
def test_bounds_rejects_k_below_one(capsys, q, k):
    bad = next(int(t) for t in k.split(",") if int(t) < 1)
    status = main(["bounds", "--q", q, "--k", k])
    out = capsys.readouterr()
    assert status == 2
    assert json.loads(out.out) == {"error": "ValueError", "detail": f"k must be >= 1, got {bad}"}
    assert out.err == f"invalid input: k must be >= 1, got {bad}\n"


def test_bounds_keeps_cell_order_and_duplicates(capsys):
    status, payload = run(capsys, "bounds", "--q", "2", "--k", "4,1,4")
    assert status == 0
    cells = [json.loads(json.dumps(bounds_mod.bounds_report(2, k).to_dict())) for k in (4, 1, 4)]
    assert payload["cells"] == cells


def test_bounds_runs_one_threshold_scan_per_q(capsys, monkeypatch):
    started = []
    scan = bounds_mod._eqbound_scan

    def counted(q, ks, max_n):
        started.append((q, list(ks), max_n))
        return scan(q, ks, max_n)

    monkeypatch.setattr(bounds_mod, "_eqbound_scan", counted)
    status, payload = run(capsys, "bounds", "--q", "9", "--k", "1..4")
    assert status == 0
    assert [c["eqbound_min_n"] for c in payload["cells"]][1:] == [None, None, None]
    assert started == [(9, [1, 2, 3, 4], 2000)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bounds_prints_integers_past_the_str_digit_limit(capsys, fmt):
    # at q = 16, k = 1, 2**gv_qm_length has about 5750 digits, more than
    # Python's default int-to-str limit of 4300
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    status = main(["bounds", "--q", "16", "--k", "1", "--format", fmt])
    out = capsys.readouterr().out
    assert status == 0
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit  # restored after writing
    with cli._unlimited_int_str():
        if fmt == "json":
            payload = json.loads(out)
            cell = payload["cells"][0]
        else:
            header, row = out.strip().splitlines()
            cell = {key: int(val) for key, val in zip(header.split(","), row.split(","))
                    if key in ("gv_qm_length", "embedded_length_gv")}
        assert len(str(cell["embedded_length_gv"])) > 4300
    assert cell["embedded_length_gv"] == 2 ** cell["gv_qm_length"]
    if fmt == "json":
        validate(payload, "bounds_report.schema.json")


@pytest.mark.parametrize("q,k", [("65537", "1"), ("2", "40"), ("2", "21"), ("64", "1"),
                                 ("2,65537", "1")])
def test_bounds_refuses_powers_above_the_bit_limit(capsys, q, k):
    # (65537, 1) ran out of memory computing 2**gv_qm_length, (2, 40) would
    # need 2**(2**40 - 2); both are refused before any power is computed
    status, payload = run(capsys, "bounds", "--q", q, "--k", k)
    assert status == cli.EXIT_GUARD == 3
    assert payload["error"] == "PowerTooLargeError"


def test_bounds_csv(capsys):
    status = main(["bounds", "--q", "2", "--k", "2..3", "--format", "csv"])
    out = capsys.readouterr().out
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("q,k,lower_bound_length")
    assert len(lines) == 3


# -- internal errors ----------------------------------------------------------

def test_internal_error_has_its_own_exit_status(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("witness failed re-verification")

    monkeypatch.setattr(cli, "gv_qm_search", broken)
    status = main(["search", "--q", "2", "--k", "2", "--gv", "--seed", "0"])
    out = capsys.readouterr()
    assert status == cli.EXIT_INTERNAL == 4
    assert json.loads(out.out) == {
        "error": "AssertionError", "detail": "witness failed re-verification"}
    assert out.err.startswith("internal error: ")


def test_a_value_json_cannot_hold_is_an_internal_error(capsys, monkeypatch):
    # not quoted as a string, and no part of the bad payload reaches stdout
    monkeypatch.setattr(cli, "describe_field", lambda *args: {"name": np.int64(9)})
    status = main(["field-info", "--q", "9"])
    out = capsys.readouterr()
    assert status == cli.EXIT_INTERNAL
    payload = json.loads(out.out)  # exactly one JSON object
    assert payload["error"] == "TypeError" and "int64" in payload["detail"]


class ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv,diagnosis", [
    (["search", "--q", "3", "--k", "2", "--n", "5", "--mode", "exhaustive"], []),
    # the invalid-input payload meets the closed pipe
    (["field-info", "--q", "6"], ["invalid input: 6 is not a prime power"]),
])
def test_closed_stdout_is_written_once_and_not_a_failed_verification(
        capsys, monkeypatch, argv, diagnosis):
    stdout = ClosedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    status = main(argv)
    assert status == cli.EXIT_INTERNAL
    assert stdout.writes == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [*diagnosis, "stdout closed before the payload was written"]


def test_pipe_closed_before_reading():
    proc = subprocess.Popen(
        [sys.executable, "-m", "mwscodes.cli", "search", "--q", "3", "--k", "2", "--n", "5",
         "--mode", "exhaustive"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    proc.stdout.close()  # before the interpreter has even imported numpy
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_INTERNAL
    assert err == "stdout closed before the payload was written\n"


def test_closed_stdout_still_leaves_the_witness_file(capsys, tmp_path):
    argv = ["search", "--q", "3", "--k", "2", "--n", "6", "--mode", "exhaustive"]
    status, payload = run(capsys, *argv)
    assert status == 0
    witness = tmp_path / "witness.mat"
    proc = subprocess.Popen(
        [sys.executable, "-m", "mwscodes.cli", *argv, "--witness-out", str(witness)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_INTERNAL
    assert witness.read_text() == payload["lengths"][0]["witness"]["matrix"]
    assert err.splitlines() == [f"witness written to {witness}",
                                "stdout closed before the payload was written"]


# -- field-info ---------------------------------------------------------------

def test_field_info(capsys):
    status, payload = run(capsys, "field-info", "--q", "9")
    assert status == 0
    assert payload["name"] == "GF(9)"
    assert payload["characteristic"] == 3 and payload["degree"] == 2


def test_field_info_bad_q(capsys):
    status, payload = run(capsys, "field-info", "--q", "12")
    assert status == 2


def test_field_info_for_a_prime_above_the_table_limit(capsys):
    big = 2**31 - 1
    status, payload = run(capsys, "field-info", "--q", str(big))
    assert status == 0
    assert payload == {"name": f"GF({big})", "characteristic": big, "degree": 1,
                       "modulus": [0, 1]}


def test_verify_over_a_field_above_the_table_limit_trips_the_guard(capsys, tmp_path):
    mat = tmp_path / "big.mat"
    mat.write_text(f"{2**31 - 1} 1 2\n1 5\n")
    status, payload = run(capsys, "verify", "--in", str(mat))
    assert status == 3
    assert payload["error"] == "FieldTooLargeError"


def test_bounds_checks_q_without_building_the_field(capsys, monkeypatch):
    monkeypatch.setattr(gf, "MAX_TABLE_ORDER", 4)
    gf.build_field.cache_clear()  # a cached GF(5) would hide a build
    status, payload = run(capsys, "bounds", "--q", "5", "--k", "1")
    assert status == 0
    assert payload["cells"][0]["q"] == 5
    status, payload = run(capsys, "bounds", "--q", "6", "--k", "1")
    assert status == 2


def test_construct_repetition_from_file(capsys, tmp_path):
    mat = tmp_path / "stair.mat"
    mat.write_text("2 2 3\n1 0 0\n0 1 1\n")
    status, payload = run(capsys, "construct", "repetition", "--q", "2", "--k", "2",
                          "--in", str(mat), "--profile", "1,2,4")
    assert status == 0
    assert payload["N"] == 7
    code = loads_code(payload["matrix"])
    assert code.multiplicities == (1, 2, 4)
