"""Command-line interface.

Machine-readable JSON goes to stdout, prose diagnostics to stderr, so the
tool composes in pipelines.  Exit statuses:

    0  success
    1  a requested verification predicate returned false
    2  invalid input
    3  a resource guard tripped
    4  internal error (a bug: an unexpected exception), or stdout was
       closed before the payload was written (a broken pipe)

Subcommands: construct, verify, search, montecarlo, bounds, field-info.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import traceback

from . import bounds as bounds_mod
from . import constructions
from .codes import EnumerationTooLargeError, spectrum_report
from .gf import (
    FieldTooLargeError,
    NotPrimePowerError,
    _prime_power_decomposition,
    describe_field,
    field_parameters,
)
from .matrixio import dumps_code, load_code, save_code
from .search import (
    SearchConfig,
    SearchSpaceTooLargeError,
    estimate_expectation,
    gv_qm_search,
    search,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift Python's limit on int-to-str digits (3.10.7+) while a payload is
    written: bounds cells carry 2**gv_qm_length, which for q >= 11 has more
    than the default 4300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # older interpreters have no limit
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _emit(payload: dict) -> None:
    with _unlimited_int_str():  # encoded whole: a value JSON cannot hold raises before any write
        text = json.dumps(payload, indent=2)
    sys.stdout.write(text + "\n")


def _diag(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_int_list(text: str) -> list[int]:
    """Accept '3', '3,4,5', or '1..6'; refuse a list with no values."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(tok) for tok in text.split(",") if tok]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    import secrets  # only runs without --seed need it; importing it costs memory

    seed = secrets.randbits(32)
    _diag(f"no --seed given; using random seed {seed} (logged in the payload)")
    return seed


# -- construct ----------------------------------------------------------------

def cmd_construct(args) -> int:
    kind = args.kind
    if kind in ("simplex", "identity"):
        maker = constructions.simplex if kind == "simplex" else constructions.identity_code
        constructions._guarded_field(args.q, args.k)  # identity_code builds its generator unguarded
        code = maker(args.q, args.k)
        report = {"construction": kind, **spectrum_report(code)}
    elif kind == "embed":
        if args.infile:
            base = load_code(args.infile)
            source = base
        else:
            source = args.source or "identity"
        code, report = constructions.mws_pipeline(args.q, args.k, source)
    elif kind == "repetition":
        if not args.infile or not args.profile:
            raise ValueError("repetition needs --in and --profile")
        base = load_code(args.infile)
        profile = [int(t) for t in args.profile.split(",")]
        code = constructions.generalized_repetition(base, profile)
        report = {"construction": "repetition", **spectrum_report(code)}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {kind}")

    report["matrix"] = dumps_code(code)
    if args.out:
        save_code(code, args.out)
        _diag(f"matrix written to {args.out}")

    status = EXIT_OK
    checks = {}
    # The verdicts come from the report's own pass; the embedded code has the
    # base's generator, so the base's supports are its supports.
    verdicts = report if kind != "embed" else {
        "is_qm": report["base"]["is_qm"], "is_mws": report["embedded"]["is_mws"]}
    if args.verify_qm:
        checks["is_qm"] = verdicts["is_qm"]
    if args.verify_mws:
        checks["is_mws"] = verdicts["is_mws"]
    if checks:
        report["verification"] = checks
        if not all(checks.values()):
            status = EXIT_VERIFY_FAILED
    _emit(report)
    return status


# -- verify -------------------------------------------------------------------

def cmd_verify(args) -> int:
    code = load_code(args.infile)
    report = spectrum_report(code)
    _emit(report)
    requested = []
    if args.qm:
        requested.append(report["is_qm"])
    if args.mws:
        requested.append(report["is_mws"])
    if not requested:  # default: both must hold for success
        requested = [report["is_qm"], report["is_mws"]]
    return EXIT_OK if all(requested) else EXIT_VERIFY_FAILED


# -- search / montecarlo ------------------------------------------------------

def cmd_search(args) -> int:
    if args.gv:
        seed = _resolve_seed(args)
        report = gv_qm_search(args.q, args.k, trials=args.trials, seed=seed)
        witness = report.get("witness")
    else:
        if args.n is None:
            raise ValueError("--n is required unless --gv is given")
        n_values = _parse_int_list(args.n)
        if set(n_values) != set(range(min(n_values), max(n_values) + 1)):
            raise ValueError(f"--n {args.n!r} is not a contiguous range of lengths")
        seed = _resolve_seed(args) if args.mode == "random" else (args.seed or 0)
        report = search(SearchConfig(
            q=args.q,
            k=args.k,
            n_lo=min(n_values),
            n_hi=max(n_values),
            target=args.target,
            mode=args.mode,
            trials=args.trials,
            seed=seed,
            workers=args.workers,
        ))
        witness = next((e["witness"] for e in report["lengths"] if e["found"]), None)
    # Saved before the payload is written, as construct --out is, so that a
    # closed stdout does not lose the witness file too.
    if args.witness_out and witness is not None:
        with open(args.witness_out, "w") as fh:
            fh.write(witness["matrix"])
        _diag(f"witness written to {args.witness_out}")
    _emit(report)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    seed = _resolve_seed(args)
    est = estimate_expectation(
        args.q, args.k, args.n, samples=args.samples, seed=seed, workers=args.workers
    )
    _emit(est.to_dict())
    return EXIT_OK


# -- bounds -------------------------------------------------------------------

def cmd_bounds(args) -> int:
    q_list = _parse_int_list(args.q)
    k_list = _parse_int_list(args.k)
    for q in q_list:
        _prime_power_decomposition(q)  # rejects non-prime-power q
    reports = [cell.to_dict() for cell in bounds_mod.bounds_table(q_list, k_list)]
    if args.format == "json":
        _emit({"cells": reports})
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(reports[0].keys()))
        writer.writeheader()
        with _unlimited_int_str():
            writer.writerows(reports)
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


# -- field-info ---------------------------------------------------------------

def cmd_field_info(args) -> int:
    _emit(describe_field(*field_parameters(args.q)))  # builds no tables
    return EXIT_OK


# -- parser -------------------------------------------------------------------

COMMANDS = ("construct", "verify", "search", "montecarlo", "bounds", "field-info")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser: with a command, only that subcommand's parser is
    built, and a run of that command parses exactly as with all six."""
    if command not in (None, *COMMANDS):
        raise ValueError(f"unknown command {command!r}")
    p = argparse.ArgumentParser(prog="mwscodes", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    if command is not None:
        # The usage line of top-level errors lists every command, as the full
        # parser's does.  Set without a command, the metavar would replace
        # "command" in argparse's invalid-choice and required-argument errors.
        sub.metavar = "{" + ",".join(COMMANDS) + "}"

    if command in (None, "construct"):
        c = sub.add_parser("construct", help="build a code and optionally verify it")
        c.add_argument("kind", choices=["simplex", "identity", "embed", "repetition"])
        c.add_argument("--q", type=int, required=True)
        c.add_argument("--k", type=int, default=1)
        c.add_argument("--source", choices=["identity", "simplex"], default=None,
                       help="base construction for embed")
        c.add_argument("--in", dest="infile", default=None, help="base matrix file")
        c.add_argument("--profile", default=None, help="comma-separated multiplicities")
        c.add_argument("--out", default=None, help="write the matrix file here")
        c.add_argument("--verify-qm", action="store_true")
        c.add_argument("--verify-mws", action="store_true")
        c.set_defaults(func=cmd_construct)

    if command in (None, "verify"):
        v = sub.add_parser("verify", help="verify a matrix file")
        v.add_argument("--in", dest="infile", required=True)
        v.add_argument("--qm", action="store_true", help="exit status reflects QM only")
        v.add_argument("--mws", action="store_true", help="exit status reflects MWS only")
        v.set_defaults(func=cmd_verify)

    if command in (None, "search"):
        s = sub.add_parser("search", help="random or exhaustive code search")
        s.add_argument("--q", type=int, required=True)
        s.add_argument("--k", type=int, required=True)
        s.add_argument("--n", default=None, help="length or range, e.g. 5..6")
        s.add_argument("--target", choices=["qm", "mws"], default="mws")
        s.add_argument("--mode", choices=["random", "exhaustive"], default="random")
        s.add_argument("--trials", type=int, default=10_000)
        s.add_argument("--seed", type=int, default=None)
        s.add_argument("--workers", type=int, default=1,
                       help="worker processes for random and exhaustive search, started only for "
                            "a space of more than one full enumeration batch; --gv runs serially")
        s.add_argument("--gv", action="store_true",
                       help="QM search at the GV-type length ceil(k*lambda_q)")
        s.add_argument("--witness-out", default=None)
        s.set_defaults(func=cmd_search)

    if command in (None, "montecarlo"):
        m = sub.add_parser("montecarlo", help="estimate the expected collision statistic")
        m.add_argument("--q", type=int, required=True)
        m.add_argument("--k", type=int, required=True)
        m.add_argument("--n", type=int, required=True)
        m.add_argument("--samples", type=int, default=20_000)
        m.add_argument("--seed", type=int, default=None)
        m.add_argument("--workers", type=int, default=1,
                       help="worker processes, started only for more than one full "
                            "enumeration batch of samples")
        m.set_defaults(func=cmd_montecarlo)

    if command in (None, "bounds"):
        b = sub.add_parser("bounds", help="bound tables over a (q, k) grid")
        b.add_argument("--q", required=True, help="e.g. 3 or 3,4,5 or 2..9")
        b.add_argument("--k", required=True, help="e.g. 2 or 1..6")
        b.add_argument("--format", choices=["csv", "json"], default="json")
        b.set_defaults(func=cmd_bounds)

    if command in (None, "field-info"):
        f = sub.add_parser("field-info", help="describe GF(q)")
        f.add_argument("--q", type=int, required=True)
        f.set_defaults(func=cmd_field_info)

    return p


def main(argv=None) -> int:
    if argv is None:  # the console script passes none
        argv = sys.argv[1:]
    # Only a command as the first argument gets the lean parser; help, no
    # arguments and an unknown command need the full one.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader is gone: write nothing more to stdout, and point its fd
        # at devnull so that the interpreter's final flush does not raise.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()  # an in-memory stdout has none
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        _diag("stdout closed before the payload was written")
        return EXIT_INTERNAL


def _run(args) -> int:
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # for main: the handlers below would write to the closed stdout
    except (NotPrimePowerError, ValueError, FileNotFoundError,
            constructions.NotQuasiMinimalError) as exc:
        if isinstance(exc, constructions.NotQuasiMinimalError):
            _diag(f"verification failed: {exc}")
            _emit({"error": "NotQuasiMinimal", "detail": str(exc)})
            return EXIT_VERIFY_FAILED
        _diag(f"invalid input: {exc}")
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return EXIT_BAD_INPUT
    except (EnumerationTooLargeError, FieldTooLargeError, SearchSpaceTooLargeError,
            bounds_mod.PowerTooLargeError) as exc:
        _diag(f"resource guard tripped: {exc}")
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return EXIT_GUARD
    except Exception as exc:
        _diag(f"internal error: {exc!r}")
        traceback.print_exc(file=sys.stderr)
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
