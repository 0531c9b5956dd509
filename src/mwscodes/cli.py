"""Command-line interface.

Machine-readable JSON goes to stdout, prose diagnostics to stderr, so the
tool composes in pipelines.  Exit statuses:

    0  success
    1  a requested verification predicate returned false
    2  invalid input
    3  a resource guard tripped, or memory ran out (MemoryError)
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
import math
import os
import sys
import traceback
from json.encoder import encode_basestring_ascii

from . import bounds as bounds_mod
from . import constructions
from .bounds import _unlimited_int_str
from .codes import EnumerationTooLargeError, spectrum_report
from .gf import (
    FieldTooLargeError,
    NotPrimePowerError,
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


def _emit(payload: dict) -> None:
    with _unlimited_int_str():  # encoded whole: a value JSON cannot hold raises before any write
        text = _dumps(payload)
    sys.stdout.write(text + "\n")


# The exact types json's encoder writes as scalars; an instance of any other
# type sends its container through the walk of _dumps.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (list, tuple, dict)
_LITERALS = {None: "null", True: "true", False: "false"}


def _flat_encoder(depth: int):
    """json's C encoder for the items of a container at depth: separated as
    indent=2 separates them there, brackets left unbroken."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


# Built once, at import: payloads nest at most five deep.
_FLAT_ENCODERS = tuple(map(_flat_encoder, range(8)))


def _dumps(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2), byte for byte.  Before Python 3.13, json
    writes an indented value in pure Python, item by item; here a container
    whose items are all scalars (a spectrum's counts, a field's modulus) is
    one call of json's C encoder, and only containers holding containers are
    walked in Python.  A value JSON cannot hold raises json's TypeError."""
    if not isinstance(value, _CONTAINERS):
        return _scalar(value)
    is_dict = isinstance(value, dict)
    if not value:
        return "{}" if is_dict else "[]"
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if _SCALAR_TYPES.issuperset(map(type, value.values() if is_dict else value)):
        inside = depth + 1
        encode = _FLAT_ENCODERS[inside] if inside < len(_FLAT_ENCODERS) else _flat_encoder(inside)
        text = encode(value)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_dict:
        items = [(encode_basestring_ascii(key) if isinstance(key, str) else _key(key)) + ": "
                 + (_dumps(item, depth + 1) if isinstance(item, _CONTAINERS) else _scalar(item))
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    items = [_dumps(item, depth + 1) if isinstance(item, _CONTAINERS) else _scalar(item)
             for item in value]
    return "[" + inner + ("," + inner).join(items) + outer + "]"


def _scalar(value) -> str:
    """A value that is no list, tuple or dict, as json.dumps writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _LITERALS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)  # NaN and ±Infinity, or json's TypeError


def _key(key) -> str:
    """A dict key that is no string, as json.dumps writes it: quoted."""
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(_scalar(key))


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

def _load_base(args):
    """The --in code, refused when --q, or a given --k, differs from it."""
    base = load_code(args.infile)
    for name, given, found in (("q", args.q, base.q), ("k", args.k, base.k)):
        if given is not None and given != found:
            raise ValueError(f"--{name} {given} differs from the file's {name} = {found}")
    return base


def cmd_construct(args) -> int:
    kind = args.kind
    k = 1 if args.k is None else args.k  # for the codes built here; a file has its own
    if kind in ("simplex", "identity"):
        maker = constructions.simplex if kind == "simplex" else constructions.identity_code
        constructions._guarded_field(args.q, k)  # identity_code builds its generator unguarded
        code = maker(args.q, k)
        report = {"construction": kind, **spectrum_report(code)}
    elif kind == "embed":
        source = _load_base(args) if args.infile else args.source or "identity"
        code, report = constructions.mws_pipeline(args.q, k, source)
    elif kind == "repetition":
        if not args.infile or not args.profile:
            raise ValueError("repetition needs --in and --profile")
        base = _load_base(args)
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

# Each command's help and its arguments in add_argument order: the option
# string, or a positional's name, and add_argument's keyword arguments.
# build_parser adds them to argparse; _parse_direct parses from them alone.
_ARGUMENTS = {
    "construct": ("build a code and optionally verify it", (
        ("kind", dict(choices=["simplex", "identity", "embed", "repetition"])),
        ("--q", dict(type=int, required=True)),
        ("--k", dict(type=int, default=None)),
        ("--source", dict(choices=["identity", "simplex"], default=None,
                          help="base construction for embed")),
        ("--in", dict(dest="infile", default=None, help="base matrix file")),
        ("--profile", dict(default=None, help="comma-separated multiplicities")),
        ("--out", dict(default=None, help="write the matrix file here")),
        ("--verify-qm", dict(action="store_true")),
        ("--verify-mws", dict(action="store_true")),
    )),
    "verify": ("verify a matrix file", (
        ("--in", dict(dest="infile", required=True)),
        ("--qm", dict(action="store_true", help="exit status reflects QM only")),
        ("--mws", dict(action="store_true", help="exit status reflects MWS only")),
    )),
    "search": ("random or exhaustive code search", (
        ("--q", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--n", dict(default=None, help="length or range, e.g. 5..6")),
        ("--target", dict(choices=["qm", "mws"], default="mws")),
        ("--mode", dict(choices=["random", "exhaustive"], default="random")),
        ("--trials", dict(type=int, default=10_000)),
        ("--seed", dict(type=int, default=None)),
        ("--workers", dict(type=int, default=1,
                           help="worker processes for random and exhaustive search, started "
                                "only for a space of more than one full enumeration batch; "
                                "--gv runs serially")),
        ("--gv", dict(action="store_true",
                      help="QM search at the GV-type length ceil(k*lambda_q)")),
        ("--witness-out", dict(default=None)),
    )),
    "montecarlo": ("estimate the expected collision statistic", (
        ("--q", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--n", dict(type=int, required=True)),
        ("--samples", dict(type=int, default=20_000)),
        ("--seed", dict(type=int, default=None)),
        ("--workers", dict(type=int, default=1,
                           help="worker processes, started only for more than one full "
                                "enumeration batch of samples")),
    )),
    "bounds": ("bound tables over a (q, k) grid", (
        ("--q", dict(required=True, help="e.g. 3 or 3,4,5 or 2..9")),
        ("--k", dict(required=True, help="e.g. 2 or 1..6")),
        ("--format", dict(choices=["csv", "json"], default="json")),
    )),
    "field-info": ("describe GF(q)", (
        ("--q", dict(type=int, required=True)),
    )),
}


def _command_function(command: str):
    """cmd_<command>, looked up when called: a caller that rebinds the
    module's cmd_* names (as a tracer does) gets its own functions run."""
    return globals()["cmd_" + command.replace("-", "_")]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, with all six subcommands."""
    p = argparse.ArgumentParser(prog="mwscodes", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _ARGUMENTS.items():
        parser = sub.add_parser(name, help=help_text)
        for option, kwargs in arguments:
            parser.add_argument(option, **kwargs)
    return p


def _parse_direct(argv) -> argparse.Namespace | None:
    """The namespace build_parser() would parse argv into, found from
    _ARGUMENTS without building a parser, or None where argparse must parse.

    Only the plain form is taken: a command first, then exact option strings
    (no abbreviations, no --opt=value), each at most once, each value
    non-empty and not starting with "-", and positionals in order.  A value
    its type refuses, or one outside its choices, and a missing required
    argument also give None, so argparse prints every help, usage and error.
    """
    if not argv or argv[0] not in _ARGUMENTS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    specs = [(option, kwargs.get("dest", option.lstrip("-").replace("-", "_")), kwargs)
             for option, kwargs in _ARGUMENTS[command][1]]
    options = {spec[0]: spec for spec in specs if spec[0].startswith("-")}
    positionals = [spec for spec in specs if not spec[0].startswith("-")]
    values = {}
    for token in tokens:
        if token in options:
            _, dest, kwargs = options[token]
            value = True if kwargs.get("action") == "store_true" else next(tokens, "")
        elif positionals:
            (_, dest, kwargs), value = positionals.pop(0), token
        else:
            return None
        if value is not True and value[:1] in ("", "-") or dest in values:
            return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except ValueError:
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if positionals or any(kwargs.get("required") and dest not in values
                          for _, dest, kwargs in specs):
        return None
    args = argparse.Namespace(command=command)
    for _, dest, kwargs in specs:
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        setattr(args, dest, values.get(dest, default))
    return args


def main(argv=None) -> int:
    if argv is None:  # the console script passes none
        argv = sys.argv[1:]
    args = _parse_direct(argv)
    if args is None:  # help, usage and errors come from argparse
        args = build_parser().parse_args(argv)
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
        return _command_function(args.command)(args)
    except BrokenPipeError:
        raise  # for main: the handlers below would write to the closed stdout
    # a path naming no usable file is bad input; EIO or a full disk is not
    except (NotPrimePowerError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError, constructions.NotQuasiMinimalError) as exc:
        if isinstance(exc, constructions.NotQuasiMinimalError):
            _diag(f"verification failed: {exc}")
            _emit({"error": "NotQuasiMinimal", "detail": str(exc)})
            return EXIT_VERIFY_FAILED
        _diag(f"invalid input: {exc}")
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return EXIT_BAD_INPUT
    except (EnumerationTooLargeError, FieldTooLargeError, SearchSpaceTooLargeError,
            bounds_mod.PowerTooLargeError, MemoryError) as exc:
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
