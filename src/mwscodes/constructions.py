"""Explicit code constructions.

Three families:

* identity codes, quasi-minimal over GF(2) for every dimension;
* simplex codes (duals of Hamming codes), constant weight q^{k-1};
* the doubling embedding that replicates coordinate i exactly 2^i times,
  mapping a quasi-minimal code to a maximum-weight-spectrum code of
  effective length 2^n - 1.

The embedding never materializes length-(2^n - 1) words: the multiplicity
profile (1, 2, 4, ...) carries all the weight information.
"""

from __future__ import annotations

from .codes import (
    LinearCode,
    _check_guard,
    _enumerate,
    projective_representative_count,
    projective_representatives,
    spectrum_report,
)
from .gf import build_field


class NotQuasiMinimalError(ValueError):
    """Raised when the MWS pipeline receives a code that is not QM."""


def _guarded_field(q: int, k: int):
    """GF(q), once the enumeration guard admits q^k.  Called before a k-row
    generator is built; a q that is no field order is refused first."""
    fld = build_field(q)
    _check_guard(q, k)
    return fld


def identity_code(q: int, k: int) -> LinearCode:
    """The [k, k]_q code with identity generator."""
    if k < 1:
        raise ValueError("dimension must be >= 1")
    fld = build_field(q)
    gen = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    return LinearCode(field=fld, generator=gen)


def simplex(q: int, k: int) -> LinearCode:
    """The [(q^k - 1)/(q - 1), k]_q simplex code.

    Columns are the projective points of GF(q)^k in canonical order (first
    nonzero coordinate 1, lexicographic).  Every nonzero codeword has weight
    q^{k-1}.
    """
    if k < 1:
        raise ValueError("dimension must be >= 1")
    fld = _guarded_field(q, k)  # before the (q^k - 1)/(q - 1) columns are built, not at the first report
    gen = tuple(zip(*projective_representatives(fld, k)))
    return LinearCode(field=fld, generator=gen)


def generalized_repetition(code: LinearCode, profile) -> LinearCode:
    """Replace the multiplicity profile: column i now stands for profile[i]
    repeated columns."""
    profile = tuple(int(m) for m in profile)
    if len(profile) != code.n:
        raise ValueError(
            f"profile length {len(profile)} differs from code length {code.n}"
        )
    return LinearCode(
        field=code.field, generator=code.generator, multiplicities=profile
    )


def embed_f(code: LinearCode) -> LinearCode:
    """Doubling embedding: coordinate i gets multiplicity 2^i.

    Distinct supports map to distinct weights (binary expansions), so a QM
    input yields an MWS output of effective length 2^n - 1.
    """
    if not code.is_plain:
        raise ValueError("embedding expects a plain code (all multiplicities 1)")
    return generalized_repetition(code, tuple(2**i for i in range(code.n)))


def mws_pipeline(q: int, k: int, source: str | LinearCode = "identity") -> tuple[LinearCode, dict]:
    """Build a QM code, embed it, and verify the result is MWS.

    source is "identity", "simplex", or an already-built plain LinearCode.
    The QM hypothesis is checked, not trusted: a non-QM source raises
    NotQuasiMinimalError, and the embedded output is re-verified through
    multiplicity-aware weights.  One set of words: the base's report gives
    its QM verdict, and its words weighted by the embedded profile give the
    embedded code's distinct weights, so its MWS verdict.
    """
    if isinstance(source, LinearCode):
        base = source
        source_name = "external"
    elif source == "identity":
        _guarded_field(q, k)  # before the k x k generator is built, not at the base's report
        base = identity_code(q, k)
        source_name = "identity"
    elif source == "simplex":
        base = simplex(q, k)
        source_name = "simplex"
    else:
        raise ValueError(f"unknown source {source!r}")
    if not base.is_plain:
        raise ValueError("pipeline source must be a plain code")
    base_report = spectrum_report(base)
    if not base_report["is_qm"]:
        raise NotQuasiMinimalError(
            f"{source_name} [{base.n},{base.k}]_{base.q} source is not quasi-minimal"
        )
    embedded = embed_f(base)
    distinct = len(_enumerate(base, False, embedded.multiplicities)[0][0])
    report = {
        "construction": source_name,
        "base": base_report,
        "embedded": {
            "q": embedded.q,
            "k": embedded.k,
            "base_length": embedded.n,
            "effective_length": embedded.effective_length,
            "distinct_weights": distinct,
            "is_mws": distinct == projective_representative_count(embedded.q, embedded.k),
        },
    }
    return embedded, report
