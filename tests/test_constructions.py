"""Construction tests: simplex, identity, embedding, repetition, pipeline."""

import pytest

from mwscodes import codes, constructions
from mwscodes.codes import EnumerationTooLargeError
from mwscodes import (
    NotQuasiMinimalError,
    embed_f,
    generalized_repetition,
    identity_code,
    is_mws,
    is_qm,
    mws_pipeline,
    simplex,
    weight_spectrum,
)


def test_simplex_2_3():
    code = simplex(2, 3)
    assert (code.n, code.k) == (7, 3)
    assert weight_spectrum(code).counts == {4: 7}


def test_simplex_3_2_columns():
    code = simplex(3, 2)
    assert (code.n, code.k) == (4, 2)
    cols = {tuple(row[j] for row in code.generator) for j in range(code.n)}
    assert cols == {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert weight_spectrum(code).counts == {3: 8}


def test_simplex_checks_the_guard_before_building_its_columns(monkeypatch):
    monkeypatch.delenv("MWSCODES_MAX_ENUM", raising=False)

    def no_columns(fld, k):
        raise AssertionError("columns built before the guard")

    monkeypatch.setattr(constructions, "projective_representatives", no_columns)
    with pytest.raises(EnumerationTooLargeError):
        simplex(2, 29)


def test_simplex_2_1():
    code = simplex(2, 1)
    assert code.generator == ((1,),)


@pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_simplex_constant_weight_and_qm(q, k):
    code = simplex(q, k)
    spec = weight_spectrum(code)
    assert spec.counts == {q ** (k - 1): q**k - 1}
    assert is_qm(code)
    from mwscodes import qm_sufficient_dn

    assert qm_sufficient_dn(code)


def test_identity_code_qm():
    assert is_qm(identity_code(2, 5))
    assert not is_qm(identity_code(3, 2))
    small = identity_code(2, 1)
    assert is_qm(small) and is_mws(small)


def test_embed_identity_2_3():
    code = embed_f(identity_code(2, 3))
    assert code.multiplicities == (1, 2, 4)
    assert code.effective_length == 7
    spec = weight_spectrum(code)
    assert sorted(spec.counts) == [1, 2, 3, 4, 5, 6, 7]
    assert is_mws(code)


def test_embed_simplex_2_3():
    code = embed_f(simplex(2, 3))
    assert code.effective_length == 2**7 - 1 == 127
    assert is_mws(code)


def test_embed_length_one():
    code = embed_f(identity_code(5, 1))
    assert code.multiplicities == (1,)
    assert code.effective_length == 1


def test_embed_rejects_non_plain():
    code = embed_f(identity_code(2, 3))
    with pytest.raises(ValueError):
        embed_f(code)


def test_generalized_repetition():
    base = identity_code(2, 3)
    assert generalized_repetition(base, (1, 1, 1)).multiplicities == (1, 1, 1)
    tripled = generalized_repetition(base, (3, 3, 3))
    spec = weight_spectrum(tripled)
    assert spec.counts == {3: 3, 6: 3, 9: 1}  # every weight scaled by 3
    assert generalized_repetition(base, (1, 2, 4)).multiplicities == embed_f(base).multiplicities


def test_generalized_repetition_length_mismatch():
    with pytest.raises(ValueError):
        generalized_repetition(identity_code(2, 3), (1, 2))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_pipeline_identity_binary(k):
    # k = 1 embeds into a plain [1, 1] code, counted by histogram
    code, report = mws_pipeline(2, k, "identity")
    assert code.effective_length == 2**k - 1
    assert report["embedded"]["is_mws"] is True
    assert type(report["embedded"]["distinct_weights"]) is int
    assert report["embedded"]["distinct_weights"] == 2**k - 1


def test_pipeline_builds_the_base_words_once(monkeypatch):
    # the embedded code has the base's generator, so it reuses its layout
    built = []
    stack_layout = codes._stack_layout
    monkeypatch.setattr(codes, "_stack_layout", lambda *args: built.append(1) or stack_layout(*args))
    codes._layout.cache_clear()
    _, report = mws_pipeline(3, 3, "simplex")
    codes._layout.cache_clear()
    assert report["embedded"]["distinct_weights"] == 13 and len(built) == 1


def test_pipeline_simplex():
    code, report = mws_pipeline(3, 2, "simplex")
    assert code.effective_length == 2**4 - 1
    assert report["embedded"]["is_mws"] is True
    assert report["construction"] == "simplex"


def test_pipeline_rejects_non_qm_source():
    with pytest.raises(NotQuasiMinimalError):
        mws_pipeline(3, 2, "identity")


def test_embed_preserves_generator():
    base = simplex(3, 2)
    out = embed_f(base)
    assert out.generator == base.generator
    assert out.k == base.k


@pytest.mark.parametrize("source, message", [
    ("bogus", "unknown source 'bogus'"),
    (None, "unknown source None"),
    (generalized_repetition(identity_code(3, 2), (1, 2)), "pipeline source must be a plain code"),
])
def test_pipeline_refuses_an_unknown_or_non_plain_source(source, message):
    with pytest.raises(ValueError) as exc:
        mws_pipeline(3, 2, source)
    assert str(exc.value) == message
