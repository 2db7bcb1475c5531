from pathlib import Path

import pytest

from onefac import cyclic, docio, families, gf
from onefac.core import MultiFactorization

GOLDEN = Path(__file__).parent / "golden"


def test_roundtrip_is_identity_on_canonical_documents():
    mf = families.construct(5, 2)
    text = docio.serialize(docio.document_from_mf(mf))
    again = docio.serialize(docio.document_from_mf(
        docio.mf_from_document(docio.parse(text))))
    assert again == text


def test_parse_then_serialize_canonicalizes():
    doc = {
        "format": 1,
        "model": {"tag": "plain"},
        "n": 2,
        "lambda": 1,
        "factors": [[[3, 0], [2, 1]], [[1, 3], [0, 2]], [[0, 1], [2, 3]]],
    }
    mf = docio.mf_from_document(doc)
    assert mf.factors == tuple(sorted(cyclic.lucas_factorization(4)))


def test_field_document_golden_bytes():
    mf = gf.agl_orbit_factorization(gf.field_ctx(3, 1))
    text = docio.serialize(docio.document_from_mf(mf))
    assert text == (GOLDEN / "t3_p3m1.json").read_text()


def test_model_block_roundtrips():
    mf = gf.agl_orbit_factorization(gf.field_ctx(5, 1))
    doc = docio.document_from_mf(mf)
    assert doc["model"] == {"tag": "field", "p": 5, "m": 1, "modulus": [3, 1]}
    assert docio.mf_from_document(doc).model == doc["model"]


def test_write_read_roundtrip(tmp_path):
    mf = families.construct(5, 3)
    path = tmp_path / "doc.json"
    docio.write_mf(mf, path)
    assert docio.read_mf(path) == mf


def test_parse_errors():
    with pytest.raises(docio.ParseError):
        docio.parse("{not json")
    with pytest.raises(docio.ParseError):
        docio.parse("[1, 2]")
    with pytest.raises(docio.ParseError):
        docio.mf_from_document({"format": 99})
    with pytest.raises(docio.ParseError):
        docio.mf_from_document({"format": 1, "model": {"tag": "plain"},
                                "n": 2, "lambda": 1,
                                "factors": [[[0, 1], [1, 2]]]})
    with pytest.raises(docio.ParseError):
        docio.mf_from_document({"format": 1, "model": {}, "n": 2,
                                "lambda": 1, "factors": []})


def test_bool_lambda_rejected():
    doc = docio.document_from_mf(families.construct(5, 3))
    doc["lambda"] = True  # would read as lambda = 1
    with pytest.raises(docio.ParseError):
        docio.mf_from_document(docio.parse(docio.serialize(doc)))


def test_profile_pairs_are_sorted():
    assert docio.profile_to_pairs({7: 1, 0: 3, 2: 1}) == [[0, 3], [2, 1], [7, 1]]


def test_make_rejects_malformed_factor():
    with pytest.raises(Exception):
        MultiFactorization.make(2, 1, [((0, 1), (1, 2))])
