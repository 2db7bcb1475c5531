import json
from pathlib import Path

import pytest

from onefac import acceptance, cyclic, docio, families, gf
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


def _plain(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _catalog_documents():
    for n in range(5, 15):
        for lam in range(families.lambda_floor(n), 2 * n + 1):
            try:
                families.family_for(n, lam)
            except families.NoFamily:
                continue
            yield docio.document_from_mf(families.construct(n, lam))
    for lam in (7, 23, 44):
        yield docio.document_from_mf(families.construct(23, lam))


def test_serialize_matches_plain_json_on_catalog_documents():
    for doc in _catalog_documents():
        assert docio.serialize(doc) == _plain(doc), (doc["n"], doc["lambda"])
        # Equal neighbours share one list: one list object per distinct factor.
        shared = {id(f) for f in doc["factors"]}
        assert len(shared) == len({tuple(map(tuple, f)) for f in doc["factors"]})


@pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (7, 2)])
def test_serialize_matches_plain_json_on_field_documents(p, m):
    doc = docio.document_from_mf(gf.agl_orbit_factorization(gf.field_ctx(p, m)))
    assert docio.serialize(doc) == _plain(doc)


def test_serialize_matches_plain_json_on_profile_tables():
    doc = acceptance.profile_golden_document()
    assert "factors" not in doc
    assert docio.serialize(doc) == _plain(doc)


def test_serialize_matches_plain_json_on_hand_made_documents():
    a, b = [[0, 1], [2, 3]], [[0, 2], [1, 3]]
    mf = families.construct(5, 3)
    docs = [
        # the same list object at non-adjacent positions, and an equal copy
        {"format": 1, "model": {"tag": "plain"}, "n": 2, "lambda": 3,
         "factors": [a, b, a, [[0, 1], [2, 3]], a]},
        # factors and edges out of canonical order
        {"format": 1, "model": {"tag": "plain"}, "n": 2, "lambda": 1,
         "factors": [[[3, 0], [2, 1]], [[1, 3], [0, 2]], [[0, 1], [2, 3]]]},
        # tuple-valued factors, as stored in a MultiFactorization
        {"format": 1, "model": mf.model, "n": mf.n, "lambda": mf.lam,
         "factors": mf.factors},
        {"factors": list(mf.factors), "extra": [None, None, (), ()], "z": "x"},
        {"factors": [], "empty": {}},
    ]
    for doc in docs:
        assert docio.serialize(doc) == _plain(doc)
