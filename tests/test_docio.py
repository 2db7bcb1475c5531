import json
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


def test_bool_format_rejected():
    doc = {"format": True, "model": {"tag": "plain"}, "n": 2, "lambda": 1,
           "factors": [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]}
    with pytest.raises(docio.ParseError):
        docio.mf_from_document(doc)  # would read as format 1


def test_max_factors_admits_the_catalog():
    # The catalog's (n, lambda) = (1000, 998) has lambda * (2n - 1) factors.
    assert docio.MAX_FACTORS >= 998 * (2 * 1000 - 1)


def test_profile_pairs_are_sorted():
    assert docio.profile_to_pairs({7: 1, 0: 3, 2: 1}) == [[0, 3], [2, 1], [7, 1]]


def test_make_rejects_malformed_factor():
    with pytest.raises(Exception):
        MultiFactorization.make(2, 1, [((0, 1), (1, 2))])


def _format1(doc: dict) -> dict:
    """The format-1 form of a document: every copy listed, no counts."""
    factors = [f for f, c in zip(doc["factors"], doc["counts"]) for _ in range(c)]
    return {"format": 1, "model": doc["model"], "n": doc["n"], "lambda": doc["lambda"],
            "factors": factors}


def test_format1_golden_reads_like_format2():
    old = docio.parse((GOLDEN / "t3_p3m1_format1.json").read_text())
    new = docio.parse((GOLDEN / "t3_p3m1.json").read_text())
    assert (old["format"], new["format"]) == (1, 2)
    assert docio.mf_from_document(old) == docio.mf_from_document(new)


def _catalog_documents():
    for n in range(5, 15):
        for lam in range(families.lambda_floor(n), 2 * n + 1):
            try:
                families.family_for(n, lam)
            except families.NoFamily:
                continue
            yield docio.document_from_mf(families.construct(n, lam))


def test_format1_catalog_documents_read_like_format2():
    for doc in _catalog_documents():
        old = _format1(doc)
        assert len(old["factors"]) == doc["lambda"] * (2 * doc["n"] - 1)
        assert docio.mf_from_document(old) == docio.mf_from_document(doc), \
            (doc["n"], doc["lambda"])


def _plain(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _check_document(doc: dict) -> None:
    """One entry per distinct factor, counts summing to lambda(2n - 1), plain
    sorted-key JSON bytes and a byte-identical round trip."""
    key = (doc["model"], doc["n"], doc["lambda"])
    factors = [tuple(map(tuple, f)) for f in doc["factors"]]
    assert factors == sorted(set(factors)), key
    assert sum(doc["counts"]) == doc["lambda"] * (2 * doc["n"] - 1), key
    text = docio.serialize(doc)
    assert text == _plain(doc), key
    again = docio.serialize(docio.document_from_mf(
        docio.mf_from_document(docio.parse(text))))
    assert again == text, key


def test_serialize_matches_plain_json_on_catalog_documents():
    for doc in _catalog_documents():
        _check_document(doc)
    for lam in (7, 23, 44):
        _check_document(docio.document_from_mf(families.construct(23, lam)))


@pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (7, 2)])
def test_serialize_matches_plain_json_on_field_documents(p, m):
    _check_document(docio.document_from_mf(gf.agl_orbit_factorization(gf.field_ctx(p, m))))
