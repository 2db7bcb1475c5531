import json
import operator
from itertools import chain
from pathlib import Path

import pytest

from onefac import core, cyclic, docio, families, gf
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
    assert mf.runs == tuple((f, 1) for f in sorted(cyclic.lucas_factorization(4)))


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


def _hex_width(n: int) -> int:
    """Bytes per vertex id in a format 4 factor: the fewest of 1, 2 or 4
    that hold 2n - 1."""
    return next(w for w in (1, 2, 4) if 2 * n - 1 < 256 ** w)


def _hex_ids(n: int, factors: list) -> list:
    """Reference decoder: each format 4 factor as the list of its vertex
    ids, read digit group by digit group, or the reader's ParseError."""
    if type(factors) is not list:
        raise docio.ParseError("factors must be a list")
    nv, w = 2 * n, _hex_width(n)
    out = []
    for f in factors:
        if not (type(f) is str and len(f) == 2 * w * nv and set(f) <= set("0123456789abcdef")):
            raise docio.ParseError(f"every factor must be {nv} vertex ids as {w}-byte lowercase hex")
        out.append([int(f[j:j + 2 * w], 16) for j in range(0, len(f), 2 * w)])
    return out


def _format3(doc: dict) -> dict:
    """The format-3 form of a format-4 document: each factor as a flat array."""
    return dict(doc, format=3, factors=_hex_ids(doc["n"], doc["factors"]))


def _format2(doc: dict) -> dict:
    """The format-2 form of a format-3 document: each factor as [u, v] arrays."""
    return dict(doc, format=2, factors=[[f[i:i + 2] for i in range(0, len(f), 2)]
                                        for f in doc["factors"]])


def _format1(doc: dict) -> dict:
    """The format-1 form of a document: every copy listed as [u, v] arrays, no counts."""
    factors = [f for f, c in zip(_format2(doc)["factors"], doc["counts"]) for _ in range(c)]
    return {"format": 1, "model": doc["model"], "n": doc["n"], "lambda": doc["lambda"],
            "factors": factors}


def _refuse_make(*args, **kwargs):
    raise AssertionError("MultiFactorization.make called on a written document")


def test_format1_golden_reads_like_format2(monkeypatch):
    # Goldens written by each format's version of document_from_mf.
    docs = [docio.parse((GOLDEN / name).read_text())
            for name in ("t3_p3m1_format1.json", "t3_p3m1_format2.json",
                         "t3_p3m1_format3.json", "t3_p3m1.json")]
    assert [doc["format"] for doc in docs] == [1, 2, 3, 4]
    mf = docio.mf_from_document(docs[0])
    assert docio.mf_from_document(docs[1]) == mf
    assert docio.mf_from_document(docs[2]) == mf
    monkeypatch.setattr(MultiFactorization, "make", _refuse_make)
    assert docio.mf_from_document(docs[3]) == mf


def _catalog_documents():
    for n in range(5, 15):
        for lam in range(families.lambda_floor(n), 2 * n + 1):
            try:
                families.family_for(n, lam)
            except families.NoFamily:
                continue
            yield docio.document_from_mf(families.construct(n, lam))


def _differential_documents():
    yield from _catalog_documents()
    for p, m in ((3, 2), (11, 1), (3, 3)):
        yield docio.document_from_mf(gf.agl_orbit_factorization(gf.field_ctx(p, m)))


def test_format1_catalog_documents_read_like_format2(monkeypatch):
    # Formats 1, 2, 3 and 4 of every catalog document for n = 5..14 and of
    # GF q = 9, 11, 27 read to one factorization; format 4 as written reads
    # as its runs, without MultiFactorization.make.
    for doc in _differential_documents():
        key = (doc["model"], doc["n"], doc["lambda"])
        flat = _format3(doc)
        old = _format1(flat)
        assert len(old["factors"]) == doc["lambda"] * (2 * doc["n"] - 1)
        mf = docio.mf_from_document(old)
        assert docio.mf_from_document(_format2(flat)) == mf, key
        assert docio.mf_from_document(flat) == mf, key
        with monkeypatch.context() as m:
            m.setattr(MultiFactorization, "make", _refuse_make)
            assert docio.mf_from_document(doc) == mf, key


def _plain(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _check_document(doc: dict) -> None:
    """One entry per distinct factor, counts summing to lambda(2n - 1), plain
    sorted-key JSON bytes and a byte-identical round trip."""
    key = (doc["model"], doc["n"], doc["lambda"])
    factors = [tuple(f) for f in _format3(doc)["factors"]]
    assert factors == sorted(set(factors)), key
    assert {len(f) for f in factors} == {2 * doc["n"]}, key
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


def _general_read(doc: dict) -> MultiFactorization:
    """Reference: the reader before written documents were read as their runs,
    which decodes a format 4 factor with `_hex_ids`, cuts a format 3 or 4
    factor into pairs, tests every vertex's type and then hands every copy
    to `make`."""
    try:
        fmt = doc["format"]
        if type(fmt) is not int or fmt not in (1, 2, 3, 4):
            raise docio.ParseError(f"unsupported format {fmt!r}")
        n = doc["n"]
        lam = doc["lambda"]
        model = doc["model"]
        factors = doc["factors"]
        counts = doc["counts"] if fmt > 1 else [1] * len(factors)
        if not (type(n) is int and type(lam) is int and n >= 2 and lam >= 1):
            raise docio.ParseError("n and lambda must be integers with n >= 2, lambda >= 1")
        if not isinstance(model, dict) or "tag" not in model:
            raise docio.ParseError("model block must carry a tag")
        if not (type(counts) is list and len(counts) == len(factors)):
            raise docio.ParseError("counts must be a list as long as factors")
        if not all(type(c) is int and c >= 1 for c in counts):
            raise docio.ParseError("every count must be an integer >= 1")
        if sum(counts) > docio.MAX_FACTORS:
            raise docio.ParseError(
                f"counts total {sum(counts)} factors, more than {docio.MAX_FACTORS}")
        if fmt == 4:
            factors = _hex_ids(n, factors)
        if fmt >= 3:
            factors = [[f[i:i + 2] for i in range(0, len(f), 2)] for f in factors]
        if {type(x) for f in factors for e in f for x in e} - {int}:
            raise docio.ParseError("every vertex id must be an integer")
        return MultiFactorization.make(
            n, lam, [f for f, c in zip(factors, counts) for _ in range(c)], model)
    except docio.ParseError:
        raise
    except (KeyError, TypeError, core.FactorError) as exc:
        raise docio.ParseError(f"malformed document: {exc}") from exc


def _outcome(read, doc):
    try:
        return read(doc)
    except Exception as exc:
        return type(exc), str(exc)


def _with_vertex(f: list, i: int, j: int, value) -> list:
    edge = list(f[i])
    edge[j] = value
    return f[:i] + [edge] + f[i + 1:]


def _exchanged_and_repeated(doc: dict):
    fs, cs = doc["factors"], doc["counts"]
    if len(fs) >= 2:
        # two factors exchanged
        yield dict(doc, factors=[fs[1], fs[0]] + fs[2:], counts=[cs[1], cs[0]] + cs[2:])
        yield dict(doc, factors=fs[:1] + fs, counts=cs[:1] + cs)  # adjacent duplicate
        yield dict(doc, factors=fs + fs[:1], counts=cs + cs[:1])  # non-adjacent duplicate
        yield dict(doc, factors=fs[::-1], counts=cs[::-1])  # factors reversed


def _variants(doc: dict):
    """A format 2 doc with one change each: out of order, repeated, mis-typed, malformed.

    The first factor of a written document starts with the edge (0, 1) and
    the last with (0, 2n - 1), so between them a bool replaces vertex 0 at
    f[0][0], vertex 1 at f[0][1] and vertex 1 at f[1][0], in the second edge.
    """
    fs = doc["factors"]

    def with_factor(r, f):
        return dict(doc, factors=fs[:r] + [f] + fs[r + 1:])

    for r in (0, len(fs) - 1):
        f, last = fs[r], len(fs[r]) - 1
        yield with_factor(r, [f[0][::-1]] + f[1:])  # an edge written (v, u)
        yield with_factor(r, [f[1], f[0]] + f[2:])  # two edges exchanged
        for i, j in ((0, 0), (0, 1), (1, 0)):
            if f[i][j] in (0, 1):
                yield with_factor(r, _with_vertex(f, i, j, bool(f[i][j])))
        for bad in (1.0, "0", None):
            yield with_factor(r, _with_vertex(f, 0, 0, bad))
            yield with_factor(r, _with_vertex(f, last, 1, bad))
        yield with_factor(r, [f[0][:1]] + f[1:])  # a 1-element edge
        yield with_factor(r, [f[0] + [f[0][1]]] + f[1:])  # a 3-element edge
        yield with_factor(r, f[:last] + [f[last][0]])  # an edge that is an int
        yield with_factor(r, f[:last])  # one edge short
        yield with_factor(r, f + [[0, 1]])  # one edge long
    yield from _exchanged_and_repeated(doc)
    yield _format1(doc)


def _flat_variants(doc: dict):
    """A format 3 doc with one change each, as `_variants` makes them.

    A bool replaces vertex 0 or 1 at each of the first three places of the
    first and the last factor, where a canonical factor holds them.
    """
    fs = doc["factors"]

    def with_factor(r, f):
        return dict(doc, factors=fs[:r] + [f] + fs[r + 1:])

    for r in (0, len(fs) - 1):
        f = fs[r]
        yield with_factor(r, f[1::-1] + f[2:])  # an edge written (v, u)
        yield with_factor(r, f[2:4] + f[:2] + f[4:])  # two edges exchanged
        yield with_factor(r, f[:2] + f[:2] + f[4:])  # an edge repeated
        # the edges in reverse order
        yield with_factor(r, [x for i in range(len(f) - 2, -1, -2) for x in f[i:i + 2]])
        for i in range(3):
            if f[i] in (0, 1):
                yield with_factor(r, f[:i] + [bool(f[i])] + f[i + 1:])
        for bad in (1.0, "0", None):
            yield with_factor(r, [bad] + f[1:])
            yield with_factor(r, f[:-1] + [bad])
        yield with_factor(r, f[:-1])  # odd length: the last vertex has no partner
        yield with_factor(r, f + f[-1:])  # odd length: pairing in order would drop it
        yield with_factor(r, [f[:2]] + f[1:])  # a nested [u, v] in place of a vertex
        yield with_factor(r, f[:-2])  # one edge short
        yield with_factor(r, f + [0, 1])  # one edge long
        # A factor that is not a flat list; the dict, which no JSON text
        # gives, iterates as the vertices 0..2n-1 in order.
        for other in (f[0], "0123", dict(enumerate(f)), _format2(doc)["factors"][r]):
            yield with_factor(r, other)
    yield from _exchanged_and_repeated(doc)


def _hex_variants(doc: dict):
    """A format 4 doc with one change each: a factor that is not a string
    of lowercase hex of the right length, or decodes to a factor that is
    not canonical, and factors out of order or repeated."""
    fs, n = doc["factors"], doc["n"]
    step = 2 * _hex_width(n)

    def with_factor(r, f):
        return dict(doc, factors=fs[:r] + [f] + fs[r + 1:])

    for r in (0, len(fs) - 1):
        f = fs[r]
        ids = [f[j:j + step] for j in range(0, len(f), step)]
        for other in (_hex_ids(n, [f])[0], None):  # not a string
            yield with_factor(r, other)
        yield with_factor(r, f[:-1])  # odd length
        yield with_factor(r, f[:-step])  # one id short
        yield with_factor(r, f + f[-step:])  # one id long
        yield with_factor(r, "g" + f[1:])  # a non-hex digit
        yield with_factor(r, f[:-1] + "\u0660")  # a non-ASCII digit
        if f.upper() != f:
            yield with_factor(r, f.upper())  # uppercase hex
        yield with_factor(r, f[:2] + " " + f[2:-1])  # whitespace, the right length
        yield with_factor(r, f[:2] + "\n" + f[2:])  # whitespace, one character long
        yield with_factor(r, "".join(ids[:-1]) + format(2 * n, f"0{step}x"))  # an id = 2n
        yield with_factor(r, "".join(ids[:-1]) + "f" * step)  # the largest id
        yield with_factor(r, "".join(ids[1::-1] + ids[2:]))  # an edge written (v, u)
        yield with_factor(r, "".join(ids[2:4] + ids[:2] + ids[4:]))  # two edges exchanged
        yield with_factor(r, "".join(ids[:2] + ids[:2] + ids[4:]))  # an edge repeated
        yield with_factor(r, "".join(ids[:1] * 2 + ids[2:]))  # a vertex repeated in an edge
    yield dict(doc, factors=dict.fromkeys(fs, 1))  # an object, whose keys are the factors
    yield from _exchanged_and_repeated(doc)


def _wide_document() -> dict:
    """A document with 2-byte vertex ids: four factors of the round robin
    on 2n = 258."""
    return docio.document_from_mf(
        MultiFactorization.make(129, 1, cyclic.lucas_factorization(258)[:4]))


def test_written_documents_read_as_runs_like_the_general_read():
    for doc in _differential_documents():
        key = (doc["model"], doc["n"], doc["lambda"])
        flat = _format3(doc)
        old = _format2(flat)
        factors = docio._unpacked(doc["n"], doc["factors"])
        assert docio._written_runs(doc["n"], factors, doc["counts"]) is not None, key
        for d in (doc, flat, old):
            assert docio.mf_from_document(d) == _general_read(d), key
        for new in chain(_hex_variants(doc), _flat_variants(flat), _variants(old)):
            assert _outcome(docio.mf_from_document, new) == _outcome(_general_read, new), \
                (key, new["format"], new["factors"])
    wide = _wide_document()
    assert len(wide["factors"][0]) == 4 * 258
    assert docio.mf_from_document(wide) == _general_read(wide)
    for new in _hex_variants(wide):
        assert _outcome(docio.mf_from_document, new) == _outcome(_general_read, new), \
            (new["format"], new["factors"])


@pytest.mark.parametrize("n, width", [(128, 1), (129, 2), (32768, 2), (32769, 4)])
def test_format4_id_width_follows_n(n, width):
    # One factor, the edges (0, 1), (2, 3), ...: its string holds 2n ids of
    # `width` bytes, and past 256 vertices the ids read back are the
    # shared int objects of vertex_ids.
    mf = MultiFactorization.make(n, 1, [tuple(range(2 * n))])
    doc = docio.parse(docio.serialize(docio.document_from_mf(mf)))
    assert len(doc["factors"][0]) == 2 * width * 2 * n
    back = docio.mf_from_document(doc)
    assert back == mf
    if n > 128:
        assert all(map(operator.is_, back.runs[0][0], core.vertex_ids(2 * n)))


def test_empty_format4_document_reads_without_vertex_ids():
    # No factor bounds n, so a document with n = 2**31 and no factors
    # must read without building the 2**32 shared vertex ids.
    doc = {"format": 4, "model": {"tag": "plain"}, "n": 2 ** 31, "lambda": 1,
           "factors": [], "counts": []}
    assert docio.mf_from_document(doc).runs == ()
