"""Canonical on-disk formats: factorization documents and profile tables.

Both are JSON with a `format` version field, serialized canonically
(sorted keys, compact separators, trailing newline) so golden tests can
compare bytes; a profile is written as sorted [orbit, count] pairs.  A
factorization document stores the model block, n, lambda and the factor
list as arrays of [u, v] pairs; factors and edges are written in
canonical sorted order.

Catalog factorizations repeat factors many times over, so each run of
equal factors (`core.runs`) shares one list object in a document's
factor list, and the serializer encodes each run of one object once.
Treat a document as read-only: mutating one factor's list changes all
its copies.
"""

from __future__ import annotations

import json

from .core import FactorError, MultiFactorization, runs

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Document text is not a well-formed factorization document."""


def document_from_mf(mf: MultiFactorization) -> dict:
    factors = []
    for f, start, stop in runs(mf.factors):
        factors += [[[u, v] for u, v in f]] * (stop - start)
    return {
        "format": FORMAT_VERSION,
        "model": dict(mf.model),
        "n": mf.n,
        "lambda": mf.lam,
        "factors": factors,
    }


def mf_from_document(doc: dict) -> MultiFactorization:
    try:
        if doc["format"] != FORMAT_VERSION:
            raise ParseError(f"unsupported format {doc['format']!r}")
        n = doc["n"]
        lam = doc["lambda"]
        model = doc["model"]
        factors = doc["factors"]
        # JSON true and false load as bool, a subclass of int: test the type.
        if not (type(n) is int and type(lam) is int and n >= 2 and lam >= 1):
            raise ParseError("n and lambda must be integers with n >= 2, lambda >= 1")
        if not isinstance(model, dict) or "tag" not in model:
            raise ParseError("model block must carry a tag")
        return MultiFactorization.make(n, lam, factors, model)
    except ParseError:
        raise
    except (KeyError, TypeError, FactorError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def serialize(doc: dict) -> str:
    """Bit-exact canonical serialization.

    The text is json.dumps(doc, sort_keys=True, separators=(",", ":"))
    plus a newline, for any object with string keys.  The top-level
    object is written here so that each element of a top-level array is
    encoded once per run of the same object.
    """
    parts = []
    for key, value in sorted(doc.items()):
        if isinstance(value, (list, tuple)):
            items = []
            # Runs of one object, not of equal items: 1 == True, yet they
            # encode differently.
            for _, start, stop in runs([*map(id, value)]):
                items += [_encode(value[start])] * (stop - start)
            text = "[" + ",".join(items) + "]"
        else:
            text = _encode(value)
        parts.append(_encode(key) + ":" + text)
    return "{" + ",".join(parts) + "}\n"


def parse(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    return doc


def write_mf(mf: MultiFactorization, path) -> None:
    with open(path, "w") as fh:
        fh.write(serialize(document_from_mf(mf)))


def read_mf(path) -> MultiFactorization:
    with open(path) as fh:
        return mf_from_document(parse(fh.read()))


def profile_to_pairs(profile: dict[int, int]) -> list[list[int]]:
    return [[a, t] for a, t in sorted(profile.items())]

