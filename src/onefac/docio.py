"""Canonical on-disk formats: factorization documents and profile tables.

Both are JSON with a `format` version field, serialized canonically
(sorted keys, compact separators, trailing newline) so golden tests can
compare bytes; a profile is written as sorted [orbit, count] pairs.  A
factorization document (format 2) stores the model block, n, lambda, the
distinct factors in canonical sorted order as arrays of [u, v] pairs
(`factors`) and, in a parallel array, how often each one occurs
(`counts`): the runs of `MultiFactorization`, written as they are held.
Catalog factorizations repeat most factors, so a document costs time and
bytes per distinct factor.  Format 1 listed every copy and
had no `counts`; it is still read, as a document whose counts are all 1.
"""

from __future__ import annotations

import json
from itertools import chain, repeat

from .core import FactorError, MultiFactorization

FORMAT_VERSION = 2

# Reading a document walks every copy once, and the flat view
# MultiFactorization.factors holds them all, so without this bound a short
# document with a count of 10**12 would ask for terabytes.  The catalog's
# (n, lambda) = (1000, 998) has 1,995,002 factors.
MAX_FACTORS = 10_000_000


class ParseError(ValueError):
    """Document text is not a well-formed factorization document."""


def document_from_mf(mf: MultiFactorization) -> dict:
    return {
        "format": FORMAT_VERSION,
        "model": dict(mf.model),
        "n": mf.n,
        "lambda": mf.lam,
        "factors": [[[u, v] for u, v in f] for f, _ in mf.runs],
        "counts": [k for _, k in mf.runs],
    }


def mf_from_document(doc: dict) -> MultiFactorization:
    try:
        fmt = doc["format"]
        # JSON true and false load as bool, a subclass of int: test the type.
        if type(fmt) is not int or fmt not in (1, FORMAT_VERSION):
            raise ParseError(f"unsupported format {fmt!r}")
        n = doc["n"]
        lam = doc["lambda"]
        model = doc["model"]
        factors = doc["factors"]
        counts = doc["counts"] if fmt == FORMAT_VERSION else [1] * len(factors)
        if not (type(n) is int and type(lam) is int and n >= 2 and lam >= 1):
            raise ParseError("n and lambda must be integers with n >= 2, lambda >= 1")
        if not isinstance(model, dict) or "tag" not in model:
            raise ParseError("model block must carry a tag")
        if not (type(counts) is list and len(counts) == len(factors)):
            raise ParseError("counts must be a list as long as factors")
        if not all(type(c) is int and c >= 1 for c in counts):
            raise ParseError("every count must be an integer >= 1")
        if sum(counts) > MAX_FACTORS:
            raise ParseError(f"counts total {sum(counts)} factors, more than {MAX_FACTORS}")
        if {*map(type, chain.from_iterable(chain.from_iterable(factors)))} - {int}:
            raise ParseError("every vertex id must be an integer")
        return MultiFactorization.make(n, lam, chain.from_iterable(map(repeat, factors, counts)),
                                       model)
    except ParseError:
        raise
    except (KeyError, TypeError, FactorError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc


def serialize(doc: dict) -> str:
    """Bit-exact canonical serialization.

    The documents the package writes (`document_from_mf`, the profile
    tables) are built of fresh lists and dicts and cannot hold a cycle, so
    the encoder keeps no circular-reference markers.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def parse(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
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
