"""Canonical on-disk formats: factorization documents and profile tables.

Both are JSON with a `format` version field, serialized canonically
(sorted keys, compact separators, trailing newline) so golden tests can
compare bytes; a profile is written as sorted [orbit, count] pairs.  A
factorization document (format 4) stores the model block, n, lambda, the
distinct factors in canonical sorted order (`factors`) and, in a parallel
array, how often each one occurs (`counts`): the runs of
`MultiFactorization`, written as they are held.  Each factor is one
string, the lowercase hex of its 2n vertex ids u0, v0, u1, v1, ... in
order, each id big-endian in the fewest of 1, 2 or 4 bytes that hold
2n - 1 (so the width follows from n: 1 byte up to n = 128, 2 bytes up
to n = 32768).  Catalog factorizations repeat most factors, so a
document costs time and bytes per distinct factor.  Format 3 wrote each
factor as one flat array of its vertex ids, format 2 as n [u, v] arrays,
and format 1 listed every copy as format 2 does and had no `counts`;
all three are still read, format 1 as a document whose counts are all 1.

A format 4 document whose factors are not all strings of exactly that
many lowercase hex digits is a ParseError.  The factors are decoded at
once, with one `bytes.fromhex` and the format 4 codec of `core`
(`_width`, `_layout`, `_decoded`), whose decode the field orbit build
shares; past 256 vertices the ids are taken from `core.vertex_ids`, so
the runs share one int object per vertex as built runs do.  A document
as the package writes it is read as its runs: each factor passes the canonical-matching
stamp test, the factors are strictly increasing, and zipped with
`counts` they are the runs, with no pass over the copies and no re-count
or re-sort.  Any other document takes the general path: format 4
factors that decode but are not canonical, sorted or distinct, and every
format 1, 2 or 3 document (a format 3 factor is cut into pairs, an odd
trailing vertex becoming a one-element edge, and every vertex's type is
tested).  There `MultiFactorization.make` expands, canonicalizes, counts
and sorts the copies, or raises.
"""

from __future__ import annotations

import json
from itertools import chain, count, repeat
from operator import lt

from .core import (FactorError, MultiFactorization, _decoded, _is_canonical_matching, _layout,
                   _width)

FORMAT_VERSION = 4

# The general read lists the copies of each factor, so without this bound
# a short document with a count of 10**12 would ask for terabytes.  The
# catalog's (n, lambda) = (1000, 998) has 1,995,002 factors.
MAX_FACTORS = 10_000_000


class ParseError(ValueError):
    """Document text is not a well-formed factorization document."""


def document_from_mf(mf: MultiFactorization) -> dict:
    pack = _layout(2 * mf.n).pack
    return {
        "format": FORMAT_VERSION,
        "model": dict(mf.model),
        "n": mf.n,
        "lambda": mf.lam,
        "factors": [pack(*f).hex() for f, _ in mf.runs],
        "counts": [k for _, k in mf.runs],
    }


def mf_from_document(doc: dict) -> MultiFactorization:
    try:
        fmt = doc["format"]
        # JSON true and false load as bool, a subclass of int: test the type.
        if type(fmt) is not int or fmt not in (1, 2, 3, FORMAT_VERSION):
            raise ParseError(f"unsupported format {fmt!r}")
        n = doc["n"]
        lam = doc["lambda"]
        model = doc["model"]
        factors = doc["factors"]
        counts = doc["counts"] if fmt > 1 else [1] * len(factors)
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
        if fmt == FORMAT_VERSION:
            factors = _unpacked(n, factors)
            runs = _written_runs(n, factors, counts)
            if runs is not None:
                return MultiFactorization(n, lam, runs, dict(model))
        else:
            if fmt == 3:
                factors = [[f[i:i + 2] for i in range(0, len(f), 2)] for f in factors]
            if {*map(type, chain.from_iterable(chain.from_iterable(factors)))} - {int}:
                raise ParseError("every vertex id must be an integer")
        return MultiFactorization.make(n, lam, chain.from_iterable(map(repeat, factors, counts)),
                                       model)
    except ParseError:
        raise
    except (KeyError, TypeError, FactorError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc


def _unpacked(n: int, factors: list) -> list:
    """The factors of a format 4 document as tuples of vertex ids.

    Every factor must be a string of exactly 2n ids of `_width(2n)` bytes
    in lowercase hex; otherwise this raises ParseError.  The factors are
    joined and decoded at once, and the text must be the hex of what it
    decodes to, which rejects uppercase digits and the whitespace
    `bytes.fromhex` would skip.
    """
    if type(factors) is not list:
        raise ParseError("factors must be a list")
    if not factors:  # n is then bounded by nothing the document holds
        return []
    nv = 2 * n
    width = _width(nv)
    text = None
    if {*map(type, factors)} == {str} and {*map(len, factors)} == {2 * width * nv}:
        text = "".join(factors)
    try:
        blob = bytes.fromhex(text)
    except (TypeError, ValueError):
        blob = None
    if blob is None or blob.hex() != text:
        raise ParseError(f"every factor must be {nv} vertex ids as {width}-byte lowercase hex")
    return _decoded(blob, nv)


def _written_runs(n: int, factors: list, counts: list) -> tuple | None:
    """The runs of unpacked format 4 factors in the form `document_from_mf`
    writes, or None for any other.

    The n consecutive pairs of each factor must pass
    `_is_canonical_matching` (one stamp list shared by the factors), and
    the factors must be strictly increasing.
    """
    nv = 2 * n
    stamps = [-1] * nv if factors else None
    if not (all(map(_is_canonical_matching, factors, repeat(nv), repeat(stamps), count()))
            and all(map(lt, factors, factors[1:]))):
        return None
    return tuple(zip(factors, counts))


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
