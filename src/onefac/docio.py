"""Canonical on-disk formats: factorization documents and profile tables.

Both are JSON with a `format` version field, serialized canonically
(sorted keys, compact separators, trailing newline) so golden tests can
compare bytes; a profile is written as sorted [orbit, count] pairs.  A
factorization document (format 3) stores the model block, n, lambda, the
distinct factors in canonical sorted order (`factors`) and, in a parallel
array, how often each one occurs (`counts`): the runs of
`MultiFactorization`, written as they are held.  Each factor is one flat
array [u0, v0, u1, v1, ...] of its n canonical edges, as the package
holds it.  Catalog
factorizations repeat most factors, so a document costs time and bytes
per distinct factor.  Format 2 wrote each factor as n [u, v] arrays, and
format 1 listed every copy as format 2 does and had no `counts`; both
are still read, format 1 as a document whose counts are all 1.

A format 3 document as the package writes it is read as its runs: each
factor, a list of exactly 2n vertices, becomes the tuple of them once its
consecutive pairs pass the canonical-matching stamp test, the factors
are strictly increasing, and those tuples zipped with `counts` are the
runs as they are, with no pass over the copies and no re-count or
re-sort.  Any other document (format 1 or 2, factors out of order or
repeated, edges not in canonical form, a vertex that is not an integer)
takes the general path: a format 3 factor is cut into pairs (an odd
trailing vertex becomes a one-element edge), every vertex's type is
tested, then `MultiFactorization.make` expands, canonicalizes, counts
and sorts the copies, or raises.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import lt

from .core import FactorError, MultiFactorization, _is_canonical_matching

FORMAT_VERSION = 3

# The general read lists the copies of each factor, so without this bound
# a short document with a count of 10**12 would ask for terabytes.  The
# catalog's (n, lambda) = (1000, 998) has 1,995,002 factors.
MAX_FACTORS = 10_000_000


class ParseError(ValueError):
    """Document text is not a well-formed factorization document."""


def document_from_mf(mf: MultiFactorization) -> dict:
    return {
        "format": FORMAT_VERSION,
        "model": dict(mf.model),
        "n": mf.n,
        "lambda": mf.lam,
        "factors": [list(f) for f, _ in mf.runs],
        "counts": [k for _, k in mf.runs],
    }


def mf_from_document(doc: dict) -> MultiFactorization:
    try:
        fmt = doc["format"]
        # JSON true and false load as bool, a subclass of int: test the type.
        if type(fmt) is not int or fmt not in (1, 2, FORMAT_VERSION):
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
            runs = _written_runs(n, factors, counts)
            if runs is not None:
                return MultiFactorization(n, lam, runs, dict(model))
            factors = [[f[i:i + 2] for i in range(0, len(f), 2)] for f in factors]
        if {*map(type, chain.from_iterable(chain.from_iterable(factors)))} - {int}:
            raise ParseError("every vertex id must be an integer")
        return MultiFactorization.make(n, lam, chain.from_iterable(map(repeat, factors, counts)),
                                       model)
    except ParseError:
        raise
    except (KeyError, TypeError, FactorError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc


def _written_runs(n: int, factors: list, counts: list) -> tuple | None:
    """The runs of a format 3 document in the form `document_from_mf`
    writes, or None for any other format 3 document.

    Each factor must be a list of exactly 2n vertices whose n consecutive
    pairs pass `_is_canonical_matching` (one stamp list shared by the
    runs), and the factors must be strictly increasing.  A JSON float,
    string, null or array fails the stamp test; a bool passes it only as
    vertex 0 or 1, which in a canonical perfect matching sit at f[0], f[1]
    or f[2], so those three are type-tested.
    """
    nv, stamps, fs = 2 * n, None, []
    for r, f in enumerate(factors):
        if type(f) is not list or len(f) != nv:
            return None
        stamps = stamps or [-1] * nv  # O(n): the first factor of the right size pays
        if (not _is_canonical_matching(f, nv, stamps, r)
                or bool in (type(f[0]), type(f[1]), type(f[2]))):
            return None
        fs.append(tuple(f))
    if not all(map(lt, fs, fs[1:])):
        return None
    return tuple(zip(fs, counts))


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
