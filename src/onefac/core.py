"""Data model for 1-factorizations of the complete multigraph lambda*K_2n.

Vertices are the dense integers 0..2n-1.  An edge is a pair (u, v) with
u < v, a 1-factor is a perfect matching stored flat: the tuple
(u0, v0, u1, v1, ...) of its 2n vertex ids, edge after edge, with the
edges in lexicographic order.  For such factors the order of the flat
tuples is the order of their edge lists, so sorting either gives the
same sequence.  A factorization is a multiset of 1-factors stored as
runs: each distinct factor once, in sorted order, with how often it
occurs.  Two labelled models map onto these integers elsewhere
in the package:

* cyclic model: the vertex a_j (a mod n, j mod 2) gets id a + n*j;
* field model:  the element sum(a_i * v^i) of GF(p^m) gets id
  sum(a_i * p^i), and the extra vertex "infinity" gets id p^m.

Factor equality is syntactic equality of canonical forms, which makes all
multiset bookkeeping cheap and deterministic.  Catalog factorizations
repeat most factors, so construction, validation (the accept and the
report path), the document writer, the reader of a written document, the
multicover search and the witness check each work once per distinct
factor.  A witness's positions count each run's copies in run order.
`MultiFactorization.factors`, the view of every copy for outside
callers, is the one place the package hands out edge pairs: each copy
there is a tuple of (u, v) tuples.  No code in the package reads it.

Every factor the package builds (cyclic orbit factors and joins, field
images) is canonical by construction, and draws its vertex ids from
`vertex_ids`, so the factors of a factorization share one int object
per vertex.  `canonicalize_factor` checks and sorts only input from
outside that is not canonical already; `MultiFactorization.make` takes
such input as flat factors or as edge lists.

A vertex pair (u, v), u < v, has the dense id row[u] + v, with the row
offsets of `pair_rows`: validation counts coverage in a flat list
indexed by these ids, and the multicover search numbers its packed
fields by them.  The field orbit builds each image as its format 4 bytes
(`_pair_keys`, beside `_layout`, the codec the document reader decodes
with): the sorted keys u << 8w | v of its edges, w = `_width` bytes per id.
"""

from __future__ import annotations

import struct
from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, groupby, repeat
from operator import itemgetter

Edge = tuple[int, int]
OneFactor = tuple[int, ...]


class FactorError(ValueError):
    """A collection of edges is not a valid 1-factor."""


class WrongSize(FactorError):
    """Edge list has the wrong number of edges for a perfect matching."""


class NotAMatching(FactorError):
    """Some vertex appears in more than one edge (or twice in one edge)."""


class VertexOutOfRange(FactorError):
    """A vertex id falls outside 0..2n-1."""


def canonicalize_factor(edges, num_vertices: int | None = None) -> OneFactor:
    """Return the canonical flat form of a perfect matching.

    `edges` is an iterable of vertex pairs, or a flat sequence of vertex
    ids u0, v0, u1, v1, ..., read as such when its first item is not
    iterable (an odd trailing vertex is then an edge with one endpoint).  The
    endpoints of every edge are put in increasing order and the edges are
    sorted; the result is their flat tuple.  If `num_vertices` is omitted
    it defaults to twice the number of edges (a spanning matching).

    Raises WrongSize, NotAMatching or VertexOutOfRange when the input is
    not a perfect matching on the implied vertex set.  Idempotent.

    This is the boundary for input from outside: `MultiFactorization.make`
    and the report path of `validate_factorization` call it on each
    distinct factor that is not canonical already, and `gf.base_factor`
    calls it.  Factors the package builds are canonical by construction
    and do not pass through it.
    """
    items = list(edges)
    if items and not hasattr(items[0], "__iter__"):
        pairs = [tuple(items[i:i + 2]) for i in range(0, len(items), 2)]
    else:
        pairs = [tuple(e) for e in items]
    if num_vertices is None:
        num_vertices = 2 * len(pairs)
    if 2 * len(pairs) != num_vertices:
        raise WrongSize(f"expected {num_vertices // 2} edges, got {len(pairs)}")
    seen: set[int] = set()
    canon = []
    for e in pairs:
        if len(e) != 2:
            raise NotAMatching(f"edge {e!r} does not have two endpoints")
        u, v = e
        if u == v:
            raise NotAMatching(f"loop edge at vertex {u}")
        if u > v:
            u, v = v, u
        if not (0 <= u and v < num_vertices):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{num_vertices - 1}")
        if u in seen or v in seen:
            raise NotAMatching(f"vertex repeated in edge ({u},{v})")
        seen.add(u)
        seen.add(v)
        canon.append((u, v))
    canon.sort()
    return tuple(chain.from_iterable(canon))


_VERTICES: list[int] = []


def vertex_ids(num_vertices: int) -> list[int]:
    """The ids 0..num_vertices-1, drawn from one list kept for the process.

    Above 256 each int the interpreter computes is a new 28-byte object.
    Factors built from slices and lookups of this list share one object
    per vertex id, so a stored factor costs one pointer per vertex.  The
    list only grows and entry i is always i, so sharing it across callers
    changes no result; each caller gets its own slice.
    """
    if len(_VERTICES) < num_vertices:
        _VERTICES.extend(range(len(_VERTICES), num_vertices))
    return _VERTICES[:num_vertices]


def pair_rows(num_vertices: int) -> list[int]:
    """Row offsets of the dense pair ids: pair (u, v), u < v, has id row[u] + v.

    The ids run 0..C(num_vertices, 2) - 1 in lexicographic pair order.
    """
    nv = num_vertices
    return [u * (2 * nv - u - 3) // 2 - 1 for u in range(nv)]


# The struct codes of big-endian unsigned ints of 1, 2, 4 and 8 bytes.
_ID_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(nv: int) -> int:
    """Bytes per vertex id in the format 4 bytes of a factor on nv
    vertices: the fewest of 1, 2 or 4 that hold nv - 1."""
    return 1 if nv <= 1 << 8 else 2 if nv <= 1 << 16 else 4


def _layout(nv: int) -> struct.Struct:
    """The format 4 bytes of a factor on nv vertices: its nv ids, each
    big-endian in `_width(nv)` bytes."""
    return struct.Struct(f">{nv}{_ID_CODES[_width(nv)]}")


def _pair_keys(nv: int) -> tuple[int, struct.Struct]:
    """(shift, layout) of the same bytes read as the factor's nv // 2 edges:
    the edge (u, v) is the key u << shift | v, and layout packs the sorted
    keys, big-endian in 2 * `_width(nv)` bytes each, as the factor's bytes."""
    w = _width(nv)
    return 8 * w, struct.Struct(f">{nv // 2}{_ID_CODES[2 * w]}")


def _decoded(blob: bytes, nv: int) -> list[OneFactor]:
    """The flat factors whose format 4 bytes on nv vertices are joined in blob.

    Ids of 2 or more bytes are taken from `vertex_ids`, as built factors'
    are, unless one is nv or more (a bad document's, which `make` reports).
    """
    layout = _layout(nv)
    if _width(nv) > 1:
        shared = vertex_ids(nv)
        try:
            return [itemgetter(*f)(shared) for f in layout.iter_unpack(blob)]
        except IndexError:
            pass
    return list(layout.iter_unpack(blob))


def _is_canonical_matching(f, nv: int, stamps: list[int], r: int) -> bool:
    """True iff the consecutive pairs (u, v) of the flat factor f have
    strictly increasing first endpoints prev < u < v < nv and no vertex
    twice.

    With len(f) = nv that makes f a perfect matching in canonical form.
    `stamps` is a per-vertex list shared by the calls, and r must differ
    from every stamp an earlier call left, so nothing is cleared between
    calls.  A vertex that is not an integer gives False.
    """
    prev = -1
    it = iter(f)
    try:
        for u, v in zip(it, it):
            if not prev < u < v < nv or stamps[u] == r or stamps[v] == r:
                return False
            stamps[u] = stamps[v] = r
            prev = u
    except (TypeError, ValueError):
        return False
    return True


class Record:
    """An immutable record whose equality, hash and repr read the fields
    that the class attribute `_key` names.

    A subclass's `__init__` fills `vars(self)`, and `cached_property`
    writes there too; any other assignment or deletion raises.  Records
    compare equal only to records of the same type.
    """

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._key))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._key, self._values()))
        return f"{type(self).__name__}({fields})"


class MultiFactorization(Record):
    """A multiset of 1-factors of lambda*K_2n plus its model tag.

    `runs` holds each distinct canonical factor once, in sorted order,
    paired with its count >= 1.  The constructor trusts its caller to
    keep that form; `make` builds one from outside input.  `model` records
    how vertex ids were produced, e.g. {"tag": "cyclic", "n": 5} or
    {"tag": "field", "p": 5, "m": 1, "modulus": [3, 1]} or, by default, a
    fresh {"tag": "plain"}.  Unhashable, as `model` is a dict; not a
    tuple, so that `len` and iteration do not read as its factors.
    """

    _key = ("n", "lam", "runs", "model")
    __hash__ = None

    def __init__(self, n: int, lam: int, runs: tuple[tuple[OneFactor, int], ...],
                 model: dict | None = None):
        vars(self).update(n=n, lam=lam, runs=runs,
                          model={"tag": "plain"} if model is None else model)

    @classmethod
    def make(cls, n: int, lam: int, factors, model=None) -> "MultiFactorization":
        """Canonicalize, count and sort a list of factors with repeats.

        A factor is a flat sequence of vertex ids or a list of edges.  Each
        group of adjacent equal factors is read once; copies of one object
        are told equal by identity, without walking their vertices.  A
        flat factor that `_is_canonical_matching` passes is kept as it is,
        and any other goes through `canonicalize_factor`, which sorts it or
        raises.  Only the distinct factors are sorted.
        """
        nv = 2 * n
        stamps = None  # O(n): the first factor with 2n vertices pays
        counts: Counter = Counter()
        for r, (f, copies) in enumerate(groupby(factors)):
            f = tuple(f)
            if len(f) == nv:
                stamps = stamps or [-1] * nv
            if len(f) != nv or not _is_canonical_matching(f, nv, stamps, r):
                f = canonicalize_factor(f, nv)
            counts[f] += len(list(copies))
        return cls(n, lam, tuple(sorted(counts.items())),
                   dict(model) if model else {"tag": "plain"})

    @cached_property
    def factors(self) -> tuple[tuple[Edge, ...], ...]:
        """Every copy in sorted order as a tuple of (u, v) pairs, for outside
        callers; witness positions index it.

        The copies of a run are one object, and each vertex pair is one
        shared tuple, so the view costs a pointer per edge of each run.
        """
        shared: dict[Edge, Edge] = {}

        def pairs(f):
            it = iter(f)
            edges = list(zip(it, it))
            return tuple(map(shared.setdefault, edges, edges))

        return tuple(chain.from_iterable(repeat(pairs(f), k) for f, k in self.runs))

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    def expected_factor_count(self) -> int:
        return self.lam * (2 * self.n - 1)


MULTIPLICITY_ERRORS = 10


class ValidityReport(namedtuple("ValidityReport", "valid multiplicity_errors "
                                "factor_errors factor_count expected_factor_count")):
    """Outcome of validate_factorization.

    `multiplicity_errors` lists (edge, observed, expected) for the first
    MULTIPLICITY_ERRORS vertex pairs, in pair order, whose coverage
    differs from lambda: the scan stops there, so a near-empty document
    with a huge n costs no more than its factors.  `factor_errors` lists
    (index, reason) for every structurally broken factor.  `valid` is True
    iff both lists are empty and the int factor_count is the
    expected_factor_count lambda*(2n-1).
    """

    __slots__ = ()


def validate_factorization(mf: MultiFactorization) -> ValidityReport:
    """Check that every vertex pair is covered exactly lambda times.

    A valid factorization is accepted by `_covers_exactly`, one pass over
    the edges of the runs.  Any other input gets its report, errors and
    all, from `_validity_report`.
    """
    count, expected = sum(k for _, k in mf.runs), mf.expected_factor_count()
    if count == expected and _covers_exactly(mf):
        return ValidityReport(True, [], [], count, expected)
    return _validity_report(mf)


def _covers_exactly(mf: MultiFactorization) -> bool:
    """True iff every run is a perfect matching whose consecutive pairs are
    u < v, and every vertex pair is covered exactly lambda times.

    Each run's count is added into a flat list indexed by pair id
    (`pair_rows`), and a per-vertex stamp list catches a vertex met twice
    in one run.  The O(n^2) list is made only once the runs hold at least
    one edge per pair, which a valid input has, so memory stays in
    proportion to the input.
    """
    n, nv, runs = mf.n, mf.num_vertices, mf.runs
    npairs = n * (nv - 1)
    if sum(len(f) for f, _ in runs) < 2 * npairs:
        return False
    row, cnt, stamps = pair_rows(nv), [0] * npairs, [-1] * nv
    try:
        for r, (f, k) in enumerate(runs):
            if len(f) != nv:
                return False
            it = iter(f)
            for u, v in zip(it, it):
                if not 0 <= u < v < nv or stamps[u] == r or stamps[v] == r:
                    return False
                stamps[u] = stamps[v] = r
                cnt[row[u] + v] += k
    except (TypeError, ValueError):  # an edge that is not two integers
        return False
    return cnt.count(mf.lam) == npairs


def _validity_report(mf: MultiFactorization) -> ValidityReport:
    """The full report: every broken factor, and the first pairs whose coverage is off.

    One pass over the runs: a run that `_is_canonical_matching` does not
    pass goes through `canonicalize_factor`, which raises on exactly the
    runs that are not perfect matchings and words the error each copy
    gets, at its flat index; and every edge adds the run's count to a
    Counter.
    """
    nv = mf.num_vertices
    stamps = None  # O(n): the first run with 2n vertices pays
    table: Counter = Counter()
    factor_errors: list[tuple[int, str]] = []
    start = 0
    for r, (f, k) in enumerate(mf.runs):
        if len(f) == nv:
            stamps = stamps or [-1] * nv
        if len(f) != nv or not _is_canonical_matching(f, nv, stamps, r):
            try:
                canonicalize_factor(f, nv)
            except FactorError as exc:
                factor_errors += [(i, str(exc)) for i in range(start, start + k)]
        it = iter(f)
        for e in zip(it, it):
            table[e] += k
        start += k
    mult_errors: list[tuple[Edge, int, int]] = []
    # combinations(range(nv), 2) would first copy all nv vertex ids.
    for e in chain.from_iterable(zip(repeat(u), range(u + 1, nv)) for u in range(nv)):
        observed = table.get(e, 0)
        if observed != mf.lam:
            mult_errors.append((e, observed, mf.lam))
            if len(mult_errors) == MULTIPLICITY_ERRORS:
                break
    count_ok = start == mf.expected_factor_count()
    valid = count_ok and not mult_errors and not factor_errors
    return ValidityReport(valid=valid,
                          multiplicity_errors=mult_errors,
                          factor_errors=factor_errors,
                          factor_count=start,
                          expected_factor_count=mf.expected_factor_count())


def is_simple(mf: MultiFactorization) -> tuple[bool, list[tuple[OneFactor, int]]]:
    """True iff no 1-factor repeats; repeated factors listed with counts."""
    repeated = [(f, k) for f, k in mf.runs if k >= 2]
    return (not repeated, repeated)
