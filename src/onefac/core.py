"""Data model for 1-factorizations of the complete multigraph lambda*K_2n.

Vertices are the dense integers 0..2n-1.  An edge is a pair (u, v) with
u < v, a 1-factor is a perfect matching stored as a lexicographically
sorted tuple of edges, and a factorization is a multiset of 1-factors
stored as a sorted tuple (repeats allowed).  Two labelled models map onto
these integers elsewhere in the package:

* cyclic model: the vertex a_j (a mod n, j mod 2) gets id a + n*j;
* field model:  the element sum(a_i * v^i) of GF(p^m) gets id
  sum(a_i * p^i), and the extra vertex "infinity" gets id p^m.

Factor equality is syntactic equality of canonical forms, which makes all
multiset bookkeeping cheap and deterministic.  Catalog factorizations
repeat most factors, and `runs` is the one place that finds the runs of
equal adjacent factors; construction, validation, edge counting, the
document writer and the multicover search each work once per run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count
from operator import itemgetter, ne

Edge = tuple[int, int]
OneFactor = tuple[Edge, ...]


class FactorError(ValueError):
    """A collection of edges is not a valid 1-factor."""


class WrongSize(FactorError):
    """Edge list has the wrong number of edges for a perfect matching."""


class NotAMatching(FactorError):
    """Some vertex appears in more than one edge (or twice in one edge)."""


class VertexOutOfRange(FactorError):
    """A vertex id falls outside 0..2n-1."""


def canonicalize_factor(edges, num_vertices: int | None = None) -> OneFactor:
    """Return the canonical sorted form of a perfect matching.

    `edges` is any iterable of vertex pairs.  The endpoints of every edge
    are put in increasing order and the edge list is sorted; the result is
    a tuple of tuples.  If `num_vertices` is omitted it defaults to twice
    the number of edges (a spanning matching).

    Raises WrongSize, NotAMatching or VertexOutOfRange when the input is
    not a perfect matching on the implied vertex set.  Idempotent.
    """
    pairs = [tuple(e) for e in edges]
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
    return tuple(canon)


def runs(factors):
    """Iterate (factor, start, stop) over the maximal runs of equal adjacent factors.

    `factors` is a sequence; factors[start:stop] is one run.  The run
    ends are found in C, so a sequence of distinct factors costs no
    per-factor Python loop here.  Copies of one factor object are told
    equal by identity, without walking their edges.
    """
    # A run starts at 0 and wherever a factor differs from the one before.
    # Containers compare their items identity first, so the factors are
    # compared wrapped in 1-tuples.
    differs = map(ne, zip(factors), zip(factors[1:]))
    starts = [0, *compress(count(1), differs)] if factors else []
    stops = [*starts[1:], len(factors)]
    return zip(map(factors.__getitem__, starts), starts, stops)


@dataclass(frozen=True)
class MultiFactorization:
    """A multiset of 1-factors of lambda*K_2n plus its model tag.

    `factors` is kept as a sorted tuple of canonical factors with repeats,
    so identical factors are adjacent and multiplicity counts are
    recoverable.  `model` records how vertex ids were produced, e.g.
    {"tag": "cyclic", "n": 5} or {"tag": "field", "p": 5, "m": 1,
    "modulus": [3, 1]} or {"tag": "plain"}.
    """

    n: int
    lam: int
    factors: tuple[OneFactor, ...]
    model: dict = field(default_factory=lambda: {"tag": "plain"})

    @classmethod
    def make(cls, n: int, lam: int, factors, model=None) -> "MultiFactorization":
        """Canonicalize every factor, sort the multiset and wrap it up.

        Each run of equal adjacent factors is canonicalized once.
        """
        canon = []
        for f, start, stop in runs(tuple(factors)):
            canon += [canonicalize_factor(f, 2 * n)] * (stop - start)
        return cls(n=n, lam=lam, factors=tuple(sorted(canon)),
                   model=dict(model) if model else {"tag": "plain"})

    @property
    def num_vertices(self) -> int:
        return 2 * self.n

    def expected_factor_count(self) -> int:
        return self.lam * (2 * self.n - 1)


MULTIPLICITY_ERRORS = 10


@dataclass
class ValidityReport:
    """Outcome of validate_factorization.

    `multiplicity_errors` lists (edge, observed, expected) for the first
    MULTIPLICITY_ERRORS vertex pairs, in pair order, whose coverage
    differs from lambda: the scan stops there, so a near-empty document
    with a huge n costs no more than its factors.  `factor_errors` lists
    (index, reason) for every structurally broken factor.  `valid` is True
    iff both lists are empty and the factor count is lambda*(2n-1).
    """

    valid: bool
    multiplicity_errors: list[tuple[Edge, int, int]]
    factor_errors: list[tuple[int, str]]
    factor_count: int
    expected_factor_count: int


def edge_multiplicity_table(mf: MultiFactorization) -> Counter:
    """Exact multiplicity of every edge over the factor multiset.

    Each run of equal adjacent factors adds its edges once, weighted by
    the run length.  One factor of each run is counted in C, so only the
    extra copies of longer runs cost a Python loop.
    """
    rs = list(runs(mf.factors))
    table = Counter(chain.from_iterable(map(itemgetter(0), rs)))
    for f, start, stop in rs:
        if stop - start > 1:
            for e in f:
                table[e] += stop - start - 1
    return table


def validate_factorization(mf: MultiFactorization) -> ValidityReport:
    """Check that every vertex pair is covered exactly lambda times."""
    nv = mf.num_vertices
    factor_errors: list[tuple[int, str]] = []
    # Each copy in a run of equal factors gets the run's verdict.
    for f, start, stop in runs(mf.factors):
        try:
            canonicalize_factor(f, nv)
        except FactorError as exc:
            factor_errors += [(i, str(exc)) for i in range(start, stop)]
    table = edge_multiplicity_table(mf)
    mult_errors: list[tuple[Edge, int, int]] = []
    for e in combinations(range(nv), 2):
        observed = table.get(e, 0)
        if observed != mf.lam:
            mult_errors.append((e, observed, mf.lam))
            if len(mult_errors) == MULTIPLICITY_ERRORS:
                break
    count_ok = len(mf.factors) == mf.expected_factor_count()
    valid = count_ok and not mult_errors and not factor_errors
    return ValidityReport(valid=valid,
                          multiplicity_errors=mult_errors,
                          factor_errors=factor_errors,
                          factor_count=len(mf.factors),
                          expected_factor_count=mf.expected_factor_count())


def is_simple(mf: MultiFactorization) -> tuple[bool, list[tuple[OneFactor, int]]]:
    """True iff no 1-factor repeats; repeated factors listed with counts."""
    repeated = [(f, stop - start) for f, start, stop in runs(sorted(mf.factors))
                if stop - start >= 2]
    return (not repeated, repeated)
