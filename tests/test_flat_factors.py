"""Flat factors keep the order, the factorizations and the documents of edge lists.

A factor is held as the flat tuple (u0, v0, u1, v1, ...) of its canonical
edges.  On random perfect matchings, with repeats and in any order and
orientation, this checks that sorting the flat factors sorts them as
their edge lists sort, that `make` reads the edge pairs view back to the
same factorization, and that a written document reads back equal.
"""

from collections import Counter

from hypothesis import given, strategies as st

from onefac import docio
from onefac.core import MultiFactorization, canonicalize_factor

from edgelists import edges, flat


@st.composite
def matchings(draw):
    """(n, lambda, copies): perfect matchings of K_2n as scrambled edge
    lists, some of them repeated."""
    n = draw(st.integers(2, 7))
    distinct = draw(st.lists(st.permutations(range(2 * n)), min_size=1, max_size=6))
    copies = []
    for perm in distinct:
        pairs = [(perm[2 * i], perm[2 * i + 1]) for i in range(n)]
        copies += [pairs] * draw(st.integers(1, 3))
    order = draw(st.permutations(range(len(copies))))
    return n, draw(st.integers(1, 9)), [copies[i] for i in order]


@given(matchings())
def test_flat_factors_sort_as_their_edge_lists(case):
    n, _, copies = case
    canon = [canonicalize_factor(m, 2 * n) for m in copies]
    pair_forms = [tuple(sorted(tuple(sorted(e)) for e in m)) for m in copies]
    assert [edges(f) for f in canon] == pair_forms
    assert sorted(canon) == [flat(p) for p in sorted(pair_forms)]


@given(matchings())
def test_make_reads_its_edge_pairs_view_back(case):
    n, lam, copies = case
    mf = MultiFactorization.make(n, lam, copies)
    pair_forms = Counter(tuple(sorted(tuple(sorted(e)) for e in m)) for m in copies)
    assert mf.runs == tuple((flat(p), k) for p, k in sorted(pair_forms.items()))
    assert mf.factors == tuple(p for p, k in sorted(pair_forms.items()) for _ in range(k))
    assert MultiFactorization.make(n, lam, mf.factors) == mf
    assert MultiFactorization.make(n, lam, map(flat, mf.factors)) == mf


@given(matchings())
def test_documents_round_trip(case):
    n, lam, copies = case
    mf = MultiFactorization.make(n, lam, copies)
    text = docio.serialize(docio.document_from_mf(mf))
    back = docio.mf_from_document(docio.parse(text))
    assert back == mf
    assert docio.serialize(docio.document_from_mf(back)) == text
