import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from onefac import core, cyclic, families, gf


def k4_matchings():
    return cyclic.lucas_factorization(4)


def test_canonicalize_sorts_edges_and_endpoints():
    assert core.canonicalize_factor([(1, 2), (3, 0)]) == ((0, 3), (1, 2))


def test_canonicalize_rejects_repeated_vertex():
    with pytest.raises(core.NotAMatching):
        core.canonicalize_factor([(0, 1), (1, 2)], 4)


def test_canonicalize_rejects_wrong_size_and_range():
    with pytest.raises(core.WrongSize):
        core.canonicalize_factor([(0, 1)], 4)
    with pytest.raises(core.VertexOutOfRange):
        core.canonicalize_factor([(0, 9), (1, 2)], 4)
    with pytest.raises(core.NotAMatching):
        core.canonicalize_factor([(2, 2), (0, 1)], 4)


def test_canonicalize_idempotent_on_m_factor():
    f = cyclic.m_factor(5, 2)
    assert core.canonicalize_factor(f, 10) == f


@given(st.permutations(list(range(10))), st.randoms(use_true_random=False))
def test_canonicalize_order_insensitive(vertices, rng):
    edges = [(vertices[2 * i], vertices[2 * i + 1]) for i in range(5)]
    canon = core.canonicalize_factor(edges, 10)
    shuffled = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges]
    rng.shuffle(shuffled)
    assert core.canonicalize_factor(shuffled, 10) == canon
    assert core.canonicalize_factor(canon, 10) == canon


def test_validate_three_copies_of_k4_matchings():
    mf = core.MultiFactorization.make(2, 3, k4_matchings() * 3)
    assert core.validate_factorization(mf).valid


def test_validate_detects_missing_factor():
    factors = (k4_matchings() * 3)[:-1]
    mf = core.MultiFactorization.make(2, 3, factors)
    report = core.validate_factorization(mf)
    assert not report.valid
    under = [(e, obs) for e, obs, exp in report.multiplicity_errors]
    assert len(under) == 2 and all(obs == 2 for _, obs in under)


def test_validate_agrees_with_naive_pair_loop():
    mf = gf.agl_orbit_factorization(gf.field_ctx(5, 1))
    assert mf.n == 3 and mf.lam == 2 and len(mf.factors) == 10
    report = core.validate_factorization(mf)
    # independent oracle: count every pair by looping over raw factor lists
    for u in range(6):
        for v in range(u + 1, 6):
            count = sum((u, v) in f for f in mf.factors)
            assert count == 2
    assert report.valid


def test_validate_reports_broken_factor():
    broken = ((0, 1), (1, 2))
    f0, f1, _ = k4_matchings()
    mf = core.MultiFactorization(2, 1, ((broken, 1), (f0, 1), (f1, 1)))
    report = core.validate_factorization(mf)
    assert not report.valid
    assert report.factor_errors and report.factor_errors[0][0] == 0
    # A broken factor with count k gives k errors, at its copies' flat indices.
    # A short factor may come before any factor with n pairs.
    other, short = ((0, 3), (3, 1)), ((0, 1),)
    for runs, indices in [(((f0, 1), (broken, 3), (f1, 1)), [1, 2, 3]),
                          (((broken, 2), (f0, 1), (other, 2)), [0, 1, 3, 4]),
                          (((short, 2), (f0, 1), (broken, 1)), [0, 1, 3])]:
        mf = core.MultiFactorization(2, 1, runs)
        errors = core.validate_factorization(mf).factor_errors
        assert [i for i, _ in errors] == indices
        assert all(mf.factors[i] in (broken, other, short) for i in indices)


def test_validate_near_empty_factorization_costs_no_more_than_its_factors():
    mf = core.MultiFactorization(10 ** 6, 1, ())
    tracemalloc.start()
    try:
        report = core.validate_factorization(mf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert report.factor_count == 0 and not report.valid
    assert report.multiplicity_errors == [((0, v), 0, 1) for v in range(1, 11)]


def test_is_simple_on_doubled_matchings():
    mf = core.MultiFactorization.make(2, 2, k4_matchings() * 2)
    simple, repeated = core.is_simple(mf)
    assert not simple
    assert sorted(repeated) == sorted((f, 2) for f in k4_matchings())
    # Unsorted input with repeats apart goes through make; and no factors at all.
    f0, f1, f2 = sorted(k4_matchings())
    mf = core.MultiFactorization.make(2, 2, (f1, f0, f2, f1, f0, f1))
    assert core.is_simple(mf) == (False, [(f0, 2), (f1, 3)])
    assert core.is_simple(core.MultiFactorization(2, 1, ())) == (True, [])


def test_is_simple_on_field_orbit():
    mf = gf.agl_orbit_factorization(gf.field_ctx(5, 1))
    assert core.is_simple(mf) == (True, [])


def test_is_simple_on_catalog_output_lists_loose_copies():
    mf = families.construct(5, 3)
    simple, repeated = core.is_simple(mf)
    assert not simple
    assert (cyclic.m_factor(5, 3), 3) in repeated


def test_edge_multiplicity_table_lucas():
    mf = core.MultiFactorization.make(2, 1, k4_matchings())
    table = core.edge_multiplicity_table(mf)
    assert set(table.values()) == {1} and len(table) == 6


def test_edge_multiplicity_table_two_copies_of_one_factor():
    f = k4_matchings()[0]
    mf = core.MultiFactorization(2, 2, ((f, 2),))
    table = core.edge_multiplicity_table(mf)
    assert all(table[e] == 2 for e in f)
    assert table.get((0, 2), 0) == 0 or (0, 2) in f


def test_edge_multiplicity_table_catalog():
    mf = families.construct(5, 3)
    table = core.edge_multiplicity_table(mf)
    assert set(table.values()) == {3}
    assert sum(table.values()) == 3 * 5 * 9  # lam * n * (2n-1) edge slots


def _plain_edge_count(factors) -> Counter:
    table: Counter = Counter()
    for f in factors:
        table.update(f)
    return table


def test_edge_multiplicity_table_matches_plain_count():
    mfs = [families.construct(n, lam) for n, lam in [(5, 2), (9, 13), (14, 28)]]
    mfs.append(gf.agl_orbit_factorization(gf.field_ctx(3, 2)))
    for mf in mfs:
        assert core.edge_multiplicity_table(mf) == _plain_edge_count(mf.factors)


def test_edge_multiplicity_table_on_unsorted_factors():
    f0, f1, f2 = sorted(k4_matchings())
    for factors in [(f1, f0, f0, f2, f1, f0, f1, f1),  # unsorted, repeats apart
                    (f2, f2, f2, f0), (f0,) * 5, (f1,), ()]:
        mf = core.MultiFactorization.make(2, 3, factors)
        assert core.edge_multiplicity_table(mf) == _plain_edge_count(factors)


_FORMS = {
    "shared": lambda f: f,
    "copy": lambda f: tuple(list(f)),
    "list": lambda f: [list(e) for e in f],
    "scrambled": lambda f: [(v, u) for u, v in reversed(f)],
}


@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(sorted(_FORMS)),
                          st.integers(1, 4)), max_size=8),
       st.booleans(), st.randoms(use_true_random=False))
def test_make_counts_and_sorts_the_canonical_forms(groups, shuffle, rng):
    # Each group is a run of one factor of K_6: all one shared object, or
    # equal fresh copies as tuples, as lists, or in a non-canonical order.
    matchings = cyclic.lucas_factorization(6)
    xs = [_FORMS[form](matchings[v])
          for v, form, copies in groups for _ in range(copies)]
    if shuffle:
        rng.shuffle(xs)
    mf = core.MultiFactorization.make(3, 1, xs)
    canon = [core.canonicalize_factor(f, 6) for f in xs]
    assert mf.runs == tuple(sorted(Counter(canon).items()))
    assert mf.factors == tuple(sorted(canon))
