import hashlib
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from onefac import core, cyclic, families, gf

from edgelists import edges, flat


def k4_matchings():
    return cyclic.lucas_factorization(4)


def test_canonicalize_sorts_edges_and_endpoints():
    assert core.canonicalize_factor([(1, 2), (3, 0)]) == flat([(0, 3), (1, 2)])
    # A flat factor reads as consecutive pairs.
    assert core.canonicalize_factor([1, 2, 3, 0]) == flat([(0, 3), (1, 2)])


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
    assert core.canonicalize_factor(flat(shuffled), 10) == canon


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
    broken = flat([(0, 1), (1, 2)])
    f0, f1, _ = k4_matchings()
    mf = core.MultiFactorization(2, 1, ((broken, 1), (f0, 1), (f1, 1)))
    report = core.validate_factorization(mf)
    assert not report.valid
    assert report.factor_errors and report.factor_errors[0][0] == 0
    # A broken factor with count k gives k errors, at its copies' flat indices.
    # A short factor may come before any factor with n pairs.
    other, short = flat([(0, 3), (3, 1)]), flat([(0, 1)])
    for runs, indices in [(((f0, 1), (broken, 3), (f1, 1)), [1, 2, 3]),
                          (((broken, 2), (f0, 1), (other, 2)), [0, 1, 3, 4]),
                          (((short, 2), (f0, 1), (broken, 1)), [0, 1, 3])]:
        mf = core.MultiFactorization(2, 1, runs)
        errors = core.validate_factorization(mf).factor_errors
        assert [i for i, _ in errors] == indices
        assert all(flat(mf.factors[i]) in (broken, other, short) for i in indices)


def test_validate_near_empty_factorization_costs_no_more_than_its_factors():
    tracemalloc.start()
    try:
        mf = core.MultiFactorization.make(10 ** 6, 1, ())
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


_FORMS = {
    "shared": lambda f: f,
    "copy": lambda f: tuple(list(f)),
    "list": lambda f: list(f),
    "edges": lambda f: [list(e) for e in edges(f)],
    "scrambled": lambda f: [(v, u) for u, v in reversed(edges(f))],
    "scrambled_flat": lambda f: flat((v, u) for u, v in reversed(edges(f))),
}


@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(sorted(_FORMS)),
                          st.integers(1, 4)), max_size=8),
       st.booleans(), st.randoms(use_true_random=False))
def test_make_counts_and_sorts_the_canonical_forms(groups, shuffle, rng):
    # Each group is a run of one factor of K_6: all one shared object, or
    # equal fresh copies as flat tuples or lists, as edge lists, or in a
    # non-canonical order.
    matchings = cyclic.lucas_factorization(6)
    xs = [_FORMS[form](matchings[v])
          for v, form, copies in groups for _ in range(copies)]
    if shuffle:
        rng.shuffle(xs)
    mf = core.MultiFactorization.make(3, 1, xs)
    canon = [core.canonicalize_factor(f, 6) for f in xs]
    assert mf.runs == tuple(sorted(Counter(canon).items()))
    assert mf.factors == tuple(map(edges, sorted(canon)))


def test_validate_one_matching_at_large_n_costs_no_more_than_its_factors():
    # The count makes the factor count right, but one matching holds n of
    # the n(2n-1) pairs: no pair counter of 2 * 10^10 entries is made.
    n = 10 ** 5
    f = flat((2 * i, 2 * i + 1) for i in range(n))
    tracemalloc.start()
    try:
        mf = core.MultiFactorization.make(n, 1, [f] * (2 * n - 1))
        report = core.validate_factorization(mf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
    assert not report.valid and report.factor_errors == []
    assert report.factor_count == report.expected_factor_count == 2 * n - 1
    assert report.multiplicity_errors[:2] == [((0, 1), 2 * n - 1, 1), ((0, 2), 0, 1)]


def _valid_inputs():
    return [core.MultiFactorization.make(2, 3, k4_matchings() * 3),
            families.construct(5, 3),
            gf.agl_orbit_factorization(gf.field_ctx(5, 1)),
            families.construct(9, 10)]


# Each takes a flat factor as a list and the vertex count.
_BREAKS = {
    "swapped": lambda f, nv: [f[1], f[0], *f[2:]],
    "unsorted": lambda f, nv: list(flat(edges(f)[::-1])),
    "negative": lambda f, nv: [-1, *f[1:]],
    "out_of_range": lambda f, nv: [*f[:-1], nv],
    "repeated": lambda f, nv: [f[0], f[2], *f[2:]],
    "loop": lambda f, nv: [f[0], f[0], *f[2:]],
    # An odd number of vertices: the last pair has one endpoint.
    "odd_short": lambda f, nv: [f[0], *f[2:]],
    "odd_long": lambda f, nv: [*f[:2], f[2], *f[2:]],
    "missing_edge": lambda f, nv: f[2:],
    # Still a perfect matching: two pairs lose a cover and two gain one.
    "exchanged": lambda f, nv: [f[0], f[2], f[1], f[3], *f[4:]],
    "float": lambda f, nv: [float(x) for x in f],
    "bool": lambda f, nv: [bool(x) if x < 2 else x for x in f],
}


def _broken_runs(mf):
    """Runs with one run broken by each of _BREAKS, or its count off by one."""
    runs = list(mf.runs)
    for j in (0, len(runs) - 1):
        f, k = runs[j]
        for name, brk in _BREAKS.items():
            yield name, tuple(runs[:j] + [(tuple(brk(list(f), mf.num_vertices)), k)] + runs[j + 1:])
        yield "count_up", tuple(runs[:j] + [(f, k + 1)] + runs[j + 1:])
        yield "count_down", tuple(runs[:j] + ([(f, k - 1)] if k > 1 else []) + runs[j + 1:])


def test_validate_agrees_with_the_report_path_on_broken_inputs():
    for mf in _valid_inputs():
        assert core.validate_factorization(mf) == core._validity_report(mf)
        assert core.validate_factorization(mf).valid
        for name, runs in _broken_runs(mf):
            broken = core.MultiFactorization(mf.n, mf.lam, runs)
            report = core.validate_factorization(broken)
            assert report == core._validity_report(broken), name
            assert repr(report) == repr(core._validity_report(broken)), name
            # Edge order and vertices equal to the originals do not matter.
            assert report.valid == (name in ("unsorted", "float", "bool")), name


def _make_by_canonicalize(n, lam, factors):
    """The reference for `make`: every copy through canonicalize_factor."""
    counts: Counter = Counter()
    for f in factors:
        counts[core.canonicalize_factor(f, 2 * n)] += 1
    return core.MultiFactorization(n, lam, tuple(sorted(counts.items())))


def _outcome(build, *args):
    try:
        mf = build(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return mf, repr(mf.runs)


def test_make_agrees_with_canonicalize_factor_on_broken_inputs():
    for mf in _valid_inputs():
        # Format 2 documents hold factors as lists of [u, v] lists, and
        # format 3 documents as flat lists.
        variants = [("as read", [[list(e) for e in f] for f in mf.factors]),
                    ("edge tuples", list(mf.factors)),
                    ("flat lists", [list(flat(f)) for f in mf.factors])]
        for name, runs in _broken_runs(mf):
            variants.append((name, [list(f) for f, k in runs for _ in range(k)]))
            variants.append((name + " as edges", [[list(e) for e in edges(f)]
                                                  for f, k in runs for _ in range(k)]))
        for name, factors in variants:
            assert (_outcome(core.MultiFactorization.make, mf.n, mf.lam, factors)
                    == _outcome(_make_by_canonicalize, mf.n, mf.lam, factors)), name


def _report_inputs():
    """Valid, broken, near-empty and one-matching inputs, in a fixed order."""
    for mf in _valid_inputs():
        yield mf
        for _, runs in _broken_runs(mf):
            yield core.MultiFactorization(mf.n, mf.lam, runs)
    yield core.MultiFactorization.make(10 ** 6, 1, ())
    n = 10 ** 4
    f = flat((2 * i, 2 * i + 1) for i in range(n))
    yield core.MultiFactorization.make(n, 1, [f] * (2 * n - 1))


def test_validity_reports_are_pinned():
    digest = hashlib.sha256()
    for mf in _report_inputs():
        digest.update(repr(core.validate_factorization(mf)).encode() + b"\n")
    assert digest.hexdigest() == (
        "b07eb1cd658d0d0491306562e9e68539ced71ea2ec3773a4b7d0a7cf3e33b213")
