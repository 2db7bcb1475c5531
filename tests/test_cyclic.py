import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from onefac import cyclic
from onefac.core import canonicalize_factor, validate_factorization, MultiFactorization
from onefac.starters import find_starter

from edgelists import edges, flat


def test_m_factor_identity_pairing():
    assert cyclic.m_factor(3, 0) == flat([(0, 3), (1, 4), (2, 5)])


def test_m_factor_shift_two():
    assert cyclic.m_factor(5, 2) == flat([(0, 7), (1, 8), (2, 9), (3, 5), (4, 6)])


def test_m_factors_partition_cross_edges():
    seen = Counter()
    for a in range(5):
        seen.update(edges(cyclic.m_factor(5, a)))
    assert all(v == 1 for v in seen.values())
    assert len(seen) == 25
    assert all(u < 5 <= v for u, v in seen)


def test_lucas_k4_explicit():
    hub = 3
    l0, l1, l2 = cyclic.lucas_factorization(4)
    assert l0 == flat([(0, hub), (1, 2)])
    assert l1 == flat([(0, 2), (1, hub)])
    assert l2 == flat([(0, 1), (2, hub)])


def test_lucas_k2_single_factor():
    assert cyclic.lucas_factorization(2) == [flat([(0, 1)])]


def test_lucas_k8_covers_every_edge_once():
    factors = cyclic.lucas_factorization(8)
    assert len(factors) == 7
    mf = MultiFactorization.make(4, 1, factors)
    assert validate_factorization(mf).valid


def test_lucas_rejects_odd_order():
    with pytest.raises(cyclic.OddOrder):
        cyclic.lucas_factorization(5)


def test_near_factorization_k3_explicit():
    near = cyclic.near_one_factorization(3)
    assert near == [flat([(1, 2)]), flat([(0, 2)]), flat([(0, 1)])]


def test_near_factorization_k5_counts():
    near = cyclic.near_one_factorization(5)
    assert len(near) == 5 and all(len(edges(f)) == 2 for f in near)
    seen = Counter()
    for f in near:
        seen.update(edges(f))
    assert len(seen) == 10 and set(seen.values()) == {1}


def test_near_factor_misses_its_own_vertex():
    for n in (3, 5, 7, 9):
        for i, f in enumerate(cyclic.near_one_factorization(n)):
            assert i not in f


def test_near_rejects_even_order():
    with pytest.raises(cyclic.EvenOrder):
        cyclic.near_one_factorization(4)


def side_and_cross_counts(factors, n):
    side = Counter()
    cross = Counter()
    for f in factors:
        for u, v in edges(f):
            (cross if u < n <= v else side)[(u, v)] += 1
    return side, cross


def test_join_even_covers_side_edges_once():
    factors = cyclic.join_even(4)
    assert len(factors) == 3
    side, cross = side_and_cross_counts(factors, 4)
    assert not cross
    assert set(side.values()) == {1} and len(side) == 2 * 6


def test_join_even_minimal_case():
    assert cyclic.join_even(2) == [flat([(0, 1), (2, 3)])]


def test_join_even_rejects_odd_order():
    with pytest.raises(cyclic.OddOrder):
        cyclic.join_even(5)


def test_join_odd_explicit_n3():
    factors = cyclic.join_odd(3, 1)
    assert len(factors) == 3
    near = cyclic.near_one_factorization(3)
    expected0 = flat(sorted(list(edges(near[0])) + [(u + 3, v + 3) for u, v in edges(near[1])]
                            + [(0, 3 + 1)]))
    assert expected0 in factors
    _, cross = side_and_cross_counts(factors, 3)
    assert cross == Counter(edges(cyclic.m_factor(3, 1)))


def test_join_odd_multiplicities():
    for n, b in [(5, 0), (5, 3), (7, 2)]:
        factors = cyclic.join_odd(n, b)
        assert len(set(factors)) == len(factors) == n
        side, cross = side_and_cross_counts(factors, n)
        assert set(side.values()) == {1} and len(side) == n * (n - 1)
        assert cross == Counter(edges(cyclic.m_factor(n, b)))


def test_join_odd_cross_edges_are_exactly_m_b():
    for b in range(5):
        _, cross = side_and_cross_counts(cyclic.join_odd(5, b), 5)
        assert set(cross) == set(edges(cyclic.m_factor(5, b)))
    with pytest.raises(cyclic.EvenOrder):
        cyclic.join_odd(4, 0)


def test_h_orbit_of_m_factor_is_itself():
    plus2 = tuple((x + 2) % 5 for x in range(5))
    assert cyclic.cross_factor(plus2, 5) == cyclic.m_factor(5, 2)
    assert cyclic.h_orbit(plus2, 5) == [plus2]


def test_h_orbit_of_starter_has_n_elements():
    pi = find_starter(5, {0: 3, 2: 1, 3: 1})
    orbit = cyclic.h_orbit(pi, 5)
    assert len(orbit) == 5 and len(set(orbit)) == 5


def test_h_orbit_matches_vertex_shift():
    # F + h adds h to the Z_n coordinate of every vertex of F.
    def shift(factor, n, h):
        def mv(u):
            return (u + h) % n if u < n else n + (u - n + h) % n
        return canonicalize_factor([(mv(u), mv(v)) for u, v in edges(factor)], 2 * n)

    rng = random.Random(5)
    for n in range(2, 10):
        for _ in range(20):
            pi = list(range(n))
            rng.shuffle(pi)
            f = cyclic.cross_factor(pi, n)
            want = sorted({shift(f, n, h) for h in range(n)})
            orbit = cyclic.h_orbit(pi, n)
            assert [cyclic.cross_factor(p, n) for p in orbit] == want
            assert cyclic.h_stabilizer_order(pi, n) == \
                sum(shift(f, n, h) == f for h in range(n))


def test_h_orbit_rejects_non_permutation():
    with pytest.raises(cyclic.NotAPermutation):
        cyclic.h_orbit((0, 0, 1), 3)


def test_orbit_size_times_stabilizer_is_n():
    for pi in [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)]:
        orbit = cyclic.h_orbit(pi, 4)
        assert len(orbit) * cyclic.h_stabilizer_order(pi, 4) == 4


def test_stabilizer_orders():
    assert cyclic.h_stabilizer_order(tuple(range(6)), 6) == 6  # M_0
    pi = find_starter(5, {0: 3, 2: 1, 3: 1})
    assert cyclic.h_stabilizer_order(pi, 5) == 1
    # displacement sequence of period 2 on Z_4: +1 on evens, -1 on odds
    pi = (1, 0, 3, 2)
    assert cyclic.h_stabilizer_order(pi, 4) == 2


def test_stabilizer_order_matches_counting_every_shift():
    # Every permutation of Z_n for n <= 7 against the count of all n shifts.
    for n in range(1, 8):
        for pi in permutations(range(n)):
            brute = sum(all((pi[(x - h) % n] + h) % n == pi[x] for x in range(n))
                        for h in range(n))
            assert cyclic.h_stabilizer_order(pi, n) == brute, pi


def test_profile_of_m_factor():
    pi = tuple((x + 3) % 7 for x in range(7))
    assert cyclic.cross_factor(pi, 7) == cyclic.m_factor(7, 3)
    assert cyclic.profile(pi, 7) == {3: 7}


def test_profile_of_heavy_zero_starter():
    pi = find_starter(9, {0: 7, 2: 1, 7: 1})
    assert cyclic.profile(pi, 9) == {0: 7, 2: 1, 7: 1}


def test_profile_of_explicit_chain_factor():
    # {[i_0,(i+1)_1] : 2<=i<=8} + [0_0,2_1] + [1_0,1_1] on Z_9
    pi = (2, 1, 3, 4, 5, 6, 7, 8, 0)
    assert cyclic.profile(pi, 9) == {1: 7, 2: 1, 0: 1}


@given(st.permutations(list(range(8))))
def test_profile_mass_and_displacement_sum(pi):
    t = cyclic.profile(tuple(pi), 8)
    assert sum(t.values()) == 8
    assert sum(a * v for a, v in t.items()) % 8 == 0


def _random_perm(rng, n):
    pi = list(range(n))
    rng.shuffle(pi)
    return tuple(pi)


def test_builders_are_canonical_by_construction():
    # Nothing in cyclic canonicalizes: each output must already be the
    # fixed point of the canonical form.
    def canonical(f, n):
        return canonicalize_factor(f, 2 * n) == f and type(f) is tuple

    rng = random.Random(17)
    for n in range(2, 13):
        pis = [_random_perm(rng, n) for _ in range(5)] + [tuple(range(n))]
        for pi in pis:
            assert canonical(cyclic.cross_factor(pi, n), n)
            assert all(canonical(f, n) for f in cyclic.orbit_factors(pi, n))
        for a in range(-n, 2 * n):
            f = cyclic.m_factor(n, a)
            assert canonical(f, n) and f == flat((x, n + (x + a) % n) for x in range(n))
        if n % 2:
            for b in range(n):
                assert all(canonical(f, n) for f in cyclic.join_odd(n, b))
            for f in cyclic.near_one_factorization(n):
                pairs = edges(f)
                assert pairs == tuple(sorted(pairs)) and all(u < v for u, v in pairs)
        else:
            assert all(canonicalize_factor(f, n) == f
                       for f in cyclic.lucas_factorization(n))
            assert all(canonical(f, n) for f in cyclic.join_even(n))


def test_orbit_factors_are_the_h_orbit_counted_per_stabilizer_element():
    rng = random.Random(19)
    for n in range(2, 13):
        pis = [_random_perm(rng, n) for _ in range(30)]
        pis += [tuple((x + a) % n for x in range(n)) for a in range(n)]
        for pi in pis:
            d = cyclic.h_stabilizer_order(pi, n)
            want = Counter({cyclic.cross_factor(p, n): d for p in cyclic.h_orbit(pi, n)})
            assert Counter(cyclic.orbit_factors(pi, n)) == want, pi
    with pytest.raises(cyclic.NotAPermutation):
        cyclic.orbit_factors((0, 0, 1), 3)


def test_builders_share_one_int_object_per_vertex():
    # Past the small-int cache (ids above 256) every factor built here draws
    # its ids from core.vertex_ids, so a factorization holds 2n int objects.
    for n in (129, 130):
        pi = _random_perm(random.Random(n), n)
        factors = [cyclic.m_factor(n, 7), *cyclic.orbit_factors(pi, n),
                   *(cyclic.join_odd(n, 3) if n % 2 else cyclic.join_even(n))]
        assert len({id(x) for f in factors for x in f}) == 2 * n
