import inspect
import random
import sys
from collections import Counter
from itertools import combinations_with_replacement
from math import gcd

import pytest

from onefac import cyclic, families, starters, verify
from onefac.core import validate_factorization
from onefac.starters import StarterSet


def p4_starter_set(n, r, lam=None):
    alpha = 3 if r == 0 else 2
    profiles = [{0: n - 2, alpha: 1, (n - alpha) % n: 1},
                {0: r + 1, 1: n - r - 2, r + 2: 1}]
    return StarterSet.from_profiles(n, lam or (n - 1 + r), profiles)


def _violations(n, lam, perms):
    with pytest.raises(starters.PreconditionFailed) as exc:
        StarterSet(n, lam, perms)
    assert exc.value.args == ("starter conditions violated", exc.value.violations)
    assert str(exc.value) == "starter conditions violated: " + "; ".join(exc.value.violations)
    return exc.value.violations


def test_starter_conditions_ok_for_p4_pair():
    assert starters.check_starter_conditions(p4_starter_set(9, 0)) == []


def test_starter_conditions_reject_nontrivial_stabilizer():
    m0 = tuple(range(6))  # pi = identity realizes M_0
    assert _violations(6, 3, (m0,)) == [
        "starter 0: stabilizer order 6 (must be 1)", "t(M_0) = 6 exceeds lambda = 3"]


def test_starter_conditions_reject_shared_orbit():
    pi = starters.find_starter(5, {0: 3, 2: 1, 3: 1})
    shifted = tuple((pi[(x - 1) % 5] + 1) % 5 for x in range(5))  # F + 1
    assert _violations(5, 3, (pi, shifted)) == [
        "starters 0 and 1 share an H-orbit", "t(M_0) = 6 exceeds lambda = 3"]


def test_starter_conditions_reject_profile_overflow_and_missing_b():
    pi = starters.find_starter(5, {0: 3, 2: 1, 3: 1})
    # t(M_0) = 3 > lambda = 2
    assert _violations(5, 2, (pi,)) == ["t(M_0) = 3 exceeds lambda = 2"]
    with pytest.raises(starters.PreconditionFailed) as exc:
        StarterSet.from_profiles(5, 9, [{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}])
    assert exc.value.violations == ["odd n but no orbit M_b with t(M_b) = 0"]


def test_assemble_small_case_counts():
    s = StarterSet.from_profiles(5, 3, [{0: 3, 2: 1, 3: 1}])
    mf = starters.assemble(s)
    assert len(mf.factors) == 27
    assert validate_factorization(mf).valid


def test_assemble_p4_at_n10():
    s = p4_starter_set(10, 0)  # lambda = 9
    mf = starters.assemble(s)
    assert len(mf.factors) == 9 * 19
    assert validate_factorization(mf).valid


def test_assemble_empty_starter_set_even_n():
    s = StarterSet(4, 2, ())
    mf = starters.assemble(s)
    assert len(mf.factors) == 2 * 7
    assert validate_factorization(mf).valid


def test_a_starter_set_is_checked_and_profiled_once(monkeypatch):
    checked, profiled = [], []
    real_check, real_profile = starters.check_starter_conditions, cyclic.profile
    monkeypatch.setattr(starters, "check_starter_conditions",
                        lambda s: checked.append(s) or real_check(s))
    monkeypatch.setattr(cyclic, "profile",
                        lambda pi, n: profiled.append(pi) or real_profile(pi, n))
    made = [families.plan(23, 30).starter_set,  # proven: no witness
            StarterSet.from_profiles(6, 4, [{0: 2, 1: 1, 2: 1, 4: 1, 5: 1}])]
    for s in made:
        starters.assemble(s)
        starters.certificate_indecomposable(s)
    assert [verify.certificate_witness(s) is None for s in made] == [True, False]
    assert list(map(id, checked)) == list(map(id, made))
    assert len(profiled) == sum(s.m for s in made) == 5


def test_orbit_multiplicity_heavy_zero():
    pi = starters.find_starter(9, {0: 7, 2: 1, 7: 1})
    mult = starters.orbit_multiplicity_check(pi, 9)
    assert mult[0] == 7 and mult[2] == 1 and mult[3] == 0


def test_orbit_multiplicity_starter_example():
    pi = starters.find_starter(5, {0: 3, 2: 1, 3: 1})
    assert starters.orbit_multiplicity_check(pi, 5)[2] == 1


def test_orbit_multiplicity_requires_trivial_stabilizer():
    with pytest.raises(starters.StabilizerNotTrivial):
        starters.orbit_multiplicity_check(tuple(range(6)), 6)


def test_orbit_multiplicity_random_sweep():
    rng = random.Random(11)
    for n in range(5, 13):
        done = 0
        while done < 40:
            pi = list(range(n))
            rng.shuffle(pi)
            if cyclic.h_stabilizer_order(pi, n) != 1:
                continue
            starters.orbit_multiplicity_check(tuple(pi), n)
            done += 1


def test_certificate_order_single_starter():
    s = StarterSet.from_profiles(5, 3, [{0: 3, 1: 1, 4: 1}])
    assert starters.certificate_order(s) == ((0, 1),)


def test_certificate_order_p4_pair():
    s = p4_starter_set(9, 0)
    order = starters.certificate_order(s)
    assert order is not None and len(order) == 2
    # A marked first through a private singleton; B follows through one of
    # its own singletons whose other toucher (A) is already marked.
    assert order[0][0] == 0 and order[0][1] in (3, 6)
    assert order[1][0] == 1 and order[1][1] in (0, 2)


def test_certificate_order_fails_without_singletons():
    s = StarterSet.from_profiles(6, 4, [{0: 2, 1: 2, 5: 2}, {1: 2, 3: 2, 5: 2}])
    assert starters.certificate_order(s) is None
    with pytest.raises(starters.OrderingFailed):
        starters.certificate_indecomposable(s)


@pytest.mark.parametrize("n,lam", [(6, 2), (7, 3), (9, 3), (10, 4), (12, 6)])
def test_certificate_proven_for_heavy_zero_family(n, lam):
    k = (n - lam - 2) // 2
    profile = {0: lam, 2: 1, n - 2: 1}
    if k:
        profile[1] = k
        profile[n - 1] = k
    s = StarterSet.from_profiles(n, lam, [profile])
    cert = starters.certificate_indecomposable(s)
    assert cert.proven
    assert all(entry.status == "infeasible" for entry in cert.trace)


@pytest.mark.parametrize("r", [0, 1])
def test_certificate_proven_for_p4_pair_at_n9(r):
    cert = starters.certificate_indecomposable(p4_starter_set(9, r))
    assert cert.proven


def test_certificate_p4_shape_at_n5_is_proven():
    # The exact integer system is infeasible at n = 5 as well; test_verify
    # cross-checks this against the exhaustive search.
    cert = starters.certificate_indecomposable(p4_starter_set(5, 0))
    assert cert.proven


def test_certificate_refuses_lambda_one():
    s = StarterSet(4, 1, ())  # a valid set, so only the lambda check can refuse
    with pytest.raises(ValueError, match="lambda >= 2"):
        starters.certificate_indecomposable(s)


def test_certificate_unknown_when_no_orbit_is_saturated():
    s = StarterSet.from_profiles(6, 4, [{0: 2, 1: 1, 2: 1, 4: 1, 5: 1}])
    cert = starters.certificate_indecomposable(s)
    assert not cert.proven
    feasible = [entry for entry in cert.trace if entry.status == "feasible"]
    assert feasible


def test_find_starter_realizes_profile():
    target = {0: 3, 2: 1, 3: 1}
    pi = starters.find_starter(5, target)
    assert cyclic.profile(pi, 5) == target
    assert cyclic.h_stabilizer_order(pi, 5) == 1


def test_find_starter_is_deterministic():
    assert starters.find_starter(9, {0: 7, 2: 1, 7: 1}) == \
        starters.find_starter(9, {0: 7, 2: 1, 7: 1})


def test_find_starter_rejects_bad_displacement_sum():
    with pytest.raises(starters.ProfileSumInvalid):
        starters.find_starter(5, {0: 4, 1: 1})
    with pytest.raises(starters.ProfileSumInvalid):
        starters.find_starter(5, {0: 4})


def test_find_starter_infeasible_when_only_invariant_factor_fits():
    with pytest.raises(starters.InfeasibleProfile):
        starters.find_starter(5, {1: 5})


def test_from_profiles_runs_the_realizer_once_on_an_unrealizable_profile(
        monkeypatch):
    calls = []
    real_find_starter = starters.find_starter

    def counting_find_starter(n, target):
        calls.append(target)
        return real_find_starter(n, target)

    monkeypatch.setattr(starters, "find_starter", counting_find_starter)
    with pytest.raises(starters.InfeasibleProfile):
        StarterSet.from_profiles(9, 10, [{0: 9}])
    assert calls == [{0: 9}]


def _plain_backtracking(n, target):
    # Exhaustive search: positions in order, displacements ascending, the
    # first trivial-stabilizer completion, or None when there is none.
    remaining = dict(target)
    diffs = sorted(a for a, v in target.items() if v > 0)
    pi, used = [-1] * n, [False] * n

    def extend(x):
        if x == n:
            return tuple(pi) if cyclic.h_stabilizer_order(pi, n) == 1 else None
        for a in diffs:
            y = (x + a) % n
            if remaining[a] == 0 or used[y]:
                continue
            pi[x], used[y] = y, True
            remaining[a] -= 1
            found = extend(x + 1)
            if found is not None:
                return found
            remaining[a] += 1
            used[y] = False
        return None

    return extend(0)


def test_find_starter_realizes_catalog_and_random_singleton_profiles():
    # Every profile the catalog plans at n = 5..18, topped up to 700 with
    # random zero-sum profiles that hold a singleton (so gcd 1).
    profiles = set()
    for n in range(5, 19):
        for lam in range(2, 2 * n + 1):
            try:
                family = families.family_for(n, lam)
            except families.NoFamily:
                continue
            profiles.update((n, tuple(sorted(t.items())))
                            for t in families.family_profiles(family, n, lam))
    rng = random.Random(11)
    while len(profiles) < 700:
        n = rng.randint(5, 12)
        t = {}
        for a in rng.sample(range(n), rng.randint(1, 3)):
            t[a] = 0
        for _ in range(n - 1):
            a = rng.choice(sorted(t))
            t[a] += 1
        s = -sum(a * v for a, v in t.items()) % n
        t[s] = t.get(s, 0) + 1
        t = {a: v for a, v in t.items() if v}
        if 1 in t.values():
            profiles.add((n, tuple(sorted(t.items()))))
    for n, items in sorted(profiles):
        pi = starters.find_starter(n, dict(items))
        assert tuple(sorted(cyclic.profile(pi, n).items())) == items, (n, items)
        assert cyclic.h_stabilizer_order(pi, n) == 1, (n, items)


def test_find_starter_with_gcd_above_one_agrees_with_exhaustive_search():
    # Hall's theorem leaves the stabilizer open when the counts share a
    # factor; the rotated chains realize exactly what exhaustive search can.
    checked = infeasible = 0
    for n in range(4, 9):
        for d in combinations_with_replacement(range(n), n):
            target = dict(Counter(d))
            if sum(d) % n or gcd(*target.values()) == 1:
                continue
            want = _plain_backtracking(n, target)
            if want is None:
                with pytest.raises(starters.InfeasibleProfile):
                    starters.find_starter(n, target)
                infeasible += 1
            else:
                pi = starters.find_starter(n, target)
                assert cyclic.profile(pi, n) == target
                assert cyclic.h_stabilizer_order(pi, n) == 1
            checked += 1
    assert (checked, infeasible) == (130, 64)


def test_exchange_chain_past_its_bound_raises(monkeypatch):
    # {0: 7, 2: 1, 7: 1} at n = 9: the chain for d[7] = 2 takes two steps.
    d = [0] * 7 + [2, 7]
    assert cyclic.profile(starters._exchange_chain(d, 9), 9) == {0: 7, 2: 1, 7: 1}
    with pytest.raises(starters.ChainTooLong):
        starters._exchange_chain(d, 1)
    # plan turns it into a construction failure, as for any realizer error.
    real_chain = starters._exchange_chain
    monkeypatch.setattr(starters, "_exchange_chain", lambda d, limit: real_chain(d, 1))
    with pytest.raises(families.StarterSearchFailed):
        families.plan(9, 3)


def test_find_starter_mixed_profile_at_n35():
    # Plain backtracking takes about 43.6 M nodes here.
    target = {0: 12, 1: 12, 2: 10, 3: 1}
    pi = starters.find_starter(35, target)
    assert cyclic.profile(pi, 35) == target
    assert cyclic.h_stabilizer_order(pi, 35) == 1


def test_find_starter_depth_does_not_grow_the_call_stack():
    # A realizer that recursed once per position would need 200 frames here.
    target = {0: 198, 1: 1, 199: 1}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        pi = starters.find_starter(200, target)
    finally:
        sys.setrecursionlimit(limit)
    assert cyclic.profile(pi, 200) == target
    assert cyclic.h_stabilizer_order(pi, 200) == 1


def _dense_selections(n, lam, profiles):
    # The interval system over two full length-n vectors per selection:
    # (x, lo, hi, lo_orbit, hi_orbit) with the smallest binding orbits.
    covs = [[0] * n]
    for t in profiles:
        v = [0] * n
        for a, c in t.items():
            v[a] = c
        covs += [[p + q for p, q in zip(cov, v)] for cov in covs]
    stock = [lam - c for c in covs[-1]]
    for bits, cov in enumerate(covs):
        top = max(cov)
        slack = [c + s for c, s in zip(cov, stock)]
        bottom = min(slack)
        lo, lo_orbit = (top, cov.index(top)) if top > 1 else (1, None)
        hi, hi_orbit = ((bottom, slack.index(bottom)) if bottom < lam - 1
                        else (lam - 1, None))
        yield (tuple(bits >> i & 1 for i in range(len(profiles))),
               lo, hi, lo_orbit, hi_orbit)


def test_selections_match_the_dense_interval_system():
    # Random tuples with m = 0..5, zero-valued entries and last profiles
    # that touch every orbit.
    rng = random.Random(7)
    dense_last = empty = 0
    for _ in range(2000):
        n, m = rng.randint(5, 15), rng.randint(0, 5)
        lam = rng.randint(2, 2 * n)
        profiles = [{a: rng.randint(0, 3) for a in rng.sample(range(n), rng.randint(1, 4))}
                    for _ in range(m)]
        if m and rng.random() < 0.25:
            profiles[-1] = {a: rng.randint(0, 2) for a in range(n)}
            dense_last += 1
        empty += m == 0
        want = list(_dense_selections(n, lam, profiles))
        assert list(starters._selections(n, lam, profiles)) == want, (n, lam, profiles)
        assert list(starters._selections(n, lam, tuple(profiles))) == want
    assert dense_last > 300 and empty > 200


def test_find_profiles_spells_out_each_slot():
    # {0: p, 1: q, g: n-p-q-1, s: 1} with s closing the displacement sum;
    # coinciding orbits add up, zero counts drop, the slots keep their order.
    assert starters.find_profiles(9, [(7, 0, 2), (0, 4, 2), (3, 5, 2), (4, 3, 2)]) == (
        {0: 7, 2: 1, 7: 1}, {1: 4, 2: 4, 6: 1}, {0: 3, 1: 5, 4: 1},
        {0: 4, 1: 3, 2: 1, 4: 1})
    assert starters.find_profiles(11, [(5, 4, 9)]) == ({0: 5, 1: 4, 9: 2},)


def test_assemble_factor_count_identity():
    # m*n + join block + loose copies = lambda*(2n-1) for odd and even n
    for n, lam, profiles in [
        (5, 3, [{0: 3, 2: 1, 3: 1}]),
        (6, 4, [{0: 4, 2: 1, 4: 1}]),
        (9, 8, [{0: 7, 2: 1, 7: 1}, {0: 1, 1: 7, 2: 1}]),
    ]:
        s = StarterSet.from_profiles(n, lam, profiles)
        mf = starters.assemble(s)
        assert len(mf.factors) == lam * (2 * n - 1)
        assert validate_factorization(mf).valid


def test_certificate_trace_matches_interval_system():
    # Each trace entry's [lo, hi] must be exactly the set of lambda_0 in
    # 1..lambda-1 with cov_x(a) <= lambda_0 <= cov_x(a) + lambda - T(a)
    # for every orbit a, written out here without the kernel.
    for n in range(5, 10):
        for lam in range(2, 2 * n + 1):
            try:
                s = families.plan(n, lam).starter_set
            except families.NoFamily:
                continue
            profiles, totals = s.profiles, s.totals
            trace = starters.certificate_indecomposable(s).trace
            assert len(trace) == 2 ** s.m
            for entry in trace:
                cov = [sum(t.get(a, 0) for t, bit in zip(profiles, entry.x) if bit)
                       for a in range(n)]
                for lam0 in range(1, lam):
                    fits = all(cov[a] <= lam0 <= cov[a] + lam - totals.get(a, 0)
                               for a in range(n))
                    assert (entry.lo <= lam0 <= entry.hi) == fits, (n, lam, entry)
                assert (entry.status == "feasible") == (entry.lo <= entry.hi)
                # A binding orbit is the smallest orbit attaining its bound.
                slack = [cov[a] + lam - totals.get(a, 0) for a in range(n)]
                assert (entry.lo_orbit is None) == (max(cov) <= 1)
                if entry.lo_orbit is not None:
                    assert entry.lo_orbit == cov.index(entry.lo)
                assert (entry.hi_orbit is None) == (min(slack) >= lam - 1)
                if entry.hi_orbit is not None:
                    assert entry.hi_orbit == slack.index(entry.hi)


def _orbit_building_conditions(n, lam, perms):
    """The starter conditions as first written: every starter's whole
    H-orbit is built, its size read as the stabilizer and its least
    member compared as the orbit's representative."""
    violations = []
    orbits = []
    for i, pi in enumerate(perms):
        try:
            orbits.append(cyclic.h_orbit(pi, n))
        except cyclic.NotAPermutation as exc:
            violations.append(f"starter {i}: {exc}")
            orbits.append(None)
    for i, orbit in enumerate(orbits):
        if orbit is not None and len(orbit) != n:
            violations.append(f"starter {i}: stabilizer order "
                              f"{n // len(orbit)} (must be 1)")
    reps = {}
    for i, orbit in enumerate(orbits):
        if orbit is None:
            continue
        rep = orbit[0]
        if rep in reps:
            violations.append(f"starters {reps[rep]} and {i} share an H-orbit")
        else:
            reps[rep] = i
    totals = Counter()
    for pi in perms:
        totals.update(cyclic.profile(pi, n))
    for a, total in sorted(totals.items()):
        if total > lam:
            violations.append(f"t(M_{a}) = {total} exceeds lambda = {lam}")
    if n % 2 and all(totals[a] for a in range(n)):
        violations.append("odd n but no orbit M_b with t(M_b) = 0")
    return violations


def _reference_outcome(n, lam, perms):
    try:
        return _orbit_building_conditions(n, lam, perms)
    except cyclic.NotAPermutation as exc:
        return ("raises", str(exc))


def _made_outcome(n, lam, perms):
    """Making the set: its violations, [] when it is made, or ("raises", msg)."""
    try:
        StarterSet(n, lam, perms)
    except starters.PreconditionFailed as exc:
        return exc.violations
    except cyclic.NotAPermutation as exc:
        return ("raises", str(exc))
    return []


def _periodic_perm(rng, n, h):
    """A permutation with pi + h = pi, for h dividing n."""
    sigma = list(range(h))
    rng.shuffle(sigma)
    lift = [rng.randrange(n // h) for _ in range(h)]
    return tuple((sigma[x % h] + (lift[x % h] + x // h) * h) % n for x in range(n))


def test_starter_conditions_match_the_orbit_building_reference():
    rng = random.Random(23)
    seen = Counter()
    for _ in range(3000):
        n = rng.randrange(2, 13)
        perms = []
        for _ in range(rng.randrange(5)):
            kind = rng.randrange(6)
            if kind == 0 and perms and len(perms[-1]) == n:  # a shifted copy
                pi, h = perms[-1], rng.randrange(n)
                perms.append(tuple((pi[(x - h) % n] + h) % n for x in range(n)))
            elif kind == 1:  # a nontrivial stabilizer
                h = rng.choice([d for d in range(1, n + 1) if n % d == 0])
                perms.append(_periodic_perm(rng, n, h))
            elif kind == 2 and n % 2:  # every difference once: no free orbit b
                perms.append(tuple(2 * x % n for x in range(n)))
            elif kind == 3 and rng.random() < 0.2:  # not a permutation
                bad = list(range(n))
                bad[rng.randrange(n)] = rng.choice([0, n, -1])
                perms.append(tuple(bad[:rng.randrange(n - 1, n + 2)]))
            else:
                perms.append(tuple(rng.sample(range(n), n)))
        args = (n, rng.randrange(1, 2 * n + 1), tuple(perms))
        want = _reference_outcome(*args)
        assert _made_outcome(*args) == want, args
        if isinstance(want, tuple):
            seen["raises"] += 1
        for v in want if isinstance(want, list) else ():
            seen[next(k for k in ("stabilizer", "share", "exceeds", "M_b") if k in v)] += 1
    assert set(seen) == {"raises", "stabilizer", "share", "exceeds", "M_b"}
    assert min(seen.values()) >= 50, seen
