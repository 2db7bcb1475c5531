import hashlib
import json
from collections import Counter
from importlib import resources
from math import comb

import pytest

from onefac import cyclic, docio, families, starters
from onefac.core import is_simple, validate_factorization
from onefac.starters import assemble


def test_family_partition_examples():
    assert families.family_for(9, 3) == "P1"
    assert families.family_for(9, 4) == "P2"
    assert families.family_for(9, 9) == "P4"
    assert families.family_for(9, 10) == "P3"
    assert families.family_for(9, 11) == "P7"
    assert families.family_for(9, 14) == "P5"
    assert families.family_for(9, 16) == "P6"
    assert families.family_for(9, 18) == "P8"


def test_family_partition_is_exact():
    for n in range(9, 15):
        for lam in range(families.lambda_floor(n), 2 * n + 1):
            claims = [f for f in families.FAMILY_IDS
                      if families.family_domain(f, n, lam)]
            assert len(claims) == 1, (n, lam, claims)


def test_no_family_outside_range():
    with pytest.raises(families.NoFamily):
        families.family_for(9, 25)
    with pytest.raises(families.NoFamily):
        families.family_for(9, 2)  # below ceil((n-2)/3)
    for n, lam in [(2, 2), (2, 5), (3, 3), (3, 7), (5, 4), (6, 6)]:
        with pytest.raises(families.NoFamily):
            families.family_for(n, lam)


def test_parity_split_covers_the_floor():
    # (10, 3) and (13, 4) sit at the shared parity floor ceil((n-2)/3);
    # the odd-parity family claims them.
    assert families.family_for(10, 3) == "P2"
    assert families.family_for(13, 4) == "P2"


def test_profiles_p1():
    assert families.family_profiles("P1", 9, 3) == [{0: 3, 1: 2, 8: 2, 2: 1, 7: 1}]
    assert families.family_profiles("P1", 5, 3) == [{0: 3, 1: 1, 4: 1}]
    assert families.family_profiles("P1", 6, 4) == [{0: 4, 1: 1, 5: 1}]


def test_profiles_p4():
    assert families.family_profiles("P4", 9, 9) == [
        {0: 7, 2: 1, 7: 1}, {0: 2, 1: 6, 3: 1}]
    assert families.family_profiles("P4", 9, 8) == [
        {0: 7, 3: 1, 6: 1}, {0: 1, 1: 7, 2: 1}]


def test_profiles_p3_n11():
    assert families.family_profiles("P3", 11, 12) == [
        {0: 9, 2: 1, 9: 1}, {0: 3, 1: 7, 4: 1}]
    assert families.family_profiles("P3", 11, 13) == [
        {0: 9, 2: 1, 9: 1}, {0: 4, 1: 6, 5: 1}]
    assert families.family_profiles("P3", 11, 14) == [
        {0: 9, 3: 1, 8: 1}, {0: 1, 1: 9, 2: 1}, {0: 4, 1: 5, 7: 1, 10: 1}]


def test_profiles_p6_small_n():
    assert families.family_profiles("P6", 9, 16) == [
        {0: 7, 2: 1, 7: 1}, {0: 7, 4: 1, 5: 1},
        {1: 7, 2: 1, 0: 1}, {1: 6, 8: 1, 4: 1, 0: 1}, {1: 3, 2: 5, 5: 1}]
    assert families.family_profiles("P6", 10, 18) == [
        {0: 8, 2: 1, 8: 1}, {0: 8, 3: 1, 7: 1},
        {1: 8, 2: 1, 0: 1}, {1: 7, 9: 1, 4: 1, 0: 1}, {1: 3, 2: 6, 5: 1}]


def test_profiles_p8_explicit_pins():
    profs = families.family_profiles("P8", 9, 18)
    assert profs[:4] == [{0: 7, 4: 1, 5: 1}, {0: 7, 3: 1, 6: 1},
                         {0: 1, 1: 7, 2: 1}, {1: 6, 2: 2, 8: 1}]
    profs = families.family_profiles("P8", 9, 17)
    assert profs[:4] == [{0: 7, 2: 1, 7: 1}, {0: 7, 3: 1, 6: 1},
                         {0: 2, 1: 6, 3: 1}, {0: 1, 1: 7, 2: 1}]


def test_profiles_out_of_domain():
    with pytest.raises(families.OutOfDomain):
        families.family_profiles("P1", 9, 4)  # parity belongs to P2
    with pytest.raises(families.OutOfDomain):
        families.family_profiles("P4", 6, 5)  # P4 needs n >= 7


def test_profile_invariants_across_catalog():
    for n in range(9, 15):
        for lam in range(families.lambda_floor(n), 2 * n + 1):
            family = families.family_for(n, lam)
            profs = families.family_profiles(family, n, lam)
            totals = {}
            for t in profs:
                assert sum(t.values()) == n
                assert sum(a * v for a, v in t.items()) % n == 0
                for a, v in t.items():
                    totals[a] = totals.get(a, 0) + v
            assert max(totals.values()) == lam
            assert all(v <= lam for v in totals.values())


def test_construct_n9_lam3():
    mf = families.construct(9, 3)
    assert len(mf.factors) == 51
    assert validate_factorization(mf).valid
    assert not is_simple(mf)[0]
    assert families.plan(9, 3).certificate().proven


def test_construct_n5_lam3():
    mf = families.construct(5, 3)
    assert len(mf.factors) == 27
    assert validate_factorization(mf).valid
    assert families.plan(5, 3).certificate().proven


# sha256 over (n, lambda, profiles, starter permutations, certificate
# status and trace) for every lambda of the strips n = 15..22.
CLAIM_N15_22_SHA256 = "d6504dc09e206a5a832bf3a25d5771276f4968853beedcd2473d91e1f84882c4"


def test_claim_check_past_n14():
    # Every lambda of the strip at n = 15..22 is served, and its
    # construction is valid with a proven certificate.  No golden file
    # reaches past n = 14, so the searched certificates are pinned here.
    digest = hashlib.sha256()
    for n in range(15, 23):
        for lam in range(families.lambda_floor(n), 2 * n + 1):
            p = families.plan(n, lam)
            assert validate_factorization(assemble(p.starter_set)).valid, (n, lam)
            cert = p.certificate()
            assert cert.proven, (n, lam)
            profiles = tuple(tuple(sorted(t.items()))
                             for t in families.family_profiles(p.family, n, lam))
            digest.update(repr((n, lam, profiles, p.starter_set.perms,
                                cert.status, cert.trace)).encode())
    assert digest.hexdigest() == CLAIM_N15_22_SHA256


def test_claim_realized_and_certified_n9_to_50():
    # Every served lambda of every strip n = 9..50 plans: each starter has
    # exactly its profile, and the certificate is proven.
    for n in range(9, 51):
        for lam in range(families.lambda_floor(n), 2 * n + 1):
            p = families.plan(n, lam)
            assert [cyclic.profile(pi, n) for pi in p.starter_set.perms] == \
                families.family_profiles(p.family, n, lam), (n, lam)
            assert p.certificate().proven, (n, lam)


def test_construct_rejects_out_of_range():
    with pytest.raises(families.NoFamily):
        families.construct(9, 25)


def test_plan_is_deterministic():
    p1 = families.plan(12, 17)
    p2 = families.plan(12, 17)
    assert p1 == p2


def test_upper_bound_simple():
    assert families.upper_bound(3, simple=True) == 3
    assert families.upper_bound(4, simple=True) == 60
    assert families.upper_bound(2, simple=True) == 1


def test_upper_bound_non_simple():
    assert families.upper_bound(2, simple=False) == 6 ** 6 * comb(19, 6)
    n = 3
    base = n * (2 * n - 1)
    expected = 1
    for _ in range(base):
        expected *= base
    expected *= comb(2 * n ** 3 + n ** 2 - n + 1, 2 * n ** 2 - n)
    assert families.upper_bound(3, simple=False) == expected


def test_coverage_table_s18():
    table = families.coverage_table(18)
    assert [e.lam for e in table] == list(range(2, 18))
    assert table[0].n == 5 and table[0].family == "P2"
    assert table[-1].lam == 17 and table[-1].n == 9
    for e in table:
        assert e.lam <= 2 * e.n - 1


def test_coverage_table_s36():
    table = families.coverage_table(36)
    assert table[-1].lam == 35
    # smallest admissible base is chosen
    for e in table[1:]:
        n = e.n
        assert n == 9 or not (families.lambda_floor(n - 1) <= e.lam <= 2 * (n - 1) - 1)


def test_coverage_table_matches_scan():
    # The table's definition, scanned directly: the smallest base n in
    # 9..floor(s/2) whose strip holds lambda, and (5, P2) for lambda = 2.
    for s in range(18, 201):
        expected = [(2, 5, "P2")]
        for lam in range(3, 2 * (s // 2)):
            base = next(n for n in range(9, s // 2 + 1)
                        if families.lambda_floor(n) <= lam <= 2 * n - 1)
            expected.append((lam, base, families.family_for(base, lam)))
        assert [(e.lam, e.n, e.family) for e in families.coverage_table(s)] == expected


def test_coverage_table_rejects_small_s():
    with pytest.raises(families.STooSmall):
        families.coverage_table(17)


# The (family, n) grid whose profiles a live search once supplied for
# n <= 14; the closed forms now supply them, pinned by the golden file.
# P3 at n = 11 and P6 at n = 9, 10 had closed forms all along.
SEARCHED_NS = {
    "P2": range(5, 15),
    "P3": [9, 10, 12, 13, 14],
    "P5": range(9, 15),
    "P6": range(11, 15),
    "P7": range(9, 15),
    "P8": range(9, 15),
}


def test_searched_profiles_match_golden():
    golden = json.loads(resources.files("onefac").joinpath(
        "data/family_profiles_golden.json").read_text())["entries"]
    mismatched = []
    for e in golden:
        got = families.family_profiles(e["family"], e["n"], e["lambda"])
        if [docio.profile_to_pairs(t) for t in got] != e["profiles"]:
            mismatched.append((e["family"], e["n"], e["lambda"]))
    pinned = {(e["family"], e["n"], e["lambda"]) for e in golden}
    assert pinned >= {(f, n, lam) for f, ns in SEARCHED_NS.items() for n in ns
                      for lam in range(2, 2 * n + 1)
                      if families.family_domain(f, n, lam)}
    assert mismatched == []


# sha256 over the profile tables the leaf-condition sweep checks.
SLOT_FAMILY_PROFILES_SHA256 = "15f375a950534a2c382c0f8c27bfb211d8f72e1c5a9445272183dfae71652d11"


def _leaf_condition_sweep(ns, family_ids):
    """Check every served (family, n, lambda) through family_profiles.

    The leaf conditions: mass n, displacement sum 0 mod n and a singleton
    (with Hall's theorem, a trivial-stabilizer realization), distinct
    profiles, T(a) <= lambda, a zero orbit for odd n, the greedy
    ordering, and an empty lambda_0 interval for every selection.
    Returns the number of cases and the sha256 of their profile tables,
    which catches a rule changed into another that passes them all.
    """
    checked = 0
    digest = hashlib.sha256()
    for n in ns:
        for family in family_ids:
            for lam in range(2, 2 * n + 1):
                if not families.family_domain(family, n, lam):
                    continue
                where = (family, n, lam)
                profiles = families.family_profiles(family, n, lam)
                for t in profiles:
                    assert all(0 <= a < n and v > 0 for a, v in t.items()), where
                    assert sum(t.values()) == n, where
                    assert sum(a * v for a, v in t.items()) % n == 0, where
                    assert 1 in t.values(), where
                assert len({tuple(sorted(t.items())) for t in profiles}) \
                    == len(profiles), where
                totals = Counter()
                for t in profiles:
                    totals.update(t)
                assert max(totals.values()) <= lam, where
                assert n % 2 == 0 or len(totals) < n, where
                assert starters._greedy_order_profiles(profiles) is not None, where
                assert all(lo > hi for _, lo, hi, _, _
                           in starters._selections(n, lam, profiles)), where
                digest.update(repr((where, [sorted(t.items()) for t in profiles]))
                              .encode())
                checked += 1
    return checked, digest.hexdigest()


def test_closed_form_profiles_meet_every_leaf_condition():
    # P2, P3 and P5-P8 at every served lambda.
    assert _leaf_condition_sweep(
        [*range(9, 121), 199, 200, 299, 300],
        ("P2", "P3", "P5", "P6", "P7", "P8")) == (10885, SLOT_FAMILY_PROFILES_SHA256)


def test_named_slots_spell_the_paper_starters():
    # The heavy-zero and companion starters are slots: w = 1 with
    # s = -alpha, and w = 0 with g idle and s = r + 2.
    for n in range(5, 40):
        for alpha in range(1, n):
            assert starters.find_profiles(n, [families._heavy_zero(n, alpha)]) == (
                Counter({0: n - 2, alpha: 1}) + Counter({n - alpha: 1}),)
        for r in range(n - 2):
            assert starters.find_profiles(n, [families._companion(n, r)]) == (
                Counter({0: r + 1, 1: n - r - 2}) + Counter({r + 2: 1}),)


def test_small_slots_are_in_domain_and_not_what_the_rules_give():
    # Each table entry is a served case where the rules of _slots give
    # other profiles, so no entry is dead.
    assert len(families._SMALL_SLOTS) == 17
    for (family, n, lam), slots in families._SMALL_SLOTS.items():
        assert families.family_domain(family, n, lam), (family, n, lam)
        assert family != "P1" or lam == n - 2
        assert starters.find_profiles(n, slots) != starters.find_profiles(
            n, families._slots(family, n, lam)), (family, n, lam)


# sha256 over the P1 and P4 profile tables, n = 5..300.
P1_P4_PROFILES_SHA256 = "4b99df5a2e7156fb6bf4f0dcce98ff067afcb2de45daac3747b06c9e6f30d96a"


def test_p1_p4_profiles_meet_every_leaf_condition():
    # The families outside the sweep above, at every served lambda.
    assert _leaf_condition_sweep(range(5, 301), ("P1", "P4")) \
        == (15634, P1_P4_PROFILES_SHA256)
