import hashlib
import inspect
import itertools
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

from onefac import cyclic, families, gf, starters, verify
from onefac.core import MultiFactorization, validate_factorization
from onefac.starters import StarterSet

from edgelists import edges, flat


def gk4_doubled():
    return MultiFactorization.make(2, 2, cyclic.lucas_factorization(4) * 2)


def brute_witness(mf, lam0):
    """Independent oracle: enumerate every index subset of witness size."""
    size = lam0 * (2 * mf.n - 1)
    nv = 2 * mf.n
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    for combo in itertools.combinations(range(len(mf.factors)), size):
        counts = Counter()
        for i in combo:
            counts.update(mf.factors[i])
        if all(counts.get(p, 0) == lam0 for p in pairs):
            return combo
    return None


def test_doubled_k4_has_unit_witness():
    mf = gk4_doubled()
    res = verify.find_subfactorization(mf)
    assert res.outcome == verify.FOUND
    assert res.witness.lambda0 == 1
    assert res.witness.indices == (0, 2, 4)  # one copy of each matching
    assert verify.decomposability_witness_check(mf, res.witness)


def test_witness_check_rejects_broken_witnesses():
    mf = gk4_doubled()
    good = verify.find_subfactorization(mf).witness
    assert not verify.decomposability_witness_check(
        mf, verify.Witness(1, good.indices[:-1]))
    assert not verify.decomposability_witness_check(
        mf, verify.Witness(2, tuple(range(6))))  # lambda0 = lambda is improper
    assert not verify.decomposability_witness_check(
        mf, verify.Witness(1, (0, 1, 2)))
    # Index -1 would wrap to the last copy, and len(mf.factors) is one past it.
    assert not verify.decomposability_witness_check(mf, verify.Witness(1, (-1, 0, 2)))
    assert not verify.decomposability_witness_check(
        mf, verify.Witness(1, (0, 2, len(mf.factors))))
    # A position is an index: 2.5 would fall inside the second run's copies.
    assert verify.decomposability_witness_check(mf, verify.Witness(1, (0, 2.5, 4))) is False
    # Counted twice, copy 0, 3 and 6 would cover every pair of 3K4 twice.
    triple = MultiFactorization.make(2, 3, cyclic.lucas_factorization(4) * 3)
    assert verify.decomposability_witness_check(triple, verify.Witness(1, (0, 3, 6)))
    assert not verify.decomposability_witness_check(
        triple, verify.Witness(2, (0, 0, 3, 3, 6, 6)))
    # Every pair of K4 once, but two of the chosen copies are not matchings.
    paths = MultiFactorization(2, 2, ((flat([(0, 1), (0, 2)]), 1), (flat([(0, 3), (1, 2)]), 1),
                                      (flat([(1, 3), (2, 3)]), 1)))
    assert not verify.decomposability_witness_check(paths, verify.Witness(1, (0, 1, 2)))


def edge_counting_witness_check(mf, w):
    """Reference: the witness check that counted the chosen copies' edges
    itself instead of validating them."""
    if not 0 < w.lambda0 < mf.lam:
        return False
    if len(w.indices) != w.lambda0 * (2 * mf.n - 1):
        return False
    if len(set(w.indices)) != len(w.indices):
        return False
    counts = {}
    for i in w.indices:
        if not 0 <= i < len(mf.factors):
            return False
        for e in mf.factors[i]:
            counts[e] = counts.get(e, 0) + 1
    nv = 2 * mf.n
    return all(counts.get((u, v), 0) == w.lambda0
               for u in range(nv) for v in range(u + 1, nv))


def _witness_variants(w):
    """w, and w with one index dropped or moved to the next copy, each way."""
    yield w
    for j, i in enumerate(w.indices):
        yield verify.Witness(w.lambda0, w.indices[:j] + w.indices[j + 1:])
        yield verify.Witness(w.lambda0, w.indices[:j] + (i + 1,) + w.indices[j + 1:])


@pytest.fixture(autouse=True)
def witness_check_agrees_with_edge_counting(monkeypatch):
    """Differential test of every witness a test here obtains, from the
    search or from the certificate: the witness check and the
    edge-counting reference agree on it and on each of its variants."""
    search, from_certificate = verify.find_subfactorization, verify.certificate_witness

    def agree(mf, w):
        for v in _witness_variants(w):
            assert (verify.decomposability_witness_check(mf, v)
                    == edge_counting_witness_check(mf, v)), v

    def find(mf, *args, **kwargs):
        res = search(mf, *args, **kwargs)
        if res.witness is not None:
            agree(mf, res.witness)
        return res

    def certificate(s):
        w = from_certificate(s)
        if w is not None:
            agree(starters.assemble(s), w)
        return w

    monkeypatch.setattr(verify, "find_subfactorization", find)
    monkeypatch.setattr(verify, "certificate_witness", certificate)


def test_complement_of_witness_is_witness():
    mf = gk4_doubled()
    w = verify.find_subfactorization(mf).witness
    rest = tuple(sorted(set(range(len(mf.factors))) - set(w.indices)))
    assert verify.decomposability_witness_check(
        mf, verify.Witness(mf.lam - w.lambda0, rest))


def test_field_orbit_is_indecomposable():
    mf = gf.agl_orbit_factorization(gf.field_ctx(5, 1))
    res = verify.find_subfactorization(mf)
    assert res.outcome == verify.PROVEN_NONE
    assert brute_witness(mf, 1) is None


def test_catalog_small_instances_agree_with_certificate():
    for n, lam in [(5, 2), (5, 3), (6, 2), (6, 3), (6, 4)]:
        p = families.plan(n, lam)
        mf = families.construct(n, lam)
        assert p.certificate().proven
        res = verify.find_subfactorization(mf)
        assert res.outcome == verify.PROVEN_NONE, (n, lam, res.outcome)
        assert verify.certificate_witness(p.starter_set) is None


def test_p4_shape_at_n5_certificate_confirmed_by_search():
    # The exact interval system is infeasible at n = 5 even though the
    # generic pair inequality only bites above it; exhaustive search agrees.
    s = StarterSet.from_profiles(
        5, 4, [{0: 3, 3: 1, 2: 1}, {0: 1, 1: 3, 2: 1}])
    assert starters.certificate_indecomposable(s).proven
    mf = starters.assemble(s)
    res = verify.find_subfactorization(mf)
    assert res.outcome == verify.PROVEN_NONE
    assert verify.certificate_witness(s) is None


def test_doubled_simple_factorization_witnesses_only_at_two():
    t3 = gf.agl_orbit_factorization(gf.field_ctx(5, 1))
    doubled = MultiFactorization.make(3, 4, list(t3.factors) * 2)
    res1 = verify.find_subfactorization(doubled, lambda0=1)
    assert res1.outcome == verify.PROVEN_NONE  # the halves are indecomposable
    res = verify.find_subfactorization(doubled)
    assert res.outcome == verify.FOUND and res.witness.lambda0 == 2
    assert res.witness.indices == tuple(range(0, 20, 2))  # one copy of each
    assert verify.decomposability_witness_check(doubled, res.witness)


def test_exhaustive_agrees_with_certificate_beyond_small_range():
    for n, lam in [(9, 3), (10, 4)]:
        assert families.plan(n, lam).certificate().proven
        res = verify.find_subfactorization(families.construct(n, lam))
        assert res.outcome == verify.PROVEN_NONE


def test_search_matches_brute_oracle_on_decomposable_union():
    rng = random.Random(3)
    base = cyclic.lucas_factorization(6)
    perm = list(range(6))
    rng.shuffle(perm)
    mf = MultiFactorization.make(3, 2, base + relabeled(base, perm))
    res = verify.find_subfactorization(mf, lambda0=1)
    oracle = brute_witness(mf, 1)
    assert res.outcome == verify.FOUND and oracle is not None
    assert res.witness.indices == oracle  # deterministic first witness


def test_shuffled_lucas_copies_always_decompose():
    rng = random.Random(5)
    for two_n in (4, 6, 8, 10):
        for lam in (2, 3):
            factors = cyclic.lucas_factorization(two_n) * lam
            rng.shuffle(factors)
            mf = MultiFactorization.make(two_n // 2, lam, factors)
            res = verify.find_subfactorization(mf)
            assert res.outcome == verify.FOUND and res.witness.lambda0 == 1


def test_lambda0_parameter_restricts_search():
    mf = gk4_doubled()
    res = verify.find_subfactorization(mf, lambda0=1)
    assert res.outcome == verify.FOUND
    with pytest.raises(verify.InvalidInput):
        verify.find_subfactorization(mf, lambda0=2)  # not < lambda


def test_an_out_of_range_lambda0_is_refused_before_validating(monkeypatch):
    def validate(mf):
        raise AssertionError("validated before lambda0 was checked")

    monkeypatch.setattr(verify, "validate_factorization", validate)
    invalid = MultiFactorization(2, 2, ())  # no factors at all
    for mf in (gk4_doubled(), invalid):
        for lambda0 in (0, 2, -1):
            with pytest.raises(verify.InvalidInput, match=f"lambda0 = {lambda0} out of range"):
                verify.find_subfactorization(mf, lambda0=lambda0)


def test_budget_exhaustion_is_reported_distinctly():
    mf = families.construct(6, 4)
    res = verify.find_subfactorization(
        mf, budget=verify.SearchBudget(max_nodes=5))
    assert res.outcome == verify.EXHAUSTED
    # The stop comes at lambda_0 = 1; lambda_0 = 2 is not searched at all.
    assert res.lambda0_exhausted == [1, 2] and res.nodes == 6


def test_search_depth_does_not_grow_the_call_stack():
    # The witness takes 59 picks; a search that recurses per pick needs
    # about 130 frames here.
    mf = MultiFactorization.make(30, 2, cyclic.lucas_factorization(60) * 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        res = verify.find_subfactorization(mf)
    finally:
        sys.setrecursionlimit(limit)
    assert res.outcome == verify.FOUND
    assert res.witness.lambda0 == 1 and res.nodes == 59


def test_invalid_inputs_rejected():
    factors = (cyclic.lucas_factorization(4) * 2)[:-1]
    broken = MultiFactorization.make(2, 2, factors)
    with pytest.raises(verify.InvalidInput):
        verify.find_subfactorization(broken)
    single = MultiFactorization.make(2, 1, cyclic.lucas_factorization(4))
    with pytest.raises(verify.InvalidInput):
        verify.find_subfactorization(single)


def test_search_refuses_counters_past_the_size_limit(monkeypatch):
    mf = gk4_doubled()  # 3 runs x 6 pairs x 3-bit fields: 6 bytes
    monkeypatch.setattr(verify, "MAX_COUNTER_BYTES", 6)
    assert verify.find_subfactorization(mf).outcome == verify.FOUND
    monkeypatch.setattr(verify, "MAX_COUNTER_BYTES", 5)

    def not_reached(mf):
        raise AssertionError("validated a document the search refuses")

    # The size is checked first, in O(1): nothing is validated or allocated.
    monkeypatch.setattr(verify, "validate_factorization", not_reached)
    with pytest.raises(verify.InvalidInput, match="need 6 bytes"):
        verify.find_subfactorization(mf)


def test_search_reads_the_clock_at_every_node(monkeypatch):
    # Unbounded, the search finds a witness in 599 nodes.  A fake clock
    # reads 0, 1, 2, ...: 0 at the start, 1..599 after the 599 packed
    # vectors, then 600, 601, ... at the nodes.  Against a deadline of
    # 609 s the tenth node is the first to find the clock at the deadline,
    # and the stop reads the clock once more for the elapsed time.
    mf = MultiFactorization.make(300, 2, cyclic.lucas_factorization(600) * 2)
    ticks = itertools.count()
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    res = verify.find_subfactorization(mf, budget=verify.SearchBudget(max_seconds=609))
    assert res.outcome == verify.EXHAUSTED and res.lambda0_exhausted == [1]
    assert res.nodes == 10 and res.witness is None and res.elapsed == 610
    assert next(ticks) == 611  # no other read


def test_search_set_up_reads_the_clock_after_every_vector(monkeypatch):
    # Each of the 599 packed vectors is followed by one clock read; a fake
    # clock that advances one second a read stops the set-up after exactly
    # 100 vectors against a 100 s budget, before any target is searched.
    mf = MultiFactorization.make(300, 4, cyclic.lucas_factorization(600) * 4)
    ticks = itertools.count()
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    built = []
    packed = verify._MulticoverSearch._packed
    monkeypatch.setattr(verify._MulticoverSearch, "_packed",
                        lambda self, ids: built.append(1) or packed(self, ids))
    res = verify.find_subfactorization(mf, budget=verify.SearchBudget(max_seconds=100))
    assert res.outcome == verify.EXHAUSTED and res.lambda0_exhausted == [1, 2]
    assert res.nodes == 0 and res.witness is None
    assert len(built) == 100


def test_search_budget_is_charged_for_validating(monkeypatch):
    # The clock starts before the document is validated: a validation that
    # takes 2 s uses up a 1 s budget, so the set-up stops after its first
    # vector and no target is searched.
    mf = MultiFactorization.make(2, 4, cyclic.lucas_factorization(4) * 4)
    now = [0.0]
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: now[0]))

    def slow_validate(mf):
        now[0] += 2
        return validate_factorization(mf)

    monkeypatch.setattr(verify, "validate_factorization", slow_validate)
    res = verify.find_subfactorization(mf, budget=verify.SearchBudget(max_seconds=1))
    assert res.outcome == verify.EXHAUSTED and res.lambda0_exhausted == [1, 2]
    assert res.nodes == 0 and res.witness is None and res.elapsed == 2


def test_every_valid_lambda_k4_factorization_decomposes():
    matchings = cyclic.lucas_factorization(4)
    for lam in (2, 3, 4):
        mf = MultiFactorization.make(2, lam, matchings * lam)
        assert validate_factorization(mf).valid
        res = verify.find_subfactorization(mf)
        assert res.outcome == verify.FOUND and res.witness.lambda0 == 1


def test_certificate_witness_none_on_larger_instance():
    assert verify.certificate_witness(families.plan(9, 3).starter_set) is None


def test_certificate_witness_on_decomposable_assembly():
    # Empty starter set assembles the trivial decomposable factorization.
    s = StarterSet(4, 2, ())
    mf = starters.assemble(s)
    witness = verify.certificate_witness(s)
    assert witness == verify.Witness(1, (0, 2, 4, 6, 8, 10, 12))
    assert verify.decomposability_witness_check(mf, witness)
    exhaustive = verify.find_subfactorization(mf)
    assert exhaustive.outcome == verify.FOUND


def test_certificate_witness_rejects_failed_ordering():
    s = StarterSet.from_profiles(6, 4, [{0: 2, 1: 2, 5: 2}, {1: 2, 3: 2, 5: 2}])
    with pytest.raises(starters.OrderingFailed):
        verify.certificate_witness(s)


def test_witness_that_fails_its_recheck_raises(monkeypatch):
    # An explicit raise, not an assert statement, so it holds under python -O too.
    monkeypatch.setattr(verify, "decomposability_witness_check", lambda mf, w: False)
    with pytest.raises(AssertionError, match="fails its re-check"):
        verify.find_subfactorization(gk4_doubled())
    with pytest.raises(AssertionError, match="fails its re-check"):
        verify.certificate_witness(StarterSet(4, 2, ()))


# The witness positions of the first feasible selection, by (n, lambda).
PINNED_CERTIFICATE_WITNESSES = {
    (6, 4): (0, 4, 8, 12, 16, 20, 24, 28, 32, 37, 40),
    (5, 3): (0, 3, 6, 9, 12, 15, 19, 22, 24),
}


@pytest.mark.parametrize("n,lam,profile", [
    (6, 4, {0: 2, 1: 1, 2: 1, 4: 1, 5: 1}),
    (5, 3, {2: 2, 3: 1, 4: 2}),  # odd n: M_b rides in the joined block
])
def test_certificate_witness_when_certificate_is_unknown(n, lam, profile):
    s = StarterSet.from_profiles(n, lam, [profile])
    assert not starters.certificate_indecomposable(s).proven
    witness = verify.certificate_witness(s)
    assert witness == verify.Witness(1, PINNED_CERTIFICATE_WITNESSES[n, lam])
    assert verify.decomposability_witness_check(starters.assemble(s), witness)


def relabeled(factors, perm):
    """The flat factors under the vertex map perm, each canonical."""
    return [flat(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges(f)))
            for f in factors]


def brute_outcome(mf):
    for lam0 in range(1, mf.lam // 2 + 1):
        if brute_witness(mf, lam0) is not None:
            return verify.FOUND
    return verify.PROVEN_NONE


def agreed_outcome(mf):
    res = verify.find_subfactorization(mf)
    assert res.outcome == brute_outcome(mf)
    if res.outcome == verify.FOUND:
        assert verify.decomposability_witness_check(mf, res.witness)
    return res.outcome


def test_search_matches_brute_oracle_on_random_unions():
    rng = random.Random(11)
    for two_n in (4, 6):
        for lam in (2, 3):
            for _ in range(6):
                factors = []
                for _ in range(lam):
                    perm = list(range(two_n))
                    rng.shuffle(perm)
                    factors += relabeled(cyclic.lucas_factorization(two_n), perm)
                mf = MultiFactorization.make(two_n // 2, lam, factors)
                assert validate_factorization(mf).valid
                assert agreed_outcome(mf) == verify.FOUND


def test_search_matches_brute_oracle_on_every_2k6_factorization():
    # Unions of 1-factorizations always decompose; the six indecomposable
    # 1-factorizations of 2K6 exercise the proven_none side as well.
    pairs = list(itertools.combinations(range(6), 2))
    matchings = sorted({tuple(sorted(m)) for m in itertools.combinations(pairs, 3)
                        if len({v for e in m for v in e}) == 6})
    found = []

    def extend(i, need, chosen):
        if not any(need.values()):
            found.append(list(chosen))
        elif i < len(matchings):
            m = matchings[i]
            for k in range(min(need[e] for e in m), -1, -1):
                need.subtract({e: k for e in m})
                extend(i + 1, need, chosen + [m] * k)
                need.update({e: k for e in m})

    extend(0, Counter({p: 2 for p in pairs}), [])
    outcomes = Counter()
    for factors in found:
        mf = MultiFactorization.make(3, 2, factors)
        assert validate_factorization(mf).valid
        outcomes[agreed_outcome(mf)] += 1
    assert outcomes == {verify.FOUND: 21, verify.PROVEN_NONE: 6}


def test_cost_does_not_depend_on_labels():
    mf = gf.agl_orbit_factorization(gf.field_ctx(11, 1))
    budget = verify.SearchBudget(max_nodes=5_000)
    for seed in range(16):
        perm = list(range(12))
        random.Random(seed).shuffle(perm)
        image = MultiFactorization.make(6, 5, relabeled(map(flat, mf.factors), perm))
        res = verify.find_subfactorization(image, budget=budget)
        assert res.outcome == verify.PROVEN_NONE, (seed, res.nodes)


def test_catalog_9_10_settles_within_budget():
    res = verify.find_subfactorization(
        families.construct(9, 10), budget=verify.SearchBudget(max_nodes=100_000))
    assert res.outcome == verify.PROVEN_NONE


def _gf(p, m):
    return gf.agl_orbit_factorization(gf.field_ctx(p, m))


def _relabeled_mf(mf, seed):
    perm = list(range(2 * mf.n))
    random.Random(seed).shuffle(perm)
    return MultiFactorization.make(mf.n, mf.lam, relabeled(map(flat, mf.factors), perm))


def _pinned_inputs():
    """Name -> (factorization, node budget or None) for the pinned search."""
    cases = {}
    for p, m in ((3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1)):
        cases[f"gf{p ** m}"] = (_gf(p, m), None)
        cases[f"gf{p ** m}~"] = (_relabeled_mf(_gf(p, m), p ** m), None)
    for lam in (8, 9, 10):
        cases[f"catalog-9-{lam}"] = (families.construct(9, lam), None)
    union = families.construct(8, 4).factors + families.construct(8, 5).factors
    cases["catalog-8-4+8-5"] = (MultiFactorization.make(8, 9, union), None)
    cases["round-robin-60x2"] = (
        MultiFactorization.make(30, 2, cyclic.lucas_factorization(60) * 2), None)
    cases["catalog-6-4@5"] = (families.construct(6, 4), 5)
    cases["gf25@20000"] = (_gf(5, 2), 20_000)
    return cases


# outcome, nodes, lambda0_exhausted, sha256 of the witness indices joined by ",".
PINNED_SEARCHES = {
    "gf9": ("proven_none", 61, [], None),
    "gf9~": ("proven_none", 68, [], None),
    "gf11": ("proven_none", 52, [], None),
    "gf11~": ("proven_none", 51, [], None),
    "gf13": ("proven_none", 210, [], None),
    "gf13~": ("proven_none", 221, [], None),
    "gf17": ("proven_none", 1123, [], None),
    "gf17~": ("proven_none", 1117, [], None),
    "gf19": ("proven_none", 1759, [], None),
    "gf19~": ("proven_none", 112852, [], None),
    "gf23": ("proven_none", 8718, [], None),
    "gf23~": ("proven_none", 8217, [], None),
    "catalog-9-8": ("proven_none", 714, [], None),
    "catalog-9-9": ("proven_none", 1094, [], None),
    "catalog-9-10": ("proven_none", 18098, [], None),
    "catalog-8-4+8-5": ("found", 1433, [],
                        "5277ddd3ddc3e6643b4f23a2fc0d2b9698077b95ccd79afb5162731f4c7b68a9"),
    "round-robin-60x2": ("found", 59, [],
                         "6b57692f7aebd3a427ec6ebb57873d8f50c2406178c1fdce91daa45a1e784c85"),
    "catalog-6-4@5": ("exhausted", 6, [1, 2], None),
    "gf25@20000": ("exhausted", 20001, [3, 4, 5, 6], None),
}


def test_search_is_pinned():
    """Outcome, node count, unsettled targets and witness of a fixed input set.

    The branching order decides all four, so any change to the search's
    bookkeeping must leave them byte-identical.
    """
    got = {}
    for name, (mf, max_nodes) in _pinned_inputs().items():
        budget = verify.SearchBudget(max_nodes=max_nodes) if max_nodes else None
        res = verify.find_subfactorization(mf, budget=budget)
        digest = (hashlib.sha256(",".join(map(str, res.witness.indices)).encode()).hexdigest()
                  if res.witness else None)
        got[name] = (res.outcome, res.nodes, res.lambda0_exhausted, digest)
    assert got == PINNED_SEARCHES
