"""The package's record types: repr, equality, defaults and immutability.

These pin what callers and the pinned digests see of each record, so the
way a record is implemented can change without changing any of it.
"""

import pytest

from onefac import acceptance, cli, core, families, gf, starters, verify

from edgelists import flat

K4 = tuple(map(flat, (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))))
P2_PERMS = ((1, 4, 2, 3, 0),)  # the starter plan(5, 2) realizes


def k4_double():
    return core.MultiFactorization.make(2, 2, K4 * 2)


def test_reprs():
    mf = core.MultiFactorization.make(2, 1, K4)
    assert repr(mf) == (
        "MultiFactorization(n=2, lam=1, runs=(((0, 1, 2, 3), 1), "
        "((0, 2, 1, 3), 1), ((0, 3, 1, 2), 1)), model={'tag': 'plain'})")
    assert repr(core.validate_factorization(mf)) == (
        "ValidityReport(valid=True, multiplicity_errors=[], factor_errors=[], "
        "factor_count=3, expected_factor_count=3)")
    assert repr(families.plan(5, 2)) == (
        "FamilyPlan(family='P2', starter_set="
        "StarterSet(n=5, lam=2, perms=((1, 4, 2, 3, 0),)))")
    assert repr(families.coverage_table(18)[0]) == "CoverageEntry(lam=2, n=5, family='P2')"
    assert repr(starters.certificate_indecomposable(starters.StarterSet(5, 2, P2_PERMS))) == (
        "Certificate(status='proven', ordering=((0, 3),), trace=("
        "TraceEntry(x=(0,), status='infeasible', lo=1, hi=0, lo_orbit=None, hi_orbit=0), "
        "TraceEntry(x=(1,), status='infeasible', lo=2, hi=1, lo_orbit=0, hi_orbit=None)))")
    assert repr(verify.Witness(1, (0, 2))) == "Witness(lambda0=1, indices=(0, 2))"
    assert repr(verify.SearchBudget()) == "SearchBudget(max_nodes=100000000, max_seconds=300.0)"
    res = verify.find_subfactorization(k4_double())
    assert repr(res).startswith(
        "SearchResult(outcome='found', witness=Witness(lambda0=1, indices=(0, 2, 4)), "
        "nodes=3, elapsed=")
    assert repr(res).endswith(", lambda0_exhausted=[])")
    assert repr(acceptance.CriterionResult("A1", True, 0.5, 10.0, "ok")) == (
        "CriterionResult(name='A1', passed=True, elapsed=0.5, budget=10.0, detail='ok')")


def test_field_ctx_leaves_its_tables_out_of_repr_and_equality():
    ctx = gf.field_ctx(3, 2)
    assert repr(ctx) == "FieldCtx(p=3, m=2, modulus=(2, 1, 1))"
    bare = gf.FieldCtx(3, 2, (2, 1, 1), (), ())
    assert bare == ctx and hash(bare) == hash(ctx)
    assert gf.FieldCtx(3, 2, (2, 2, 1), ctx.exp, ctx.log) != ctx
    assert ctx.q == 9 and len(ctx.exp) == 8 and ctx.log[0] is None


def test_search_budget_rejects_a_negative_or_nan_bound():
    with pytest.raises(verify.InvalidInput) as info:
        verify.SearchBudget(-1)
    assert str(info.value) == (
        "SearchBudget(max_nodes=-1, max_seconds=300.0) has a negative or NaN bound")
    with pytest.raises(verify.InvalidInput, match="negative or NaN"):
        verify.SearchBudget(max_seconds=float("nan"))
    assert verify.SearchBudget(0, 0.0).max_nodes == 0


def test_the_cli_budget_defaults_are_the_search_budget_defaults():
    args = cli.build_parser().parse_args(["verify", "d.json"])
    assert (args.max_nodes, args.max_seconds) == (100_000_000, 300.0)
    budget = verify.SearchBudget()
    assert (budget.max_nodes, budget.max_seconds) == (args.max_nodes, args.max_seconds)


def test_defaults_are_fresh_per_instance():
    a = core.MultiFactorization(2, 1, ())
    b = core.MultiFactorization(2, 1, ())
    assert a.model == {"tag": "plain"} and a.model is not b.model
    r, s = verify.SearchResult(verify.FOUND), verify.SearchResult(verify.FOUND)
    assert (r.witness, r.nodes, r.elapsed, r.lambda0_exhausted) == (None, 0, 0.0, [])
    assert r.lambda0_exhausted is not s.lambda0_exhausted


def test_equality_and_hashing():
    assert k4_double() == k4_double()
    assert k4_double() != core.MultiFactorization.make(2, 2, K4 * 2, {"tag": "other"})
    with pytest.raises(TypeError):  # its model is a dict
        hash(k4_double())
    s, t = starters.StarterSet(5, 2, P2_PERMS), starters.StarterSet(5, 2, P2_PERMS)
    assert s == t and hash(s) == hash(t) and s.m == 1
    assert families.plan(5, 2) == families.FamilyPlan("P2", s)
    cert = starters.certificate_indecomposable(s)
    assert cert.proven and hash(cert) == hash(starters.certificate_indecomposable(t))
    assert {verify.Witness(1, (0, 2)), verify.Witness(1, (0, 2))} == {verify.Witness(1, (0, 2))}


def _records():
    mf = k4_double()
    s = starters.StarterSet(5, 2, P2_PERMS)
    cert = starters.certificate_indecomposable(s)
    return [(mf, "lam"), (families.FamilyPlan("P2", s), "family"),
            (families.coverage_table(18)[0], "n"), (gf.field_ctx(3, 1), "p"),
            (gf.field_ctx(3, 1), "exp"), (s, "perms"), (cert.trace[0], "lo"),
            (cert, "status"), (verify.Witness(1, (0, 2)), "lambda0"),
            (core.validate_factorization(mf), "valid"), (verify.SearchBudget(), "max_nodes"),
            (verify.SearchResult(verify.FOUND), "nodes"),
            (acceptance.CriterionResult("A1", True, 0.5, 10.0, "ok"), "passed")]


@pytest.mark.parametrize("index", range(len(_records())))
def test_records_refuse_assignment(index):
    record, name = _records()[index]
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)


def test_a_factorization_is_not_a_sequence():
    with pytest.raises(TypeError):
        len(k4_double())
    with pytest.raises(TypeError):
        iter(k4_double())


def test_starter_set_checks_through_the_module_global(monkeypatch):
    seen = []

    def check(s):
        seen.append(s)
        return ["refused"]

    monkeypatch.setattr(starters, "check_starter_conditions", check)
    with pytest.raises(starters.PreconditionFailed, match="refused"):
        starters.StarterSet(5, 2, P2_PERMS)
    assert len(seen) == 1 and seen[0].perms == P2_PERMS


def test_starter_sets_and_field_contexts_are_not_sequences():
    for record in (starters.StarterSet(5, 2, P2_PERMS), gf.field_ctx(3, 2)):
        with pytest.raises(TypeError):
            len(record)
        with pytest.raises(TypeError):
            iter(record)


def test_a_record_never_equals_the_tuple_of_its_key_values():
    ctx = gf.field_ctx(3, 2)
    s = starters.StarterSet(5, 2, P2_PERMS)
    mf = k4_double()
    for record, values in [(ctx, (3, 2, (2, 1, 1))), (s, (5, 2, P2_PERMS)),
                           (mf, (2, 2, mf.runs, {"tag": "plain"}))]:
        assert record != values and values != record
        assert not record == values and not values == record


def test_cached_properties_are_computed_once_and_records_stay_frozen():
    mf = k4_double()
    assert mf.factors is mf.factors and len(mf.factors) == 6
    s = starters.StarterSet(5, 2, P2_PERMS)
    assert s.profiles is s.profiles and s.totals is s.totals and s.orbit_b == s.orbit_b
    for record, name in [(mf, "factors"), (mf, "n"), (s, "profiles"), (s, "totals"),
                         (s, "perms")]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert mf == k4_double() and s == starters.StarterSet(5, 2, P2_PERMS)
