"""Runnable acceptance suite: criteria A1-A8.

Each criterion is a function returning a human-readable detail string and
raising AssertionError on any violation; the runner adds wall-clock
budgets.  The CLI `selftest` command and the pytest acceptance module both
call `run`, so there is a single source of truth for what "done" means.
Scale "quick" covers A1-A5, "full" adds A6-A8.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from functools import cache
from importlib import resources
from itertools import product

from . import cyclic, docio, gf, verify
from .core import MultiFactorization, is_simple, validate_factorization
from .families import (FAMILY_IDS, construct, coverage_table, family_domain,
                       family_for, family_profiles, lambda_floor, plan)
from .starters import assemble, orbit_multiplicity_check

A1_NS = (5, 6, 9, 10, 11, 12)
A3_CASES = ((5, 3), (5, 2), (6, 4), (9, 8), (9, 10))
A4_PRIME_POWERS = ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
                   (23, 1), (5, 2), (3, 3), (7, 2), (3, 4))
A4_EXHAUSTIVE = (5, 7, 9, 11, 13, 17, 19, 23)
GOLDEN_NS = range(5, 15)
SEED = 20260808

def _domain_lambdas(n: int) -> list[int]:
    return [lam for lam in range(2, 2 * n + 1)
            if any(family_domain(f, n, lam) for f in FAMILY_IDS)]


@cache
def _a1_outputs() -> dict[tuple[int, int], MultiFactorization]:
    return {(n, lam): construct(n, lam)
            for n in A1_NS for lam in _domain_lambdas(n)}


def a1() -> str:
    """Validity and factor counts of every catalog construction."""
    outputs = _a1_outputs()
    for (n, lam), mf in outputs.items():
        report = validate_factorization(mf)
        assert report.valid, f"({n},{lam}): invalid ({report.multiplicity_errors[:3]}...)"
        expected = lam * (2 * n - 1)
        assert report.factor_count == expected, \
            f"({n},{lam}): {report.factor_count} factors, expected {expected}"
    return f"{len(outputs)} constructions valid with exact factor counts"


def a2() -> str:
    """None of the catalog constructions is simple."""
    outputs = _a1_outputs()
    for (n, lam), mf in outputs.items():
        simple, repeated = is_simple(mf)
        assert not simple and repeated, f"({n},{lam}) unexpectedly simple"
    return f"{len(outputs)} constructions all non-simple"


def a3() -> str:
    """Certificate soundness at desk scale: proven agrees with exhaustion."""
    budget = verify.SearchBudget()
    lines = []
    for n, lam in A3_CASES:
        p = plan(n, lam)
        cert = p.certificate()
        assert cert.proven, f"({n},{lam}): certificate {cert.status}"
        res = verify.find_subfactorization(assemble(p.starter_set), budget=budget)
        assert res.outcome == verify.PROVEN_NONE, f"({n},{lam}): search {res.outcome}"
        lines.append(f"({n},{lam}) proven+exhausted[{res.nodes}n]")
    return "; ".join(lines)


def a4() -> str:
    """Finite-field pipeline at every listed prime power."""
    budget = verify.SearchBudget()
    lines = []
    for p, m in A4_PRIME_POWERS:
        q = p ** m
        ctx = gf.field_ctx(p, m)
        mf = gf.agl_orbit_factorization(ctx)
        report = validate_factorization(mf)
        assert report.valid, f"p^m={q}: invalid"
        assert is_simple(mf)[0], f"p^m={q}: not simple"
        expected = (q - 1) * q // 2
        assert report.factor_count == expected, f"p^m={q}: {report.factor_count} factors"
        if q == 3:
            assert [f for f, _ in mf.runs] == sorted(cyclic.lucas_factorization(4)), \
                "p^m=3 orbit is not the three matchings of K_4"
        note = ""
        if q in A4_EXHAUSTIVE:
            res = verify.find_subfactorization(mf, budget=budget)
            assert res.outcome == verify.PROVEN_NONE, f"p^m={q}: {res.outcome}"
            note = f" none[{res.nodes}n]"
        lines.append(f"{q}{note}")
    return "p^m: " + ", ".join(lines)


def a5() -> str:
    """Negative controls: decomposable inputs always produce witnesses."""
    rng = random.Random(SEED)
    checked = 0
    for lam in (2, 3):
        for two_n in (4, 6, 8, 10):
            factors = cyclic.lucas_factorization(two_n) * lam
            rng.shuffle(factors)
            mf = MultiFactorization.make(two_n // 2, lam, factors)
            res = verify.find_subfactorization(mf)
            assert res.outcome == verify.FOUND and res.witness.lambda0 == 1, \
                f"{lam}xGK{two_n}: {res.outcome}"
            assert verify.decomposability_witness_check(mf, res.witness)
            checked += 1
    # Every valid 1-factorization of lam*K4 is lam copies of each matching.
    matchings = cyclic.lucas_factorization(4)
    for lam in (2, 3, 4):
        for mult in product(range(3 * lam + 1), repeat=3):
            if sum(mult) != 3 * lam:
                continue
            factors = [f for f, k in zip(matchings, mult) for _ in range(k)]
            mf = MultiFactorization.make(2, lam, factors)
            valid = validate_factorization(mf).valid
            assert valid == (mult == (lam, lam, lam)), f"K4 validity at {mult}"
            if valid:
                res = verify.find_subfactorization(mf)
                assert res.outcome == verify.FOUND, f"lam={lam} K4: {res.outcome}"
                assert verify.decomposability_witness_check(mf, res.witness)
                checked += 1
    return f"{checked} decomposable instances all witnessed at lambda0=1"


def a6() -> str:
    """Orbit multiplicity law on 1000 random starters per n in 5..12."""
    rng = random.Random(SEED)
    total = 0
    for n in range(5, 13):
        done = 0
        while done < 1000:
            pi = list(range(n))
            rng.shuffle(pi)
            if cyclic.h_stabilizer_order(pi, n) != 1:
                continue
            orbit_multiplicity_check(tuple(pi), n)  # raises on violation
            done += 1
            total += 1
    return f"{total} random starters satisfy the orbit multiplicity law"


def a7() -> str:
    """The closed-form profile tables match the golden file."""
    doc = profile_golden_document()
    want = resources.files("onefac").joinpath(
        "data/family_profiles_golden.json").read_text()
    assert docio.serialize(doc) == want, \
        "family profile tables diverge from the golden file"
    return f"{len(doc['entries'])} golden profile tables match byte-exactly"


def a8() -> str:
    """Parameter bookkeeping: domain partition, certificates, coverage."""
    constructed = 0
    for n in range(9, 15):
        for lam in range(lambda_floor(n), 2 * n + 1):
            claims = [f for f in FAMILY_IDS if family_domain(f, n, lam)]
            assert len(claims) == 1, f"({n},{lam}) claimed by {claims}"
            p = plan(n, lam)
            assert validate_factorization(assemble(p.starter_set)).valid
            cert = p.certificate()
            assert cert.proven, f"({n},{lam}): certificate {cert.status}"
            constructed += 1
    table = coverage_table(18)
    assert [e.lam for e in table] == list(range(2, 18)), "coverage range wrong"
    for e in table:
        assert e.lam <= 2 * e.n - 1, f"coverage entry {e} breaks lambda <= 2n-1"
        if e.lam > 2:
            assert 9 <= e.n <= 9, f"smallest base expected 9 for s=18, got {e}"
    return f"{constructed} certified constructions; coverage(18) covers 2..17"


def profile_golden_document() -> dict:
    """Current profile tables of every catalog case with n = 5..14.

    P1's whole closed form and the slot lists alike, so the golden file
    pins the slot rules and the small-case table as well as the text.
    """
    entries = []
    for n in GOLDEN_NS:
        for lam in _domain_lambdas(n):
            family = family_for(n, lam)
            profs = family_profiles(family, n, lam)
            entries.append({"family": family, "n": n, "lambda": lam,
                            "profiles": [docio.profile_to_pairs(t) for t in profs]})
    # Profile tables keep their own format 1, apart from factor documents.
    return {"format": 1, "entries": entries}


CRITERIA = {"A1": a1, "A2": a2, "A3": a3, "A4": a4, "A5": a5,
            "A6": a6, "A7": a7, "A8": a8}
BUDGETS = {"A1": 10.0, "A2": 1.0, "A3": 900.0, "A4": 2400.0, "A5": 30.0,
           "A6": 30.0, "A7": 10.0, "A8": 60.0}
QUICK = ("A1", "A2", "A3", "A4", "A5")
FULL = QUICK + ("A6", "A7", "A8")


class CriterionResult(namedtuple("CriterionResult", "name passed elapsed budget detail")):
    """One criterion's name, passed (bool), elapsed and budget seconds, and detail."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name} {status} ({self.elapsed:.2f}s/{self.budget:.0f}s) {self.detail}"


def run(names=FULL) -> list[CriterionResult]:
    results = []
    for name in names:
        start = time.monotonic()
        try:
            detail = CRITERIA[name]()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        except Exception as exc:  # a broken build must fail, not crash
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        elapsed = time.monotonic() - start
        budget = BUDGETS[name]
        if passed and elapsed > budget:
            passed = False
            detail = f"over budget ({elapsed:.1f}s > {budget:.0f}s): {detail}"
        results.append(CriterionResult(name, passed, elapsed, budget, detail))
    return results
