"""Parameter families of indecomposable 1-factorizations and their dispatch.

Eight cyclic-model families partition the parameter strip
ceil((n-2)/3) <= lambda <= 2n for n >= 9 (smaller n keep the low-lambda
families only); a ninth entry is the finite-field construction living in
the `gf` module.  Families with closed-form starter profiles are coded
here; the rest pin closed-form starters and complete them with the
deterministic profile search `starters.find_profiles`, memoized per
(family, n, lambda).  Acceptance criterion A7 pins every profile table
with n <= 14, searched ones included, against a golden file.

Both parity families P1 and P2 start at the same floor ceil((n-2)/3), so
the two parity classes tile the low-lambda strip completely; the
certificate covers the whole range (e.g. (n, lambda) = (10, 3) and
(13, 4) sit at that floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb

from .core import MultiFactorization
from .starters import (Certificate, NoProfilesFound, ProfileBudgetExhausted,
                       StarterSet, assemble, certificate_indecomposable,
                       find_profiles)

FAMILY_IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8")


class OutOfDomain(ValueError):
    """(n, lambda) is outside the requested family's domain."""


class NoFamily(ValueError):
    """No family claims this (n, lambda)."""


class StarterSearchFailed(ValueError):
    """Starter realization or profile discovery failed."""


class SearchBudgetExhausted(StarterSearchFailed):
    """Profile discovery stopped at its node budget without an answer."""


class STooSmall(ValueError):
    """Coverage table needs s >= 18."""


def lambda_floor(n: int) -> int:
    """Smallest admissible lambda for the cyclic families (and >= 2)."""
    return max(2, ceil((n - 2) / 3))


def family_domain(family: str, n: int, lam: int) -> bool:
    """Domain predicate of one family."""
    if n < 5 or lam < 2:
        return False
    low = lambda_floor(n)
    if family == "P1":
        return low <= lam <= n - 2 and (n - lam) % 2 == 0
    if family == "P2":
        return low <= lam <= n - 3 and (n - lam) % 2 == 1
    if family == "P4":
        return n >= 7 and n - 1 <= lam <= n
    if family == "P3":
        return n >= 9 and n + 1 <= lam <= 2 * n - 8
    if family == "P7":
        return n >= 9 and lam == 2 * n - 7
    if family == "P5":
        return n >= 9 and 2 * n - 6 <= lam <= 2 * n - 3
    if family == "P6":
        return n >= 9 and lam == 2 * n - 2
    if family == "P8":
        return n >= 9 and 2 * n - 1 <= lam <= 2 * n
    raise ValueError(f"unknown family {family!r}")


def family_for(n: int, lam: int) -> str:
    """The unique family claiming (n, lambda); NoFamily otherwise."""
    claims = [f for f in FAMILY_IDS if family_domain(f, n, lam)]
    if not claims:
        raise NoFamily(f"no family covers n={n}, lambda={lam}")
    assert len(claims) == 1, f"overlapping families {claims} at ({n}, {lam})"
    return claims[0]


def _profile_a(n: int, alpha: int) -> dict[int, int]:
    """Heavy-zero starter with singletons at alpha and n-alpha."""
    return {0: n - 2, alpha: 1, (n - alpha) % n: 1}


def _profile_b(n: int, r: int) -> dict[int, int]:
    """Companion starter of the lambda = n-1+r pair (r in {0, 1})."""
    return {0: r + 1, 1: n - r - 2, r + 2: 1}


def family_profiles(family: str, n: int, lam: int) -> list[dict[int, int]]:
    """Starter profiles for one family at (n, lambda).

    Text-fixed families return their closed forms; the others return
    closed-form pins followed by the profiles the memoized search finds.
    """
    if not family_domain(family, n, lam):
        raise OutOfDomain(f"{family} does not cover n={n}, lambda={lam}")
    if family == "P1":
        if lam == n - 2:
            return [{0: lam, 1: 1, n - 1: 1}]
        k = (n - lam - 2) // 2
        return [{0: lam, 1: k, n - 1: k, 2: 1, n - 2: 1}]
    if family == "P4":
        r = lam - (n - 1)
        alpha = 3 if r == 0 else 2
        return [_profile_a(n, alpha), _profile_b(n, r)]
    if family == "P3" and n == 11:
        return _p3_n11(lam)
    if family == "P6" and n in (9, 10):
        return _p6_small(n)
    return [dict(t) for t in _discover(family, n, lam)]


def _pins(family: str, n: int, lam: int) -> tuple[list[dict[int, int]], int]:
    """Closed-form pinned starters and slot count of a searched family."""
    if family == "P2":
        return [], 1
    if family in ("P3", "P7"):
        return [_profile_a(n, 3), _profile_b(n, 0)], 4
    if family == "P5":
        r = 2 * n - lam
        return [_profile_a(n, 4 if r == 4 else 2), _profile_b(n, 1)], 4
    if family == "P6":
        return [_profile_a(n, 2), _profile_b(n, 1)], 4
    if family == "P8":
        if lam == 2 * n - 1:
            return [_profile_a(n, 2), _profile_a(n, 3),
                    _profile_b(n, 1), _profile_b(n, 0)], 5
        if n == 9:  # lam = 18: explicit starters except one
            return [_profile_a(9, 4), _profile_a(9, 3), _profile_b(9, 0),
                    {1: 6, 2: 2, 8: 1}], 5
        return [_profile_a(n, 2), _profile_a(n, 3), _profile_b(n, 1)], 5
    raise ValueError(f"{family} has no searched cases")


def _p3_n11(lam: int) -> list[dict[int, int]]:
    """The explicit n = 11 starters of the lambda = 12..14 family."""
    r = lam - 9
    if r in (3, 4):
        return [_profile_a(11, 2), {0: r, 1: 10 - r, r + 1: 1}]
    assert r == 5
    return [_profile_a(11, 3), _profile_b(11, 0), {0: 4, 1: 5, 7: 1, 10: 1}]


def _p6_small(n: int) -> list[dict[int, int]]:
    """The explicit lambda = 2n-2 starters for n = 9, 10."""
    second_alpha = 4 if n == 9 else 3
    c = {1: n - 2, 2: 1, 0: 1}
    d = {1: n - 3, n - 1: 1, 4: 1, 0: 1}
    r = {1: 3, 2: 5, 5: 1} if n == 9 else {1: 3, 2: 6, 5: 1}
    return [_profile_a(n, 2), _profile_a(n, second_alpha), c, d, r]


@lru_cache(maxsize=None)
def _discover(family: str, n: int, lam: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The pins of (family, n, lambda) and the profiles that complete them.

    Returned as sorted item tuples, pins first.
    """
    pins, m = _pins(family, n, lam)
    try:
        solution = find_profiles(n, lam, m, fixed=pins)
    except ProfileBudgetExhausted as exc:
        raise SearchBudgetExhausted(
            f"{family} at n={n}, lambda={lam}: {exc}") from exc
    except NoProfilesFound as exc:
        raise StarterSearchFailed(
            f"{family} at n={n}, lambda={lam}: {exc}") from exc
    return tuple(tuple(sorted(t.items())) for t in solution)


@dataclass(frozen=True)
class FamilyPlan:
    """Resolved construction plan: family, profiles and realized starters."""

    family: str
    n: int
    lam: int
    profiles: tuple
    starter_set: StarterSet

    def certificate(self) -> Certificate:
        return certificate_indecomposable(self.starter_set)


def plan(n: int, lam: int) -> FamilyPlan:
    """Pick the family for (n, lambda) and realize its starters."""
    family = family_for(n, lam)
    profiles = family_profiles(family, n, lam)
    try:
        s = StarterSet.from_profiles(n, lam, profiles)
    except ValueError as exc:
        raise StarterSearchFailed(f"{family} at n={n}, lambda={lam}: {exc}") from exc
    return FamilyPlan(family, n, lam, tuple(tuple(sorted(t.items()))
                                            for t in profiles), s)


def construct(n: int, lam: int) -> MultiFactorization:
    """Build the catalog's 1-factorization of lambda*K_2n."""
    return assemble(plan(n, lam).starter_set)


@dataclass(frozen=True)
class CoverageEntry:
    lam: int
    n: int
    family: str


def coverage_table(s: int) -> list[CoverageEntry]:
    """Provenance table behind the simple-and-indecomposable range for K_2s.

    For every 2 <= lambda <= 2*floor(s/2) - 1, the smallest base n with
    9 <= n <= floor(s/2) and lambda_floor(n) <= lambda <= 2n - 1 (the
    embedding hypothesis caps lambda at 2n - 1), except lambda = 2 which
    embeds from the (n, lambda) = (5, 2) instance.  lambda_floor(9) = 3,
    so for lambda >= 3 that n is max(9, ceil((lambda + 1) / 2)).
    """
    if s < 18:
        raise STooSmall(f"s = {s} < 18")
    out = [CoverageEntry(2, 5, "P2")]
    for lam in range(3, 2 * (s // 2)):
        base = max(9, ceil((lam + 1) / 2))
        out.append(CoverageEntry(lam, base, family_for(base, lam)))
    return out


def upper_bound(n: int, simple: bool = True) -> int:
    """Admissibility ceiling on lambda for an indecomposable 1-factorization.

    Simple case: the product 3*4*...*(2n-3).  Non-simple case:
    [n(2n-1)]^[n(2n-1)] * C(2n^3+n^2-n+1, 2n^2-n).  Exact big integers.
    """
    assert n >= 2
    if simple:
        out = 1
        for k in range(3, 2 * n - 2):
            out *= k
        return out
    base = n * (2 * n - 1)
    return base ** base * comb(2 * n ** 3 + n ** 2 - n + 1, 2 * n ** 2 - n)
