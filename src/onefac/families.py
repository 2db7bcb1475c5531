"""Parameter families of indecomposable 1-factorizations and their dispatch.

Eight cyclic-model families partition the parameter strip
ceil((n-2)/3) <= lambda <= 2n for n >= 9 (smaller n keep the low-lambda
families only); a ninth entry is the finite-field construction living in
the `gf` module.  Every family's starter profiles are closed forms coded
here: whole for P1 and P4, and otherwise closed-form pinned starters
(`_pins`) followed by free slots given by rules affine in n (`_slots`)
or, at twelve small cases, by the table `_SMALL_SLOTS`.  Acceptance
criterion A7 pins every profile table with n <= 14 against a golden file.

Both parity families P1 and P2 start at the same floor ceil((n-2)/3), so
the two parity classes tile the low-lambda strip completely; the
certificate covers the whole range (e.g. (n, lambda) = (10, 3) and
(13, 4) sit at that floor).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

from .core import MultiFactorization
from .starters import (Certificate, StarterSet, assemble,
                       certificate_indecomposable, find_profiles)

FAMILY_IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8")


class OutOfDomain(ValueError):
    """(n, lambda) is outside the requested family's domain."""


class NoFamily(ValueError):
    """No family claims this (n, lambda)."""


class StarterSearchFailed(ValueError):
    """Starter realization failed."""


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
    """Starter profiles for one family at (n, lambda), all in closed form.

    P1 and P4 are coded whole, as are P3 at n = 11 and P6 at n = 9, 10.
    The other cases are the family's pins followed by one profile per
    free slot of `_slots`, or of `_SMALL_SLOTS` at the twelve small cases
    the rules do not reproduce, built by `starters.find_profiles`.
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
    slots = _SMALL_SLOTS.get((family, n, lam)) or _slots(family, n, lam)
    return list(find_profiles(n, _pins(family, n, lam), slots))


def _pins(family: str, n: int, lam: int) -> list[dict[int, int]]:
    """Closed-form pinned starters of a family completed by free slots."""
    if family == "P2":
        return []
    if family in ("P3", "P7"):
        return [_profile_a(n, 3), _profile_b(n, 0)]
    if family == "P5":
        r = 2 * n - lam
        return [_profile_a(n, 4 if r == 4 else 2), _profile_b(n, 1)]
    if family == "P6":
        return [_profile_a(n, 2), _profile_b(n, 1)]
    if family == "P8":
        if lam == 2 * n - 1:
            return [_profile_a(n, 2), _profile_a(n, 3),
                    _profile_b(n, 1), _profile_b(n, 0)]
        if n == 9:  # lam = 18: explicit starters except one
            return [_profile_a(9, 4), _profile_a(9, 3), _profile_b(9, 0),
                    {1: 6, 2: 2, 8: 1}]
        return [_profile_a(n, 2), _profile_a(n, 3), _profile_b(n, 1)]
    raise ValueError(f"{family} has no free slots")


def _slots(family: str, n: int, lam: int) -> list[tuple[int, int, int]]:
    """Free slots (p, q, g) completing `_pins`; g is idle when p + q = n - 1."""
    k, r = lam - n, 2 * n - lam
    if family == "P2":
        if 2 * lam >= n:
            return [(lam, n - lam - 1, 2)]
        return [(lam, lam, 3 if n == 3 * lam + 1 else 2)]
    if family == "P3":
        if 3 * k + 5 <= n - 1:
            return [(k + 1, k + 1, 2), (0, 1, 3)]
        if n % 2 and 2 * k == n - 5:
            return [(k + 1, 1, 3), (0, k + 1, 4)]
        if n % 2 and 2 * k == n - 3:
            return [(k + 1, k, 2), (0, 2, 2)]
        if n - 2 * k - 4 >= 0:
            return [(k + 1, n - 2 * k - 4, 3), (0, 3 * k + 6 - n, 2)]
        return [(k + 1, n - k - 2, 2), (0, 2 * k - n + 4, 2)]
    if family == "P5":
        return {6: [(n - 6, 5, 2), (0, n - 8, 2)],
                5: [(n - 5, 4, 2), (0, n - 6, 3)],
                4: [(n - 4, 3, 2), (0, n - 4, 2)],
                3: [(n - 4, 3, 2), (1, n - 3, 4)]}[r]
    if family == "P6":
        return [(n - 4, 3, 2), (2, n - 4, 5)]
    if family == "P7":
        return [(n - 6, 5, 2), (0, n - 10, 2)]
    if r == 1:  # P8
        return [(0, 4, 2)]
    return [(2, n - 4, 5), (0, 7, 2)]


# Free slots of the small cases whose golden profiles the rules of
# `_slots` do not reproduce.
_SMALL_SLOTS = {
    ("P5", 9, 12): [(3, 5, 2), (0, 1, 3)],
    ("P5", 9, 13): [(4, 3, 2), (0, 4, 2)],
    ("P5", 10, 15): [(5, 3, 2), (0, 5, 2)],
    ("P5", 11, 16): [(5, 4, 2), (0, 4, 2)],
    ("P5", 12, 19): [(7, 4, 2), (0, 6, 4)],
    ("P7", 9, 11): [(3, 1, 3), (0, 3, 5)],
    ("P7", 10, 13): [(4, 0, 3), (0, 5, 2)],
    ("P7", 11, 15): [(5, 4, 2), (0, 2, 2)],
    ("P8", 9, 17): [(0, 4, 6)],
    ("P8", 9, 18): [(3, 5, 2)],
    ("P8", 11, 22): [(2, 7, 5), (0, 7, 3)],
    ("P8", 12, 24): [(2, 8, 5), (0, 7, 3)],
}


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
