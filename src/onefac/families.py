"""Parameter families of indecomposable 1-factorizations and their dispatch.

Eight cyclic-model families partition the parameter strip
ceil((n-2)/3) <= lambda <= 2n for n >= 9 (smaller n keep the low-lambda
families only); a ninth entry is the finite-field construction living in
the `gf` module.  Every family's starter profiles are closed forms coded
here.  P1 below lambda = n - 2 is coded whole; every other case is a
list of slots (p, q, g), given by rules affine in n (`_slots`) or, at
seventeen small cases, by the table `_SMALL_SLOTS`, and spelled out by
`starters.find_profiles`.  The paper's heavy-zero and companion starters
lead most lists, named by `_heavy_zero` and `_companion`.  Acceptance
criterion A7 pins every profile table with n <= 14 against a golden file.

Both parity families P1 and P2 start at the same floor ceil((n-2)/3), so
the two parity classes tile the low-lambda strip completely; the
certificate covers the whole range (e.g. (n, lambda) = (10, 3) and
(13, 4) sit at that floor).
"""

from __future__ import annotations

from collections import namedtuple
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
    """Starter realization, or the check of the realized set, failed."""


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


def family_profiles(family: str, n: int, lam: int) -> list[dict[int, int]]:
    """Starter profiles for one family at (n, lambda), all in closed form.

    P1 below lambda = n - 2 is coded whole.  Every other case is one
    profile per slot of `_slots`, or of `_SMALL_SLOTS` at the seventeen
    small cases the rules do not reproduce, spelled out by
    `starters.find_profiles`.
    """
    if not family_domain(family, n, lam):
        raise OutOfDomain(f"{family} does not cover n={n}, lambda={lam}")
    if family == "P1" and lam < n - 2:
        k = (n - lam - 2) // 2
        return [{0: lam, 1: k, n - 1: k, 2: 1, n - 2: 1}]
    return list(find_profiles(n, _SMALL_SLOTS.get((family, n, lam))
                              or _slots(family, n, lam)))


def _heavy_zero(n: int, alpha: int) -> tuple[int, int, int]:
    """Slot of the heavy-zero starter {0: n-2, alpha: 1, n-alpha: 1}."""
    return (n - 2, 0, alpha)


def _companion(n: int, r: int) -> tuple[int, int, int]:
    """Slot of the companion {0: r+1, 1: n-r-2, r+2: 1} of the lambda = n-1+r pair."""
    return (r + 1, n - r - 2, 2)


def _slots(family: str, n: int, lam: int) -> list[tuple[int, int, int]]:
    """Every starter of a family as a slot (p, q, g); g is idle when p + q = n - 1.

    P1 is served here only at lambda = n - 2.
    """
    k, r = lam - n, 2 * n - lam
    if family == "P1":
        return [(n - 2, 1, 2)]
    if family == "P2":
        if 2 * lam >= n:
            return [(lam, n - lam - 1, 2)]
        return [(lam, lam, 3 if n == 3 * lam + 1 else 2)]
    if family == "P4":
        return [_heavy_zero(n, 3 if k == -1 else 2), _companion(n, k + 1)]
    if family == "P3":
        head = [_heavy_zero(n, 3), _companion(n, 0)]
        if 3 * k + 5 <= n - 1:
            return head + [(k + 1, k + 1, 2), (0, 1, 3)]
        if n % 2 and 2 * k == n - 5:
            return head + [(k + 1, 1, 3), (0, k + 1, 4)]
        if n % 2 and 2 * k == n - 3:
            return head + [(k + 1, k, 2), (0, 2, 2)]
        if n - 2 * k - 4 >= 0:
            return head + [(k + 1, n - 2 * k - 4, 3), (0, 3 * k + 6 - n, 2)]
        return head + [(k + 1, n - k - 2, 2), (0, 2 * k - n + 4, 2)]
    if family == "P5":
        return [_heavy_zero(n, 4 if r == 4 else 2), _companion(n, 1)] + {
            6: [(n - 6, 5, 2), (0, n - 8, 2)],
            5: [(n - 5, 4, 2), (0, n - 6, 3)],
            4: [(n - 4, 3, 2), (0, n - 4, 2)],
            3: [(n - 4, 3, 2), (1, n - 3, 4)]}[r]
    if family == "P6":
        return [_heavy_zero(n, 2), _companion(n, 1), (n - 4, 3, 2), (2, n - 4, 5)]
    if family == "P7":
        return [_heavy_zero(n, 3), _companion(n, 0), (n - 6, 5, 2), (0, n - 10, 2)]
    head = [_heavy_zero(n, 2), _heavy_zero(n, 3), _companion(n, 1)]  # P8
    if r == 1:
        return head + [_companion(n, 0), (0, 4, 2)]
    return head + [(2, n - 4, 5), (0, 7, 2)]


# Every slot of the small cases whose golden profiles the rules of
# `_slots` do not reproduce.
_SMALL_SLOTS = {
    ("P3", 11, 12): [(9, 0, 2), (3, 7, 2)],
    ("P3", 11, 13): [(9, 0, 2), (4, 6, 2)],
    ("P3", 11, 14): [(9, 0, 3), (1, 9, 2), (4, 5, 7)],
    ("P5", 9, 12): [(7, 0, 2), (2, 6, 2), (3, 5, 2), (0, 1, 3)],
    ("P5", 9, 13): [(7, 0, 2), (2, 6, 2), (4, 3, 2), (0, 4, 2)],
    ("P5", 10, 15): [(8, 0, 2), (2, 7, 2), (5, 3, 2), (0, 5, 2)],
    ("P5", 11, 16): [(9, 0, 2), (2, 8, 2), (5, 4, 2), (0, 4, 2)],
    ("P5", 12, 19): [(10, 0, 2), (2, 9, 2), (7, 4, 2), (0, 6, 4)],
    ("P6", 9, 16): [(7, 0, 2), (7, 0, 4), (1, 7, 2), (1, 6, 8), (0, 3, 2)],
    ("P6", 10, 18): [(8, 0, 2), (8, 0, 3), (1, 8, 2), (1, 7, 9), (0, 3, 2)],
    ("P7", 9, 11): [(7, 0, 3), (1, 7, 2), (3, 1, 3), (0, 3, 5)],
    ("P7", 10, 13): [(8, 0, 3), (1, 8, 2), (4, 0, 3), (0, 5, 2)],
    ("P7", 11, 15): [(9, 0, 3), (1, 9, 2), (5, 4, 2), (0, 2, 2)],
    ("P8", 9, 17): [(7, 0, 2), (7, 0, 3), (2, 6, 2), (1, 7, 2), (0, 4, 6)],
    ("P8", 9, 18): [(7, 0, 4), (7, 0, 3), (1, 7, 2), (0, 6, 2), (3, 5, 2)],
    ("P8", 11, 22): [(9, 0, 2), (9, 0, 3), (2, 8, 2), (2, 7, 5), (0, 7, 3)],
    ("P8", 12, 24): [(10, 0, 2), (10, 0, 3), (2, 9, 2), (2, 8, 5), (0, 7, 3)],
}


class FamilyPlan(namedtuple("FamilyPlan", "family starter_set")):
    """Resolved construction plan: the family (str) and its realized StarterSet."""

    __slots__ = ()

    def certificate(self) -> Certificate:
        return certificate_indecomposable(self.starter_set)


def plan(n: int, lam: int) -> FamilyPlan:
    """Pick the family for (n, lambda) and make its checked starter set."""
    family = family_for(n, lam)
    profiles = family_profiles(family, n, lam)
    try:
        s = StarterSet.from_profiles(n, lam, profiles)
    except ValueError as exc:
        raise StarterSearchFailed(f"{family} at n={n}, lambda={lam}: {exc}") from exc
    return FamilyPlan(family, s)


def construct(n: int, lam: int) -> MultiFactorization:
    """Build the catalog's 1-factorization of lambda*K_2n."""
    return assemble(plan(n, lam).starter_set)


class CoverageEntry(namedtuple("CoverageEntry", "lam n family")):
    """A coverage_table row: ints lam and base n, and the family (str) serving them."""

    __slots__ = ()


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
