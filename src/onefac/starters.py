"""Starter-orbit assembly and the counting certificate for indecomposability.

A *starter set* is a list of cross-edge 1-factors with trivial shift
stabilizer, lying in pairwise distinct H-orbits, whose aggregated
difference profile T(a) stays <= lambda everywhere (and leaves some orbit
untouched when n is odd).  From a starter set the assembly produces a
1-factorization of lambda*K_2n consisting of the full H-orbit of every
starter, the joined side-factor block, and lambda - T(a) loose copies of
each orbit factor M_a.

The certificate decides indecomposability by pure counting.  Any
subfactorization of the assembled object must (a) take each starter orbit
entirely or not at all, established by a greedy ordering argument over
private orbits, and (b) take exactly lambda_0 copies of every joined side
factor, which pins the coverage of every M_a to an integer system

    lambda_0  =  sum_i x_i * t_i(a)  +  c_a,      0 <= c_a <= lambda - T(a)

over orbit in/out bits x in {0,1}^m.  If the system is infeasible for every
x and every 0 < lambda_0 < lambda, no subfactorization exists.  One kernel,
`_selections`, yields the lambda_0 interval of every x; the certificate
traces it, the profile search rejects a leaf at its first nonempty
interval, and `verify.certificate_witness` builds a subfactorization from
the first one.  The kernel reads each interval off a table over all
profiles but the last (`_prefix_table`) and the last profile's orbits, so
the profile search builds that table once per last slot and pays per leaf
only for the orbits its last candidate touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .core import MultiFactorization, OneFactor
from . import cyclic

PROVEN = "proven"
UNKNOWN = "unknown"


class ProfileSumInvalid(ValueError):
    """Difference profile violates the displacement-sum condition."""


class InfeasibleProfile(ValueError):
    """No trivial-stabilizer permutation realizes the requested profile."""


class PreconditionFailed(ValueError):
    """Starter-set conditions are violated; details in args[1]."""

    def __init__(self, message: str, violations: list[str]):
        super().__init__(message, violations)
        self.violations = violations


class StabilizerNotTrivial(ValueError):
    """Operation requires a starter with trivial shift stabilizer."""


class OrderingFailed(ValueError):
    """The greedy private-orbit ordering could not mark every starter."""


class NoProfilesFound(ValueError):
    """Profile search exhausted its enumeration without a solution."""


class ProfileBudgetExhausted(NoProfilesFound):
    """Profile search stopped at its node budget before finding a solution."""


def _totals(profiles) -> dict[int, int]:
    """Aggregated profile T(a) = sum_i t_i(a) over the orbits the profiles touch."""
    tot: dict[int, int] = {}
    for t in profiles:
        for a, v in t.items():
            tot[a] = tot.get(a, 0) + v
    return tot


@dataclass(frozen=True)
class StarterSet:
    """Starters for the assembly, stored as permutations of Z_n."""

    n: int
    lam: int
    perms: tuple[tuple[int, ...], ...]

    @classmethod
    def from_profiles(cls, n: int, lam: int, profiles) -> "StarterSet":
        """Realize every profile; an unrealizable one raises find_starter's error."""
        return cls(n, lam, tuple(_realization(n, tuple(sorted(t.items())))
                                 or find_starter(n, t) for t in profiles))

    @property
    def m(self) -> int:
        return len(self.perms)

    def profiles(self) -> list[dict[int, int]]:
        return [cyclic.profile(pi, self.n) for pi in self.perms]

    def totals(self) -> dict[int, int]:
        """Aggregated profile T(a) = sum_i t_i(a), zero entries omitted."""
        return _totals(self.profiles())

    def orbit_b(self) -> int | None:
        """Smallest a with T(a) = 0 (the joined cross orbit for odd n)."""
        tot = self.totals()
        for a in range(self.n):
            if tot.get(a, 0) == 0:
                return a
        return None


@dataclass(frozen=True)
class TraceEntry:
    """lambda_0 interval of one orbit selection x, with the binding orbits.

    Every lambda_0 below `lo` violates the coverage lower bound on orbit
    `lo_orbit`; every lambda_0 above `hi` exceeds the loose-copy stock of
    orbit `hi_orbit`.  The selection is infeasible iff lo > hi.
    """

    x: tuple[int, ...]
    status: str  # "infeasible" | "feasible"
    lo: int
    hi: int
    lo_orbit: int | None
    hi_orbit: int | None


@dataclass(frozen=True)
class Certificate:
    """Outcome of the counting certificate.

    status is "proven" or "unknown".  `ordering` is the greedy marking
    order as (starter index, private orbit) pairs; `trace` has one
    TraceEntry per orbit-selection vector x.
    """

    status: str
    ordering: tuple[tuple[int, int], ...]
    trace: tuple[TraceEntry, ...]

    @property
    def proven(self) -> bool:
        return self.status == PROVEN


def check_starter_conditions(s: StarterSet) -> list[str]:
    """All starter-set conditions; returns a list of violations (empty = ok)."""
    violations = []
    orbits = []
    for i, pi in enumerate(s.perms):
        try:
            orbits.append(cyclic.h_orbit(pi, s.n))
        except cyclic.NotAPermutation as exc:
            violations.append(f"starter {i}: {exc}")
            orbits.append(None)
    for i, orbit in enumerate(orbits):
        if orbit is not None and len(orbit) != s.n:
            violations.append(f"starter {i}: stabilizer order "
                              f"{s.n // len(orbit)} (must be 1)")
    reps = {}
    for i, orbit in enumerate(orbits):
        if orbit is None:
            continue
        rep = orbit[0]
        if rep in reps:
            violations.append(f"starters {reps[rep]} and {i} share an H-orbit")
        else:
            reps[rep] = i
    for a, total in sorted(s.totals().items()):
        if total > s.lam:
            violations.append(f"t(M_{a}) = {total} exceeds lambda = {s.lam}")
    if s.n % 2 and s.orbit_b() is None:
        violations.append("odd n but no orbit M_b with t(M_b) = 0")
    return violations


def assemble(s: StarterSet) -> MultiFactorization:
    """Build the full 1-factorization of lambda*K_2n from a starter set.

    Output: the H-orbit of every starter, the joined side block (lambda
    copies of each class), and lambda - T(a) copies of each M_a; except
    M_b, whose cross edges ride inside the joined block when n is odd.
    """
    violations = check_starter_conditions(s)
    if violations:
        raise PreconditionFailed("starter conditions violated", violations)
    n, lam = s.n, s.lam
    totals = s.totals()
    factors: list[OneFactor] = []
    for pi in s.perms:
        factors.extend(cyclic.cross_factor(p, n) for p in cyclic.h_orbit(pi, n))
    if n % 2 == 0:
        factors.extend(cyclic.join_even(n, lam))
        skip = set()
    else:
        b = s.orbit_b()
        factors.extend(cyclic.join_odd(n, lam, b))
        skip = {b}
    for a in range(n):
        if a in skip:
            continue
        factors.extend([cyclic.m_factor(n, a)] * (lam - totals.get(a, 0)))
    # Every factor above is canonical already.
    mf = MultiFactorization(n, lam, tuple(sorted(factors)), {"tag": "cyclic", "n": n})
    assert len(mf.factors) == mf.expected_factor_count()
    return mf


def orbit_multiplicity_check(pi, n: int) -> dict[int, int]:
    """Brute-force the orbit multiplicity law for a trivial-stabilizer starter.

    Counts, over the multiset of edges of the whole H-orbit of the factor,
    how often each M_a edge occurs, and asserts the count equals the
    starter's profile entry t[a] for every a and every edge.  Returns the
    map a -> multiplicity.
    """
    orbit = cyclic.h_orbit(pi, n)
    if len(orbit) != n:
        raise StabilizerNotTrivial("orbit multiplicity law needs a trivial stabilizer")
    t = cyclic.profile(pi, n)
    counts: dict[tuple[int, int], int] = {}
    for shifted in orbit:
        for e in cyclic.cross_factor(shifted, n):
            counts[e] = counts.get(e, 0) + 1
    for a in range(n):
        expected = t.get(a, 0)
        for e in cyclic.m_factor(n, a):
            if counts.get(e, 0) != expected:
                raise AssertionError(
                    f"edge {e} of M_{a} occurs {counts.get(e, 0)} times, expected {expected}")
    return {a: t.get(a, 0) for a in range(n)}


def certificate_order(s: StarterSet) -> tuple[tuple[int, int], ...] | None:
    """Greedy private-orbit marking order, or None when it does not close.

    A starter F_i may be marked through orbit a when t_i(a) = 1 and every
    other starter touching M_a is already marked.  Ties break on lowest
    starter index, then lowest orbit.
    """
    order = _greedy_order_profiles(s.profiles())
    return None if order is None else tuple(order)


def _prefix_table(n: int, lam: int, profiles) -> list[tuple]:
    """One row per orbit selection x over `profiles`, in ascending bit order.

    A row is (x, cov, e, by_cov, by_e, lo, lo_orbit, hi, hi_orbit): the
    coverage cov_x, e_x = cov_x + lambda - T over these profiles, the orbits
    ordered by (-cov_x(a), a) and by (e_x(a), a), the clamped lambda_0 lower
    bound of x alone and the clamped upper bound of x with any last profile
    added (which cancels out of its coverage plus stock).
    """
    rows = [((), [0] * n)]
    for t in profiles:
        v = [0] * n
        for a, c in t.items():
            v[a] = c
        rows = ([(x + (0,), cov) for x, cov in rows]
                + [(x + (1,), list(map(add, cov, v))) for x, cov in rows])
    stock = [lam - c for c in rows[-1][1]]
    table = []
    for x, cov in rows:
        e = list(map(add, cov, stock))
        # Stable sorts: equal values keep ascending orbit order.
        by_cov = sorted(range(n), key=cov.__getitem__, reverse=True)
        by_e = sorted(range(n), key=e.__getitem__)
        top, bottom = cov[by_cov[0]], e[by_e[0]]
        lo, lo_orbit = (top, by_cov[0]) if top > 1 else (1, None)
        hi, hi_orbit = (bottom, by_e[0]) if bottom < lam - 1 else (lam - 1, None)
        table.append((x, cov, e, by_cov, by_e, lo, lo_orbit, hi, hi_orbit))
    return table


def _selections(n: int, lam: int, profiles, table=None):
    """The lambda_0 interval of every orbit selection x, in ascending bit order.

    Yields (x, lo, hi, lo_orbit, hi_orbit): the coverage equation of each
    orbit a forces cov_x(a) <= lambda_0 <= cov_x(a) + lambda - T(a), inside
    1 <= lambda_0 <= lambda - 1, and the binding orbits are the smallest to
    attain each bound (None when only the outer range binds).  An orbit
    with T(a) = 0, such as the joined orbit b of odd n, never binds.

    The selections are read off `table`, the `_prefix_table` of all
    profiles but the last one l, which the profile search shares across
    every candidate for its last slot.  Without l, lo is the row's and hi
    is min_a e_x(a) - l(a); with l, hi is the row's and lo is
    max_a cov_x(a) + l(a).  Each extremum differs from the row's only on
    the orbits of l, so it is found among them and the first other orbit
    in the row's order.
    """
    if table is None:
        table = _prefix_table(n, lam, profiles[:-1])
    last = profiles[-1] if profiles else {}
    tail = (0,) if profiles else ()
    for x, cov, e, by_cov, by_e, lo, lo_orbit, _, _ in table:
        bottom, hi_orbit = lam - 1, None
        for a in by_e:
            if a not in last:
                if e[a] < bottom:
                    bottom, hi_orbit = e[a], a
                break
        for a, v in last.items():
            s = e[a] - v
            if s < bottom or s == bottom and hi_orbit is not None and a < hi_orbit:
                bottom, hi_orbit = s, a
        yield x + tail, lo, bottom, lo_orbit, hi_orbit
    if not profiles:
        return
    for x, cov, e, by_cov, by_e, _, _, hi, hi_orbit in table:
        top, lo_orbit = 1, None
        for a in by_cov:
            if a not in last:
                if cov[a] > top:
                    top, lo_orbit = cov[a], a
                break
        for a, v in last.items():
            s = cov[a] + v
            if s > top or s == top and lo_orbit is not None and a < lo_orbit:
                top, lo_orbit = s, a
        yield x + (1,), top, hi, lo_orbit, hi_orbit


def certificate_indecomposable(s: StarterSet) -> Certificate:
    """Run the counting certificate over all orbit selections.

    Requires lambda >= 2 (at lambda = 1 there is nothing to certify) and a
    successful greedy ordering, otherwise OrderingFailed.  Status is
    "proven" iff every selection's lambda_0 interval is empty.
    """
    if s.lam < 2:
        raise ValueError("indecomposability certificate needs lambda >= 2")
    violations = check_starter_conditions(s)
    if violations:
        raise PreconditionFailed("starter conditions violated", violations)
    ordering = certificate_order(s)
    if ordering is None:
        raise OrderingFailed("greedy private-orbit ordering did not close")
    trace = tuple(
        TraceEntry(x, "infeasible" if lo > hi else "feasible", lo, hi,
                   lo_orbit, hi_orbit)
        for x, lo, hi, lo_orbit, hi_orbit in _selections(s.n, s.lam,
                                                          s.profiles()))
    status = UNKNOWN if any(e.status == "feasible" for e in trace) else PROVEN
    return Certificate(status=status, ordering=ordering, trace=trace)


def find_starter(n: int, target: dict[int, int]) -> tuple[int, ...]:
    """Deterministic backtracking for a permutation with a given profile.

    Finds pi with displacement multiset {pi(x) - x mod n} equal to `target`
    and trivial shift stabilizer, assigning positions smallest-index-first
    and differences in ascending order.  After placing x, each target x + b
    must be taken or keep a later source z - c with c in stock, checked in
    plain loops that stop at the first dead target; this cuts only dead
    subtrees, so the result is plain backtracking's.  Raises
    ProfileSumInvalid when the displacement sum is nonzero mod n (no
    permutation can exist), and InfeasibleProfile when the exhaustive
    search finds no realization.
    """
    if any(v < 0 for v in target.values()) or any(not 0 <= a < n for a in target):
        raise ProfileSumInvalid(f"profile entries outside Z_{n} or negative")
    if sum(target.values()) != n:
        raise ProfileSumInvalid(f"profile mass {sum(target.values())} != n = {n}")
    if sum(a * v for a, v in target.items()) % n != 0:
        raise ProfileSumInvalid("displacement sum not divisible by n")
    remaining = {a: v for a, v in sorted(target.items()) if v > 0}
    pi = [-1] * n
    used = [False] * n
    diffs = sorted(remaining)

    def extend(x: int) -> tuple[int, ...] | None:
        if x == n:
            cand = tuple(pi)
            if cyclic.h_stabilizer_order(cand, n) == 1:
                return cand
            return None
        for a in diffs:
            if remaining[a] == 0:
                continue
            y = (x + a) % n
            if used[y]:
                continue
            pi[x] = y
            used[y] = True
            remaining[a] -= 1
            for b in diffs:
                z = (x + b) % n
                if used[z]:
                    continue
                for c in diffs:
                    if remaining[c] and (z - c) % n > x:
                        break
                else:
                    break  # target z has no later source left
            else:
                found = extend(x + 1)
                if found is not None:
                    return found
            remaining[a] += 1
            used[y] = False
            pi[x] = -1
        return None

    found = extend(0)
    if found is None:
        raise InfeasibleProfile(f"no trivial-stabilizer realization of {target}")
    return found


@lru_cache(maxsize=None)
def _realization(n: int, items: tuple[tuple[int, int], ...]) -> tuple[int, ...] | None:
    """find_starter on a sorted profile key, or None when it has no realization."""
    try:
        return find_starter(n, dict(items))
    except (ProfileSumInvalid, InfeasibleProfile):
        return None


def _slot_candidates(n: int, lam: int, p: int) -> list[tuple[tuple, dict[int, int]]]:
    """Searched profile shapes {0: p, 1: q, g: w, s: 1} in deterministic order.

    Each comes with its key, the sorted tuple of its items.

    w = n - p - q - 1, so every shape has mass n; s is the closure singleton
    forced by the displacement sum, on an orbit of its own.  Candidates
    whose largest entry exceeds p come first (those defeat their own
    single-orbit selection in the certificate), then q descends and the
    bulk orbit g ascends.
    """
    out = []
    seen = set()
    for q in range(n - 1 - p, -1, -1):
        w = n - p - q - 1
        for g in (range(2, n) if w else [None]):
            if g is None:
                s = (-q) % n
                prof = {0: p, 1: q, s: 1}
            else:
                s = (-(q + g * w)) % n
                prof = {0: p, 1: q, g: w, s: 1}
            if s in (0, 1) or s == g:
                continue
            prof = {a: v for a, v in prof.items() if v > 0}
            if max(prof.values()) > lam:
                continue
            key = tuple(sorted(prof.items()))
            if key in seen:
                continue
            seen.add(key)
            bucket = 0 if max(prof.values()) > p else 1
            out.append((bucket, key, prof))
    out.sort(key=lambda c: c[0])
    return [(key, prof) for _, key, prof in out]


def find_profiles(n: int, lam: int, m: int, fixed=(),
                  max_nodes: int = 2_000_000) -> tuple[dict[int, int], ...]:
    """The first m-tuple of starter profiles, in search order, that certifies.

    The first len(fixed) slots are pinned; the remaining slots are drawn
    from a structured family anchored on orbit 0 (the free slots' orbit-0
    masses always top the aggregate T(0) up to exactly lambda, which every
    proven certificate needs on some orbit) plus an orbit-1 mass, one bulk
    orbit and a closure singleton.  The answer is realizable, keeps
    T(a) <= lambda, leaves a zero orbit when n is odd, and passes
    certificate_order and certificate_indecomposable.

    Checked once per call, with zero counts dropped: lambda >= 2, the
    fixed profiles keep T(a) <= lambda and are distinct, and each has
    positive counts on orbits of Z_n, mass n, a displacement sum
    divisible by n and a singleton.  The search keeps all of these for
    every tuple it builds, so `_leaf_ok` checks only the rest at each
    leaf.  Deterministic.  Raises
    NoProfilesFound when the checks or the enumeration end without an
    answer, and its subclass ProfileBudgetExhausted when the search stops
    after `max_nodes` candidates without one.
    """
    fixed = tuple({a: v for a, v in dict(t).items() if v} for t in fixed)
    free = m - len(fixed)
    if free < 0:
        raise ValueError("more fixed profiles than slots")
    # Keys of the fixed and chosen profiles, and `tot` their totals T(a):
    # both are updated in place and restored on backtrack.
    used = {tuple(sorted(t.items())) for t in fixed}
    tot = _totals(fixed)
    if lam < 2:
        raise NoProfilesFound("lambda < 2 leaves nothing to certify")
    if any(v > lam for v in tot.values()):
        raise NoProfilesFound("fixed profiles already exceed lambda")
    if len(used) != len(fixed):
        raise NoProfilesFound("fixed profiles repeat")
    for t in fixed:
        if (any(not 0 <= a < n or v < 0 for a, v in t.items())
                or sum(t.values()) != n or sum(a * v for a, v in t.items()) % n
                or 1 not in t.values()):
            raise NoProfilesFound(
                f"fixed profile {t} needs positive counts on orbits of Z_{n}, "
                f"mass {n}, a displacement sum divisible by {n} and a singleton")
    if free == 0:
        if _leaf_ok(n, lam, fixed):
            return fixed
        raise NoProfilesFound("fixed profiles do not certify")

    nodes = 0
    chosen: list[dict[int, int]] = []
    candidates: dict[int, list[tuple[tuple, dict[int, int]]]] = {}

    def dfs(slot: int, rem0: int) -> bool:
        """True once `chosen` completes the answer or the budget runs out."""
        nonlocal nodes
        last = slot == free - 1
        table = _prefix_table(n, lam, fixed + tuple(chosen)) if last else None
        for p in ([rem0] if last else range(min(rem0, n - 1), -1, -1)):
            if p not in candidates:
                candidates[p] = _slot_candidates(n, lam, p)
            for key, prof in candidates[p]:
                nodes += 1
                if nodes > max_nodes:
                    return True
                if key in used:
                    continue
                fits = True
                for a, v in key:
                    if tot.get(a, 0) + v > lam:
                        fits = False
                        break
                if not fits:
                    continue
                chosen.append(prof)
                if last:
                    if _leaf_ok(n, lam, fixed + tuple(chosen), table):
                        return True
                else:
                    used.add(key)
                    for a, v in key:
                        tot[a] = tot.get(a, 0) + v
                    done = dfs(slot + 1, rem0 - p)
                    for a, v in key:
                        tot[a] -= v
                    used.discard(key)
                    if done:
                        return True
                chosen.pop()
        return False

    found = dfs(0, lam - tot.get(0, 0))
    if nodes > max_nodes:
        raise ProfileBudgetExhausted(
            f"profile search for n={n}, lambda={lam} stopped at its budget "
            f"of {max_nodes} nodes")
    if found:
        return fixed + tuple(chosen)
    raise NoProfilesFound(f"no certified {m}-tuple exists for n={n}, lambda={lam} "
                          f"in the searched family")


def _leaf_ok(n: int, lam: int, profiles: tuple[dict[int, int], ...],
             table=None) -> bool:
    """Whether a complete profile tuple of the search certifies.

    Only for tuples that meet what `find_profiles` checks once per call
    and its search keeps: lambda >= 2, T(a) <= lambda, distinct profiles,
    each of mass n with displacement sum 0 mod n and a singleton.  Under
    those, the all-zero selection's interval is empty exactly when some
    T(a) = lambda, so the interval test covers that too.  Most leaves fail
    at a selection of one or two orbits without the last profile, so the
    interval test runs first, reading `table` (the last slot's
    `_prefix_table`, as in `_selections`) and the last profile's orbits.
    """
    if any(lo <= hi for _, lo, hi, _, _ in _selections(n, lam, profiles, table)):
        return False
    tot = _totals(profiles)
    if n % 2 and all(tot.get(a, 0) > 0 for a in range(n)):
        return False
    if _greedy_order_profiles(profiles) is None:
        return False
    return all(_realization(n, tuple(sorted(t.items()))) is not None
               for t in profiles)


def _greedy_order_profiles(profiles) -> list[tuple[int, int]] | None:
    """certificate_order on bare profile dicts (used inside the search)."""
    m = len(profiles)
    marked: set[int] = set()
    order = []
    while len(marked) < m:
        progress = False
        for i in range(m):
            if i in marked:
                continue
            for a in sorted(profiles[i]):
                if profiles[i][a] != 1:
                    continue
                if all(k in marked or profiles[k].get(a, 0) == 0
                       for k in range(m) if k != i):
                    marked.add(i)
                    order.append((i, a))
                    progress = True
                    break
            if progress:
                break
        if not progress:
            return None
    return order
