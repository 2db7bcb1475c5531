"""Starter-orbit assembly and the counting certificate for indecomposability.

A *starter set* is a list of cross-edge 1-factors with trivial shift
stabilizer, lying in pairwise distinct H-orbits, whose aggregated
difference profile T(a) stays <= lambda everywhere (and leaves some orbit
untouched when n is odd).  A `StarterSet` is checked once, when it is
made, and derives its profiles, T and M_b once.  From a starter set the
assembly produces a 1-factorization of lambda*K_2n consisting of the full
H-orbit of every starter, the joined side-factor block, and lambda - T(a)
loose copies of each orbit factor M_a.

The certificate decides indecomposability by pure counting.  Any
subfactorization of the assembled object must (a) take each starter orbit
entirely or not at all, established by a greedy ordering argument over
private orbits, and (b) take exactly lambda_0 copies of every joined side
factor, which pins the coverage of every M_a to an integer system

    lambda_0  =  sum_i x_i * t_i(a)  +  c_a,      0 <= c_a <= lambda - T(a)

over orbit in/out bits x in {0,1}^m.  If the system is infeasible for every
x and every 0 < lambda_0 < lambda, no subfactorization exists.  One kernel,
`_selections`, yields the lambda_0 interval of every x; the certificate
traces it, and `verify.certificate_witness` builds a subfactorization from
the first nonempty one.

Starter profiles come in closed form from `families`.  All but P1 below
lambda = n - 2 are slots {0: p, 1: q, g: w, s: 1} that `find_profiles`
spells out.  `find_starter` realizes a profile with M. Hall Jr.'s
exchange chain (Proc. AMS 3, 1952) in polynomial time: any n elements of
Z_n summing to 0 are the differences of two orderings of Z_n.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from operator import add

from .core import MultiFactorization, Record
from . import cyclic

PROVEN = "proven"
UNKNOWN = "unknown"


class ProfileSumInvalid(ValueError):
    """Difference profile violates the displacement-sum condition."""


class InfeasibleProfile(ValueError):
    """No trivial-stabilizer permutation realizes the requested profile."""


class ChainTooLong(ValueError):
    """Hall's exchange chain passed its step bound without closing."""


class PreconditionFailed(ValueError):
    """Starter-set conditions are violated; details in args[1]."""

    def __init__(self, message: str, violations: list[str]):
        super().__init__(message, violations)
        self.violations = violations

    def __str__(self) -> str:
        return f"{self.args[0]}: {'; '.join(self.violations)}"


class StabilizerNotTrivial(ValueError):
    """Operation requires a starter with trivial shift stabilizer."""


class OrderingFailed(ValueError):
    """The greedy private-orbit ordering could not mark every starter."""


class StarterSet(Record):
    """Starters for the assembly as permutations of Z_n, checked when made."""

    _key = ("n", "lam", "perms")

    def __init__(self, n: int, lam: int, perms: tuple[tuple[int, ...], ...]):
        vars(self).update(n=n, lam=lam, perms=perms)
        violations = check_starter_conditions(self)
        if violations:
            raise PreconditionFailed("starter conditions violated", violations)

    @classmethod
    def from_profiles(cls, n: int, lam: int, profiles) -> "StarterSet":
        """Realize every profile; an unrealizable one raises find_starter's error."""
        return cls(n, lam, tuple(find_starter(n, t) for t in profiles))

    @property
    def m(self) -> int:
        return len(self.perms)

    @cached_property
    def profiles(self) -> tuple[dict[int, int], ...]:
        return tuple(cyclic.profile(pi, self.n) for pi in self.perms)

    @cached_property
    def totals(self) -> dict[int, int]:
        """Aggregated profile T(a) = sum_i t_i(a), zero entries omitted."""
        tot: dict[int, int] = {}
        for t in self.profiles:
            for a, v in t.items():
                tot[a] = tot.get(a, 0) + v
        return tot

    @cached_property
    def orbit_b(self) -> int | None:
        """Smallest a with T(a) = 0 (the joined cross orbit for odd n)."""
        for a in range(self.n):
            if self.totals.get(a, 0) == 0:
                return a
        return None


class TraceEntry(namedtuple("TraceEntry", "x status lo hi lo_orbit hi_orbit")):
    """lambda_0 interval of one orbit selection x, with the binding orbits.

    Every lambda_0 below `lo` violates the coverage lower bound on orbit
    `lo_orbit`; every lambda_0 above `hi` exceeds the loose-copy stock of
    orbit `hi_orbit` (None where no orbit binds).  `status` is "infeasible"
    iff lo > hi, else "feasible".
    """

    __slots__ = ()


class Certificate(namedtuple("Certificate", "status ordering trace")):
    """Outcome of the counting certificate.

    status is "proven" or "unknown".  `ordering` is the greedy marking
    order as (starter index, private orbit) pairs; `trace` has one
    TraceEntry per orbit-selection vector x.
    """

    __slots__ = ()

    @property
    def proven(self) -> bool:
        return self.status == PROVEN


def check_starter_conditions(s: StarterSet) -> list[str]:
    """All starter-set conditions; returns a list of violations (empty = ok).

    StarterSet runs it when it is made.  The profiles are read first, so a
    starter that is not a permutation of Z_n raises cyclic.NotAPermutation
    before anything else.  A shift keeps the difference profile, so only
    starters with equal profiles can share an H-orbit, and only those
    pairs are compared.
    """
    n = s.n
    profiles = s.profiles
    violations = []
    for i, pi in enumerate(s.perms):
        order = cyclic.h_stabilizer_order(pi, n)
        if order != 1:
            violations.append(f"starter {i}: stabilizer order {order} (must be 1)")
    reps: dict[tuple, list[int]] = {}  # profile -> first starter of each orbit
    for i, (pi, t) in enumerate(zip(s.perms, profiles)):
        firsts = reps.setdefault(tuple(sorted(t.items())), [])
        j = next((j for j in firsts if tuple(pi) in cyclic.h_orbit(s.perms[j], n)), None)
        if j is None:
            firsts.append(i)
        else:
            violations.append(f"starters {j} and {i} share an H-orbit")
    for a, total in sorted(s.totals.items()):
        if total > s.lam:
            violations.append(f"t(M_{a}) = {total} exceeds lambda = {s.lam}")
    if n % 2 and s.orbit_b is None:
        violations.append("odd n but no orbit M_b with t(M_b) = 0")
    return violations


def assemble(s: StarterSet) -> MultiFactorization:
    """Build the full 1-factorization of lambda*K_2n from a starter set.

    Output: the H-orbit of every starter, the joined side block (lambda
    copies of each class), and lambda - T(a) copies of each M_a; except
    M_b, whose cross edges ride inside the joined block when n is odd.
    """
    counts = _factor_counts(s, s.lam, (1,) * s.m)
    # Every factor is canonical as cyclic builds it.
    mf = MultiFactorization(s.n, s.lam, tuple(sorted(counts.items())),
                            {"tag": "cyclic", "n": s.n})
    assert sum(counts.values()) == mf.expected_factor_count()
    return mf


def _factor_counts(s: StarterSet, lam: int, chosen) -> Counter:
    """Factor multiset of the orbit selection `chosen` (one bit per starter) at lam.

    The H-orbit of every chosen starter, lam copies of each joined factor
    and lam - cov(a) copies of each M_a but M_b, where cov sums the chosen
    profiles.  All bits set at lambda gives the assembly; a feasible
    selection at its lambda_0 gives a subfactorization of it.
    """
    n = s.n
    counts: Counter = Counter()
    cov: Counter = Counter()
    for bit, pi, t in zip(chosen, s.perms, s.profiles):
        if bit:
            counts.update(cyclic.orbit_factors(pi, n))
            cov.update(t)
    b = s.orbit_b if n % 2 else None
    for f in cyclic.join_even(n) if b is None else cyclic.join_odd(n, b):
        counts[f] += lam
    for a in range(n):
        loose = lam - cov[a]
        if a != b and loose:
            counts[cyclic.m_factor(n, a)] += loose
    return counts


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
        f = cyclic.cross_factor(shifted, n)
        for e in zip(f[0::2], f[1::2]):
            counts[e] = counts.get(e, 0) + 1
    for a in range(n):
        expected = t.get(a, 0)
        f = cyclic.m_factor(n, a)
        for e in zip(f[0::2], f[1::2]):
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
    order = _greedy_order_profiles(s.profiles)
    return None if order is None else tuple(order)


def _selections(n: int, lam: int, profiles):
    """The lambda_0 interval of every orbit selection x, in ascending bit order.

    Yields (x, lo, hi, lo_orbit, hi_orbit): the coverage equation of each
    orbit a forces cov_x(a) <= lambda_0 <= cov_x(a) + lambda - T(a), inside
    1 <= lambda_0 <= lambda - 1, and the binding orbits are the smallest to
    attain each bound (None when only the outer range binds).  Bit i of x
    is profile i, and x counts up with bit 0 lowest.  As T is the coverage
    of all profiles, cov_x + lambda - T = lambda - cov_y for the complement
    y of x, so hi and its orbit come from the largest entry of cov_y, as lo
    and its orbit come from that of cov_x.  An orbit with T(a) = 0, such as
    the joined orbit b of odd n, never binds.
    """
    covs = [[0] * n]
    for t in profiles:
        v = [0] * n
        for a, c in t.items():
            v[a] = c
        covs += [list(map(add, cov, v)) for cov in covs]
    peaks = []
    for cov in covs:
        top = max(cov)
        peaks.append((top, cov.index(top)) if top > 1 else (1, None))
    full = len(covs) - 1
    for bits, (lo, lo_orbit) in enumerate(peaks):
        top, hi_orbit = peaks[full - bits]
        yield (tuple(bits >> i & 1 for i in range(len(profiles))),
               lo, lam - top, lo_orbit, hi_orbit)


def certificate_indecomposable(s: StarterSet) -> Certificate:
    """Run the counting certificate over all orbit selections.

    Requires lambda >= 2 (at lambda = 1 there is nothing to certify) and a
    successful greedy ordering, otherwise OrderingFailed.  Status is
    "proven" iff every selection's lambda_0 interval is empty.
    """
    if s.lam < 2:
        raise ValueError("indecomposability certificate needs lambda >= 2")
    ordering = certificate_order(s)
    if ordering is None:
        raise OrderingFailed("greedy private-orbit ordering did not close")
    trace = tuple(
        TraceEntry(x, "infeasible" if lo > hi else "feasible", lo, hi,
                   lo_orbit, hi_orbit)
        for x, lo, hi, lo_orbit, hi_orbit in _selections(s.n, s.lam,
                                                          s.profiles))
    status = UNKNOWN if any(e.status == "feasible" for e in trace) else PROVEN
    return Certificate(status=status, ordering=ordering, trace=trace)


def find_starter(n: int, target: dict[int, int]) -> tuple[int, ...]:
    """A trivial-stabilizer permutation pi of Z_n with the given profile.

    Hall's exchange chain runs on the displacements of `target` sorted by
    value.  A stabilizer of order d > 1 makes every count a multiple of
    d, so when the counts have gcd 1 (every catalog profile has a
    singleton) the first chain answers; otherwise the chain reruns on the
    rotations d[r:] + d[:r], r = 1..n-1.  Raises ProfileSumInvalid when no
    permutation can have the profile, and InfeasibleProfile when no
    rotation gives a trivial stabilizer, which for n <= 12 happens
    exactly when exhaustive search finds no realization either.
    """
    if any(v < 0 for v in target.values()) or any(not 0 <= a < n for a in target):
        raise ProfileSumInvalid(f"profile entries outside Z_{n} or negative")
    if sum(target.values()) != n:
        raise ProfileSumInvalid(f"profile mass {sum(target.values())} != n = {n}")
    if sum(a * v for a, v in target.items()) % n != 0:
        raise ProfileSumInvalid("displacement sum not divisible by n")
    d = [a for a, v in sorted(target.items()) for _ in range(v)]
    for r in range(n):
        pi = _exchange_chain(d[r:] + d[:r], n)
        if cyclic.h_stabilizer_order(pi, n) == 1:
            return pi
    raise InfeasibleProfile(f"no trivial-stabilizer realization of {target}")


def _exchange_chain(d: list[int], limit: int) -> tuple[int, ...]:
    """M. Hall Jr.'s exchange chain: pi with pi(b[i]) - b[i] = d[i] for all i.

    d lists n elements of Z_n summing to 0 mod n.  Orderings b and c of
    Z_n start as the identity, and position n-1 is the sink.  Step k has
    position k ask for d[k]: the value it needs in c is swapped in from
    position j, and unless j is the sink, b[j] trades with the sink's
    value and position j asks again.  The sum condition makes the sink
    right.  A chain past `limit` steps raises ChainTooLong.
    """
    n = len(d)
    b, c, at = list(range(n)), list(range(n)), list(range(n))  # at[c[i]] = i
    want = [0] * n
    for k in range(n - 1):
        want[k] = d[k]
        p = k
        for _ in range(limit):
            j = at[(b[p] + want[p]) % n]
            if j == p:
                break
            c[p], c[j] = c[j], c[p]
            at[c[p]], at[c[j]] = p, j
            if j == n - 1:
                break
            b[j], b[-1] = b[-1], b[j]
            p = j
        else:
            raise ChainTooLong(f"exchange chain for d[{k}] passed {limit} steps")
    return tuple(y for _, y in sorted(zip(b, c)))


def find_profiles(n: int, slots) -> tuple[dict[int, int], ...]:
    """One starter profile per slot (p, q, g), in order.

    Slot (p, q, g) is the profile {0: p, 1: q, g: w, s: 1} with
    w = n - p - q - 1, so its mass is n, and s = -(q + g*w) mod n, the
    singleton that makes its displacement sum 0 mod n.  Counts on
    coinciding orbits add up and zero counts are dropped, so when
    p + q = n - 1 the slot has w = 0 and g is idle.  By M. Hall Jr.
    (Proc. AMS 3, 1952) any n elements of Z_n summing to 0 are the
    differences of two orderings of Z_n, so such a profile has a
    realization, and a singleton leaves it no nontrivial stabilizer.
    """
    out = []
    for p, q, g in slots:
        w = n - p - q - 1
        t: dict[int, int] = {}
        for a, v in ((0, p), (1, q), (g, w), (-(q + g * w) % n, 1)):
            t[a] = t.get(a, 0) + v
        out.append({a: v for a, v in sorted(t.items()) if v})
    return tuple(out)


def _greedy_order_profiles(profiles) -> list[tuple[int, int]] | None:
    """certificate_order on bare profile dicts."""
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
