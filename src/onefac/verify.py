"""Exhaustive decomposability search: exact multicover over the factor multiset.

A subfactorization taking every vertex pair exactly lambda_0 times is an
exact multicover by 1-factors.  As in Knuth's Algorithm M (TAOCP 4B,
7.2.2.1) the search branches on the uncovered pair with the least slack,
supply - need (ties to the lowest pair id), and picks a non-decreasing
multiset of factors through it until its need is 0.  A pair whose need
reaches 0 is covered at once: every remaining candidate through it dies,
which keeps supply exact, and a pair left short of supply prunes the
branch.  The branching order follows the factors, not the vertex labels.
Outcomes are kept strictly apart: a witness, a proof of absence (full
exhaustion), or a budget stop; the clock is read before each lambda_0
target and every 4096 nodes.

For a starter-set assembly, `certificate_witness` reads a witness straight
off the counting certificate's first feasible orbit selection, or returns
None when the certificate is proven.  Every witness, from either path, is
re-checked by `decomposability_witness_check`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from .core import MultiFactorization, validate_factorization
from . import cyclic
from .starters import StarterSet, assemble, certificate_indecomposable

FOUND = "found"
PROVEN_NONE = "proven_none"
EXHAUSTED = "exhausted"


class InvalidInput(ValueError):
    """Input factorization fails validation (or lambda < 2, or a bad budget)."""


@dataclass(frozen=True)
class Witness:
    """A proper subfactorization: lambda_0 and the chosen factor indices."""

    lambda0: int
    indices: tuple[int, ...]


@dataclass
class SearchBudget:
    max_nodes: int = 100_000_000
    max_seconds: float = 300.0

    def __post_init__(self):
        if not (self.max_nodes >= 0 and self.max_seconds >= 0):  # NaN fails too
            raise InvalidInput(f"{self} has a negative or NaN bound")


@dataclass
class SearchResult:
    outcome: str  # "found" | "proven_none" | "exhausted"
    witness: Witness | None = None
    nodes: int = 0
    elapsed: float = 0.0
    lambda0_exhausted: list[int] = field(default_factory=list)


class _BudgetStop(Exception):
    pass


def decomposability_witness_check(mf: MultiFactorization, w: Witness) -> bool:
    """Re-validate a witness by direct counting, independent of the search."""
    if not 0 < w.lambda0 < mf.lam:
        return False
    if len(w.indices) != w.lambda0 * (2 * mf.n - 1):
        return False
    if len(set(w.indices)) != len(w.indices):
        return False
    counts: dict[tuple[int, int], int] = {}
    for i in w.indices:
        if not 0 <= i < len(mf.factors):
            return False
        for e in mf.factors[i]:
            counts[e] = counts.get(e, 0) + 1
    nv = 2 * mf.n
    for u in range(nv):
        for v in range(u + 1, nv):
            if counts.get((u, v), 0) != w.lambda0:
                return False
    return True


def find_subfactorization(mf: MultiFactorization, lambda0: int | None = None,
                          budget: SearchBudget | None = None) -> SearchResult:
    """Find a proper subfactorization or prove that none exists.

    With `lambda0` given only that target is searched; otherwise targets
    run 1..lam//2 (a lambda_0 witness complements to a lam-lambda_0 one).
    Returns the first witness in deterministic order, PROVEN_NONE after
    full exhaustion of every target, or EXHAUSTED on budget stop.
    """
    if mf.lam < 2:
        raise InvalidInput("decomposability needs lambda >= 2")
    if not validate_factorization(mf).valid:
        raise InvalidInput("input is not a valid 1-factorization")
    budget = budget or SearchBudget()
    targets = [lambda0] if lambda0 is not None else list(range(1, mf.lam // 2 + 1))
    if lambda0 is not None and not 0 < lambda0 < mf.lam:
        raise InvalidInput(f"lambda0 = {lambda0} out of range")
    start = time.monotonic()
    total_nodes = 0
    exhausted: list[int] = []
    for target in targets:
        searcher = _MulticoverSearch(mf, target, budget, start, total_nodes)
        witness = None
        stopped = False
        try:
            witness = searcher.run()
        except _BudgetStop:
            stopped = True
        total_nodes = searcher.nodes
        if witness is not None:
            assert decomposability_witness_check(mf, witness)
            return SearchResult(FOUND, witness, total_nodes,
                                time.monotonic() - start)
        if stopped:
            exhausted.append(target)
    elapsed = time.monotonic() - start
    if exhausted:
        return SearchResult(EXHAUSTED, None, total_nodes, elapsed, exhausted)
    return SearchResult(PROVEN_NONE, None, total_nodes, elapsed)


class _MulticoverSearch:
    """Depth-first exact multicover for one lambda_0 target."""

    def __init__(self, mf, lambda0, budget, start, nodes0):
        self.mf = mf
        self.lambda0 = lambda0
        self.budget = budget
        self.start = start
        self.nodes = nodes0
        nv = 2 * mf.n
        uniq: list = []
        counts: list[int] = []
        self.copy_indices: list[list[int]] = []
        for i, f in enumerate(mf.factors):
            if uniq and uniq[-1] == f:
                counts[-1] += 1
                self.copy_indices[-1].append(i)
            else:
                uniq.append(f)
                counts.append(1)
                self.copy_indices.append([i])
        self.counts = counts
        self.edge_ids = [tuple(u * nv + v for u, v in f) for f in uniq]
        self.pairs = [u * nv + v for u in range(nv) for v in range(u + 1, nv)]
        self.by_pair: list[list[int]] = [[] for _ in range(nv * nv)]
        self.need = [0] * (nv * nv)
        self.supply = [0] * (nv * nv)
        for e in self.pairs:
            self.need[e] = lambda0
        for i, ids in enumerate(self.edge_ids):
            for e in ids:
                self.by_pair[e].append(i)
                self.supply[e] += counts[i]
        self.picks: list[int] = []

    def _out_of_time(self) -> bool:
        return time.monotonic() - self.start >= self.budget.max_seconds

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget.max_nodes:
            raise _BudgetStop()
        if self.nodes % 4096 == 0 and self._out_of_time():
            raise _BudgetStop()

    def run(self) -> Witness | None:
        if self._out_of_time():
            raise _BudgetStop()
        return self._next_pair()

    def _next_pair(self) -> Witness | None:
        """Branch on the uncovered pair with the least slack supply - need."""
        need, supply = self.need, self.supply
        best, best_slack = -1, 0
        for e in self.pairs:
            if need[e]:
                slack = supply[e] - need[e]
                if best < 0 or slack < best_slack:
                    best, best_slack = e, slack
                    if slack == 0:
                        break
        if best < 0:
            return self._make_witness()
        return self._pair(best, 0)

    def _pair(self, e: int, min_u: int) -> Witness | None:
        """Pick factors through pair e, non-decreasing in u, until e is covered."""
        need, supply, counts = self.need, self.supply, self.counts
        for u in self.by_pair[e]:
            if u < min_u or counts[u] == 0:
                continue
            self._tick()
            ids = self.edge_ids[u]
            counts[u] -= 1
            for f in ids:
                need[f] -= 1
                supply[f] -= 1
            # Cover every pair the pick finished: its other candidates die.
            killed = []
            ok = True
            for f in ids:
                if need[f] == 0:
                    for w in self.by_pair[f]:
                        c = counts[w]
                        if c:
                            killed.append((w, c))
                            counts[w] = 0
                            for g in self.edge_ids[w]:
                                supply[g] -= c
                                if supply[g] < need[g]:
                                    ok = False
            self.picks.append(u)
            result = None
            if ok:
                result = self._pair(e, u) if need[e] else self._next_pair()
            self.picks.pop()
            for w, c in reversed(killed):
                counts[w] = c
                for g in self.edge_ids[w]:
                    supply[g] += c
            for f in ids:
                need[f] += 1
                supply[f] += 1
            counts[u] += 1
            if result is not None:
                return result
        return None

    def _make_witness(self) -> Witness | None:
        if any(v != 0 for v in self.need):
            return None
        chosen: dict[int, int] = {}
        for u in self.picks:
            chosen[u] = chosen.get(u, 0) + 1
        indices: list[int] = []
        for u, k in chosen.items():
            indices.extend(self.copy_indices[u][:k])
        return Witness(self.lambda0, tuple(sorted(indices)))


def certificate_witness(s: StarterSet) -> Witness | None:
    """A subfactorization of assemble(s) read off the counting certificate.

    None when the certificate is proven.  Otherwise the first feasible
    selection x at lambda_0 = lo gives the witness: the starter orbits in
    x, lambda_0 copies of each joined factor and lambda_0 - cov_x(a) copies
    of each loose M_a.  It is re-checked by direct counting.  Raises
    OrderingFailed, like the certificate, when the ordering does not close.
    """
    cert = certificate_indecomposable(s)
    if cert.proven:
        return None
    entry = next(e for e in cert.trace if e.status == "feasible")
    n, lam0 = s.n, entry.lo
    b = s.orbit_b() if n % 2 else None
    used: Counter = Counter()
    cov: Counter = Counter()
    for chosen, pi, t in zip(entry.x, s.perms, s.profiles()):
        if chosen:
            used.update(cyclic.cross_factor(p, n) for p in cyclic.h_orbit(pi, n))
            cov.update(t)
    join = cyclic.join_even(n, 1) if b is None else cyclic.join_odd(n, 1, b)
    for f in set(join):
        used[f] += lam0
    for a in range(n):
        if a != b:
            used[cyclic.m_factor(n, a)] += lam0 - cov[a]
    mf = assemble(s)
    where: dict = {}
    for i, f in enumerate(mf.factors):
        where.setdefault(f, []).append(i)
    witness = Witness(lam0, tuple(sorted(
        i for f, k in used.items() for i in where.get(f, [])[:k])))
    assert decomposability_witness_check(mf, witness)
    return witness
