"""Exhaustive decomposability search: exact multicover over the factor multiset.

A subfactorization taking every vertex pair exactly lambda_0 times is an
exact multicover by 1-factors.  As in Knuth's Algorithm M (TAOCP 4B,
7.2.2.1) the search branches on the uncovered pair with the least slack,
supply - need (ties to the lowest pair id), and picks a non-decreasing
multiset of factors through it until its need is 0.  A pair whose need
reaches 0 is covered at once: every remaining candidate through it dies,
which keeps supply exact, and a pair left short of supply prunes the
branch.  The branching order follows the factors, not the vertex labels.
The candidates are the distinct factors (`MultiFactorization.runs`), each
with its count.  The search is set up once per document, each
lambda_0 target resets only the need, and the picks are kept on an
explicit stack, so a deep search costs no Python frames.  Outcomes are
kept strictly apart: a witness, a proof of absence (full exhaustion), or
a budget stop; the clock is read before each lambda_0 target and every
4096 nodes, and a budget stop ends the search, with every later target
reported exhausted unsearched.

For a starter-set assembly, `certificate_witness` reads a witness straight
off the counting certificate's first feasible orbit selection, or returns
None when the certificate is proven.  Every witness, from either path, is
re-checked by `decomposability_witness_check`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from .core import MultiFactorization, ValidityReport, validate_factorization
from .starters import (StarterSet, _factor_counts, assemble,
                       certificate_indecomposable)

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
                          budget: SearchBudget | None = None, *,
                          validity: ValidityReport | None = None) -> SearchResult:
    """Find a proper subfactorization or prove that none exists.

    With `lambda0` given only that target is searched; otherwise targets
    run 1..lam//2 (a lambda_0 witness complements to a lam-lambda_0 one).
    Returns the first witness in deterministic order, PROVEN_NONE after
    full exhaustion of every target, or EXHAUSTED on budget stop.
    `validity` is `validate_factorization(mf)` when the caller already
    has it; otherwise it is computed here.
    """
    if mf.lam < 2:
        raise InvalidInput("decomposability needs lambda >= 2")
    if validity is None:
        validity = validate_factorization(mf)
    if not validity.valid:
        raise InvalidInput("input is not a valid 1-factorization")
    budget = budget or SearchBudget()
    targets = [lambda0] if lambda0 is not None else list(range(1, mf.lam // 2 + 1))
    if lambda0 is not None and not 0 < lambda0 < mf.lam:
        raise InvalidInput(f"lambda0 = {lambda0} out of range")
    start = time.monotonic()
    searcher = _MulticoverSearch(mf, budget, start)
    for k, target in enumerate(targets):
        try:
            witness = searcher.run(target)
        except _BudgetStop:
            # Every later target would stop on its first node: none is searched.
            return SearchResult(EXHAUSTED, None, searcher.nodes,
                                time.monotonic() - start, targets[k:])
        if witness is not None:
            assert decomposability_witness_check(mf, witness)
            return SearchResult(FOUND, witness, searcher.nodes,
                                time.monotonic() - start)
    return SearchResult(PROVEN_NONE, None, searcher.nodes, time.monotonic() - start)


class _MulticoverSearch:
    """Depth-first exact multicover over one document, run once per lambda_0 target.

    A search that finds nothing undoes all its picks, so the next target
    only resets `need`.
    """

    def __init__(self, mf, budget, start):
        self.budget = budget
        self.start = start
        self.nodes = 0
        nv = 2 * mf.n
        self.counts = [k for _, k in mf.runs]
        self.firsts = list(accumulate(self.counts, initial=0))
        self.edge_ids = [tuple(u * nv + v for u, v in f) for f, _ in mf.runs]
        self.pairs = [u * nv + v for u in range(nv) for v in range(u + 1, nv)]
        self.by_pair: list[list[int]] = [[] for _ in range(nv * nv)]
        self.need = [0] * (nv * nv)
        self.supply = [0] * (nv * nv)
        for i, ids in enumerate(self.edge_ids):
            for e in ids:
                self.by_pair[e].append(i)
                self.supply[e] += self.counts[i]

    def _out_of_time(self) -> bool:
        return time.monotonic() - self.start >= self.budget.max_seconds

    def _least_slack_pair(self) -> int:
        """The uncovered pair with the least slack supply - need, or -1."""
        need, supply = self.need, self.supply
        best, best_slack = -1, 0
        for e in self.pairs:
            if need[e]:
                slack = supply[e] - need[e]
                if best < 0 or slack < best_slack:
                    best, best_slack = e, slack
                    if slack == 0:
                        break
        return best

    def run(self, lambda0: int) -> Witness | None:
        """The first witness at lambda0 in branching order, or None.

        Picks factors through the least-slack pair, non-decreasing in run
        id, until that pair is covered, then branches again.  The stack
        holds one (pair, position in by_pair[pair], killed) entry per pick,
        where killed lists the (run, count) candidates the pick covered
        away.  Raises _BudgetStop on the node or time budget.
        """
        if self._out_of_time():
            raise _BudgetStop()
        need, supply, counts = self.need, self.supply, self.counts
        by_pair, edge_ids, budget = self.by_pair, self.edge_ids, self.budget
        for e in self.pairs:
            need[e] = lambda0
        stack: list[tuple[int, int, list]] = []
        e, i = self._least_slack_pair(), 0
        while e >= 0:
            cands = by_pair[e]
            while i < len(cands) and not counts[cands[i]]:
                i += 1
            if i < len(cands):
                self.nodes += 1
                if self.nodes > budget.max_nodes or (
                        self.nodes % 4096 == 0 and self._out_of_time()):
                    raise _BudgetStop()
                u = cands[i]
                ids = edge_ids[u]
                counts[u] -= 1
                for f in ids:
                    need[f] -= 1
                    supply[f] -= 1
                # Cover every pair the pick finished: its other candidates die.
                killed = []
                ok = True
                for f in ids:
                    if need[f] == 0:
                        for w in by_pair[f]:
                            c = counts[w]
                            if c:
                                killed.append((w, c))
                                counts[w] = 0
                                for g in edge_ids[w]:
                                    supply[g] -= c
                                    if supply[g] < need[g]:
                                        ok = False
                stack.append((e, i, killed))
                if ok:
                    # Pick again through e from this candidate on, or branch anew.
                    if not need[e]:
                        e, i = self._least_slack_pair(), 0
                    continue
            elif not stack:
                return None
            # Undo the latest pick and move past it.
            e, i, killed = stack.pop()
            u = by_pair[e][i]
            for w, c in reversed(killed):
                counts[w] = c
                for g in edge_ids[w]:
                    supply[g] += c
            for f in edge_ids[u]:
                need[f] += 1
                supply[f] += 1
            counts[u] += 1
            i += 1
        chosen = Counter(by_pair[p][j] for p, j, _ in stack)
        return Witness(lambda0, tuple(sorted(
            j for u, k in chosen.items() for j in range(self.firsts[u], self.firsts[u] + k))))


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
    lam0 = entry.lo
    used = _factor_counts(s, lam0, entry.x)
    mf = assemble(s)
    starts = accumulate((k for _, k in mf.runs), initial=0)
    witness = Witness(lam0, tuple(
        i for (f, _), start in zip(mf.runs, starts) for i in range(start, start + used[f])))
    assert decomposability_witness_check(mf, witness)
    return witness
