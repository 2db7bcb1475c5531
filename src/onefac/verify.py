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
with its count.

The slack and the need of every pair are kept packed, one W-bit field per
pair with W = (lambda + 1).bit_length() + 1, in a single Python int each,
and every run has a packed vector with a 1 in the field of each of its
pairs.  A kill, its undo, the prune test and the least-slack query
are then a few big-int operations in C instead of a Python loop over
pairs.  The vectors take runs x pairs x W bits, so a document whose
vectors would pass `MAX_COUNTER_BYTES` is refused with `InvalidInput`
before anything is allocated.  The search is set up once per document,
each lambda_0 target resets only the counters, and the picks are kept on
an explicit stack, so a deep search costs no Python frames.  Outcomes are
kept strictly apart: a witness, a proof of absence (full exhaustion), or
a budget stop.  The clock is read after each packed vector the set-up
builds and at every node, so a budget is overrun by about one vector or
one node, whatever they cost.  A budget stop ends the search, with every
later target reported exhausted unsearched (every target, when it comes
in the set-up).

For a starter-set assembly, `certificate_witness` reads a witness straight
off the counting certificate's first feasible orbit selection, or returns
None when the certificate is proven.  Both paths count the copies they
take of each run, and every witness, the first copies of each run, is
re-checked by `decomposability_witness_check`, which validates the
chosen runs at those counts as a 1-factorization of lambda_0 K_2n.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import Counter, namedtuple
from itertools import accumulate
from operator import add, index

from .core import MultiFactorization, ValidityReport, pair_rows, validate_factorization
from .starters import (StarterSet, _factor_counts, assemble,
                       certificate_indecomposable)

# Above this size of packed run vectors the search is refused.  It admits
# the catalog's (300, 300) at about 269 MB and refuses (1000, 998), which
# would need about 8.2 GB.
MAX_COUNTER_BYTES = 2 ** 30

FOUND = "found"
PROVEN_NONE = "proven_none"
EXHAUSTED = "exhausted"


class InvalidInput(ValueError):
    """Input factorization fails validation (or lambda < 2, a bad budget,
    or packed counters past MAX_COUNTER_BYTES)."""


class Witness(namedtuple("Witness", "lambda0 indices")):
    """A proper subfactorization: lambda_0 and the positions (ints) of the
    chosen copies, where positions count each run's copies, in run order."""

    __slots__ = ()


class SearchBudget(namedtuple("SearchBudget", "max_nodes max_seconds",
                              defaults=(100_000_000, 300.0))):
    """Bounds on one search: max_nodes (int) and max_seconds (float)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.max_nodes >= 0 and self.max_seconds >= 0):  # NaN fails too
            raise InvalidInput(f"{self} has a negative or NaN bound")
        return self


class SearchResult(namedtuple("SearchResult",
                              "outcome witness nodes elapsed lambda0_exhausted")):
    """A search's outcome ("found", "proven_none" or "exhausted"), Witness or None,
    nodes, seconds elapsed and a list of the lambda_0 the budget cut short."""

    __slots__ = ()

    def __new__(cls, outcome, witness=None, nodes=0, elapsed=0.0, lambda0_exhausted=None):
        return super().__new__(cls, outcome, witness, nodes, elapsed,
                               [] if lambda0_exhausted is None else lambda0_exhausted)


class _BudgetStop(Exception):
    pass


def decomposability_witness_check(mf: MultiFactorization, w: Witness) -> bool:
    """True iff w is a proper subfactorization: the copies at its distinct
    positions form a valid 1-factorization of lambda_0 K_2n.

    Positions map to runs by the run starts, and the chosen runs are
    validated at their chosen counts by `validate_factorization`, which
    shares nothing with the search's packed counters.
    """
    starts = list(accumulate((k for _, k in mf.runs), initial=0))
    try:
        positions = list(map(index, w.indices))
    except TypeError:  # a position that is not an integer, such as 2.5
        return False
    if not 0 < w.lambda0 < mf.lam or len(set(positions)) != len(positions):
        return False
    if not all(0 <= i < starts[-1] for i in positions):
        return False
    chosen = Counter(bisect_right(starts, i) - 1 for i in positions)
    runs = tuple((mf.runs[r][0], k) for r, k in sorted(chosen.items()))
    return validate_factorization(MultiFactorization(mf.n, w.lambda0, runs)).valid


def find_subfactorization(mf: MultiFactorization, lambda0: int | None = None,
                          budget: SearchBudget | None = None, *,
                          validity: ValidityReport | None = None) -> SearchResult:
    """Find a proper subfactorization or prove that none exists.

    With `lambda0` given only that target is searched; otherwise targets
    run 1..lam//2 (a lambda_0 witness complements to a lam-lambda_0 one).
    Returns the first witness in deterministic order, PROVEN_NONE after
    full exhaustion of every target, or EXHAUSTED on budget stop.
    `validity` is `validate_factorization(mf)` when the caller already
    has it; otherwise it is computed here.  Raises InvalidInput, before
    validating, when the packed run vectors would pass MAX_COUNTER_BYTES
    or `lambda0` is outside 0 < lambda0 < lam.
    """
    check_searchable(mf)
    if lambda0 is not None and not 0 < lambda0 < mf.lam:
        raise InvalidInput(f"lambda0 = {lambda0} out of range")
    start = time.monotonic()  # validating is charged to max_seconds too
    if validity is None:
        validity = validate_factorization(mf)
    if not validity.valid:
        raise InvalidInput("input is not a valid 1-factorization")
    budget = budget or SearchBudget()
    targets = [lambda0] if lambda0 is not None else list(range(1, mf.lam // 2 + 1))
    try:
        searcher = _MulticoverSearch(mf, budget, start)
    except _BudgetStop:  # out of time while building the vectors: nothing searched
        return SearchResult(EXHAUSTED, None, 0, time.monotonic() - start, targets)
    for k, target in enumerate(targets):
        try:
            taken = searcher.run(target)
        except _BudgetStop:
            # Every later target would stop on its first node: none is searched.
            return SearchResult(EXHAUSTED, None, searcher.nodes,
                                time.monotonic() - start, targets[k:])
        if taken is not None:
            return SearchResult(FOUND, _checked_witness(mf, target, taken), searcher.nodes,
                                time.monotonic() - start)
    return SearchResult(PROVEN_NONE, None, searcher.nodes, time.monotonic() - start)


def check_searchable(mf: MultiFactorization) -> None:
    """Raise InvalidInput when the search cannot take mf: lambda < 2, or
    packed run vectors past MAX_COUNTER_BYTES.  O(1), and nothing is
    allocated, so callers run it before validating."""
    if mf.lam < 2:
        raise InvalidInput("decomposability needs lambda >= 2")
    size = len(mf.runs) * mf.n * (2 * mf.n - 1) * _field_width(mf.lam) // 8
    if size > MAX_COUNTER_BYTES:
        raise InvalidInput(f"the search's packed counters need {size} bytes, "
                           f"more than MAX_COUNTER_BYTES = {MAX_COUNTER_BYTES}")


def _field_width(lam: int) -> int:
    """Bits per packed pair counter: B = 2^(W-1) exceeds lambda + 1; bit W-1 is the sign."""
    return (lam + 1).bit_length() + 1


class _MulticoverSearch:
    """Depth-first exact multicover over one document, run once per lambda_0 target.

    Vertex pairs u < v have dense ids in row-major order, and every
    per-pair counter of `run` is a W-bit field of one int, at bit W * id.
    `vecs[r]` has a 1 in the field of every pair of run r, so a pick, a
    kill, their undo, the prune test and the least-slack query each cost a
    few big-int operations, not a Python loop over pairs.  A search that
    finds nothing undoes all its picks, so the next target starts from the
    same counts.
    """

    def __init__(self, mf, budget, start):
        self.max_nodes = budget.max_nodes
        self.deadline = start + budget.max_seconds
        self.nodes = 0
        nv = 2 * mf.n
        self.lam = mf.lam
        self.npairs = mf.n * (nv - 1)
        self.width = _field_width(mf.lam)
        self.counts = [k for _, k in mf.runs]
        row = pair_rows(nv)
        self.pair_ids = [tuple(map(add, map(row.__getitem__, f[0::2]), f[1::2]))
                         for f, _ in mf.runs]
        self.by_pair: list[list[int]] = [[] for _ in range(self.npairs)]
        for r, ids in enumerate(self.pair_ids):
            for e in ids:
                self.by_pair[e].append(r)
        self.vecs = []
        for ids in self.pair_ids:
            self.vecs.append(self._packed(ids))
            if time.monotonic() >= self.deadline:
                raise _BudgetStop()
        self.ones = self._packed(range(self.npairs))

    def _packed(self, ids) -> int:
        """The int with a 1 in the field of every pair in ids.

        Built in a bytearray: a sum of shifted bits would cost the int's
        size per pair.
        """
        w = self.width
        buf = bytearray((self.npairs * w + 7) // 8)
        for e in ids:
            bit = e * w
            buf[bit >> 3] |= 1 << (bit & 7)
        return int.from_bytes(buf, "little")

    def run(self, lambda0: int) -> list[int] | None:
        """Copies per run of the first witness at lambda0 in branching order, or None.

        Branches on the uncovered pair with the least slack, supply - need
        (ties to the lowest pair id), and picks factors through it,
        non-decreasing in run id, until that pair is covered, then branches
        again.  The stack holds one (pair, position in by_pair[pair],
        killed) entry per pick, where killed lists the (run, count)
        candidates the pick covered away.  Raises _BudgetStop at the node
        that passes max_nodes or finds the clock at the deadline; the
        clock is read at every node.

        With B = 2^(W-1), above every slack and need, S holds slack + B and
        N holds need + B - 1 in each field, so no field borrows from the
        next.  The top bit of a field (mask `top`) is set in S exactly when
        its slack is >= 0, in N exactly when its need is > 0, and in
        S - t * ones (0 < t <= B) exactly when its slack is >= t, given
        that no slack is negative, which the prune test keeps at every
        query.  So the least slack of an uncovered pair is t - 1 for the
        least t at which S - t * ones clears the top bit of an uncovered
        pair.  The query probes t = 1, then doubles t up to B and bisects,
        so a least slack k costs about 2 log2(k) probes, not k + 1.  The
        plain list `need` finds the pairs a pick finishes without walking
        N's bits.
        """
        counts, vecs = self.counts, self.vecs
        by_pair, pair_ids = self.by_pair, self.pair_ids
        nodes, max_nodes = self.nodes, self.max_nodes
        clock, deadline = time.monotonic, self.deadline
        w, ones = self.width, self.ones
        bias = 1 << (w - 1)
        steps = [ones << j for j in range(w)]  # 2^j in every field
        top = steps[-1]  # bias in every field
        S = (self.lam - lambda0 + bias) * ones
        N = (lambda0 + bias - 1) * ones
        need = [lambda0] * self.npairs
        stack: list[tuple[int, int, list]] = []
        e = -1  # branch anew on the least-slack pair
        while True:
            if e < 0:
                uncovered = N & top
                if not uncovered:
                    break
                s = S - ones
                if not (hit := uncovered ^ (uncovered & s)):
                    # s = S - t * ones misses every uncovered pair: double t
                    # until a probe hits, then bisect below that probe, keeping
                    # s at the largest miss and hit at the least hit so far.
                    j = 0
                    while not (hit := uncovered ^ (uncovered & (probe := s - steps[j]))):
                        s, j = probe, j + 1
                    for j in range(j - 1, -1, -1):
                        if low := uncovered ^ (uncovered & (probe := s - steps[j])):
                            hit = low
                        else:
                            s = probe
                e, i = ((hit & -hit).bit_length() - 1) // w, 0
            cands = by_pair[e]
            while i < len(cands) and not counts[cands[i]]:
                i += 1
            if i < len(cands):
                nodes += 1
                if nodes > max_nodes or clock() >= deadline:
                    self.nodes = nodes
                    raise _BudgetStop()
                u = cands[i]
                counts[u] -= 1
                N -= vecs[u]  # supply drops with need: no slack changes
                # Cover every pair the pick finished: its other candidates die.
                killed = []
                for f in pair_ids[u]:
                    left = need[f] - 1
                    need[f] = left
                    if not left:
                        for v in by_pair[f]:
                            c = counts[v]
                            if c:
                                killed.append((v, c))
                                counts[v] = 0
                                # Most counts are 1, and c * vecs[v] would copy the vector.
                                S -= vecs[v] if c == 1 else c * vecs[v]
                stack.append((e, i, killed))
                if not killed or S & top == top:
                    # Pick again through e from this candidate on, or branch anew.
                    if not need[e]:
                        e = -1
                    continue
            elif not stack:
                self.nodes = nodes
                return None
            # Undo the latest pick and move past it.
            e, i, killed = stack.pop()
            u = by_pair[e][i]
            for v, c in killed:
                counts[v] = c
                S += vecs[v] if c == 1 else c * vecs[v]
            for f in pair_ids[u]:
                need[f] += 1
            N += vecs[u]
            counts[u] += 1
            i += 1
        self.nodes = nodes
        chosen = Counter(by_pair[p][j] for p, j, _ in stack)
        return [chosen[r] for r in range(len(counts))]


def certificate_witness(s: StarterSet) -> Witness | None:
    """A subfactorization of assemble(s) read off the counting certificate.

    None when the certificate is proven.  Otherwise the first feasible
    selection x at lambda_0 = lo gives the witness: the starter orbits in
    x, lambda_0 copies of each joined factor and lambda_0 - cov_x(a) copies
    of each loose M_a.  It is re-checked by validation.  Raises
    OrderingFailed, like the certificate, when the ordering does not close.
    """
    cert = certificate_indecomposable(s)
    if cert.proven:
        return None
    entry = next(e for e in cert.trace if e.status == "feasible")
    lam0 = entry.lo
    used = _factor_counts(s, lam0, entry.x)
    mf = assemble(s)
    return _checked_witness(mf, lam0, [used[f] for f, _ in mf.runs])


def _checked_witness(mf: MultiFactorization, lambda0: int, taken: list[int]) -> Witness:
    """The Witness of the first taken[r] copies of each run r, re-checked
    independently; an explicit raise, so `python -O` keeps the check."""
    starts = accumulate((k for _, k in mf.runs), initial=0)
    witness = Witness(lambda0, tuple(
        i for start, t in zip(starts, taken) for i in range(start, start + t)))
    if not decomposability_witness_check(mf, witness):
        raise AssertionError(f"witness at lambda0 = {lambda0} fails its re-check")
    return witness
