"""The benchmark's workloads: their inputs, the timed step per case, and its checks.

Each workload is a list of cases made by `prepare`; `run_round` times
every case through the package's public functions and then checks its
output with `checks`, outside the timed interval.  The cases are:

* grid   - every (n, lambda) the catalog serves for n = 5..14;
* strip  - every lambda the catalog serves at n = STRIP_N;
* field  - the affine-orbit family at the (p, m) in FIELD;
* verify - documents with a known decomposability verdict, each also
           under a vertex relabeling.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from math import ceil
from pathlib import Path

from onefac import core, docio, families, gf, starters, verify

import checks

GRID_NS = range(5, 15)
STRIP_N = 23
# q = 27, 43, 49, 81: m = 1 and m > 1 mixed; q = 81 takes most of the
# round.  No case is under 0.2 s, so the median case is not lost in noise,
# and at least two rounds fit in a 30 s run at the slowest speed seen.
FIELD = ((3, 3), (43, 1), (7, 2), (3, 4))
VERIFY_GF = ((3, 2), (11, 1))
VERIFY_MAX = 9  # catalog documents and unions with n <= 9 and lambda <= 9
# The relabelings come from this fixed workload seed, not from --seed: one
# relabeling of GF q = 11 can cost anywhere from 2e3 to 5e5 nodes, so a
# per-run draw would make verify's run-to-run spread exceed any bound.
RELABEL_SEED = 1
MAX_NODES = 5_000_000
BUDGET = verify.SearchBudget(max_nodes=MAX_NODES, max_seconds=float("inf"))


class CaseFailed(Exception):
    """The program did not deliver an output for this case."""


def served_lambdas(n: int) -> list[int]:
    """The paper's catalog strip at n: low lambdas from ceil((n-2)/3),
    n-1 and n from n = 7, and up to 2n from n = 9."""
    lams = list(range(max(2, ceil((n - 2) / 3)), n - 1))
    if n >= 7:
        lams += [n - 1, n]
    if n >= 9:
        lams += list(range(n + 1, 2 * n + 1))
    return lams


class Round:
    """What one pass over a workload's cases measured and found."""

    def __init__(self):
        self.case_s: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        self.search_nodes = 0
        self.counts: Counter = Counter()


def prepare(workload: str, seed: int, workdir: Path, rnd: Round) -> list:
    """The workload's cases, in an order drawn from `seed`."""
    if workload == "grid":
        cases = [(n, lam) for n in GRID_NS for lam in served_lambdas(n)]
    elif workload == "strip":
        cases = [(STRIP_N, lam) for lam in served_lambdas(STRIP_N)]
    elif workload == "field":
        cases = list(FIELD)
    elif workload == "verify":
        cases = write_verify_documents(workdir, rnd)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(cases)
    return cases


def run_round(workload: str, cases: list, rnd: Round, clock) -> None:
    """Times every case with `clock`; a case that fails keeps its time, so
    that failing fast does not read as running fast."""
    step, check = STEPS[workload]
    for case in cases:
        rnd.attempted += 1
        start = clock()
        try:
            out = step(case)
        except Exception as exc:  # a failed case is counted, the round goes on
            out = None
            rnd.failures.append(f"{case}: {type(exc).__name__}: {exc}")
        rnd.case_s[str(case[0] if workload == "verify" else case)] = clock() - start
        if out is None:
            continue
        rnd.errors.extend(f"{case}: {e}" for e in check(case, out, rnd))
        # Start the next case without this one's output on the heap, so the
        # case order does not change what the collector has to walk.
        del out
        gc.collect()


def catalog_step(case):
    n, lam = case
    p = families.plan(n, lam)
    mf = starters.assemble(p.starter_set)
    report = core.validate_factorization(mf)
    cert = starters.certificate_indecomposable(p.starter_set)
    doc = docio.document_from_mf(mf)
    text = docio.serialize(doc)
    parsed = docio.parse(text)
    back = docio.mf_from_document(parsed)
    return p, mf, report, cert, doc, text, parsed, back


def catalog_check(case, out, rnd: Round) -> list[str]:
    n, lam = case
    p, mf, report, cert, doc, text, parsed, back = out
    errors = checks.factorization_errors(n, lam, mf.factors)
    if not report.valid:
        errors.append("validate_factorization reports invalid")
    if checks.repeated_factors(mf.factors) == 0:
        errors.append("catalog output is simple")
    if cert.status != "proven":
        errors.append(f"certificate is {cert.status}")
    if parsed != doc or back != mf:
        errors.append("serialize and parse do not give the original back")
    rnd.counts["starters_kept"] += p.starter_set.m
    rnd.counts["assembled_factors"] += len(mf.factors)
    rnd.counts["selections"] += len(cert.trace)
    rnd.counts["docio_bytes"] += 2 * len(text)
    rnd.search_nodes += len(cert.trace)
    return errors


def field_step(case):
    p, m = case
    mf = gf.agl_orbit_factorization(gf.field_ctx(p, m))
    report = core.validate_factorization(mf)
    simple, _ = core.is_simple(mf)
    return mf, report, simple


def field_check(case, out, rnd: Round) -> list[str]:
    p, m = case
    q = p ** m
    mf, report, simple = out
    if (mf.n, mf.lam) != ((q + 1) // 2, (q - 1) // 2):
        return [f"(n, lambda) = ({mf.n}, {mf.lam}), expected ({(q + 1) // 2}, {(q - 1) // 2})"]
    errors = checks.factorization_errors(mf.n, mf.lam, mf.factors)
    # q(q-1)/2 distinct factors from q(q-1) maps: a stabilizer of order 2.
    if len(mf.factors) != q * (q - 1) // 2:
        errors.append(f"{len(mf.factors)} factors, expected q(q-1)/2")
    if checks.repeated_factors(mf.factors) or not simple:
        errors.append("field output is not simple")
    if not report.valid:
        errors.append("validate_factorization reports invalid")
    errors += checks.translation_errors(p, m, mf.factors)
    rnd.counts["gf_factors"] += len(mf.factors)
    rnd.search_nodes += q * (q - 1)
    return errors


def write_verify_documents(workdir: Path, rnd: Round, relabel_seed=RELABEL_SEED) -> list:
    """Build the verify documents and write them; returns the cases.

    GF q = 9, 11 and the catalog instances are indecomposable; a union of
    two catalog factorizations of one n is decomposable by construction.
    Every document is written a second time under a vertex relabeling.
    """
    built = []
    for p, m in VERIFY_GF:
        mf = gf.agl_orbit_factorization(gf.field_ctx(p, m))
        rnd.counts["gf_factors"] += len(mf.factors)
        built.append((f"gf{p ** m}", mf, verify.PROVEN_NONE))
    for n in range(5, VERIFY_MAX + 1):
        cat = {lam: families.construct(n, lam)
               for lam in served_lambdas(n) if lam <= VERIFY_MAX}
        built += [(f"cat{n}_{lam}", mf, verify.PROVEN_NONE) for lam, mf in cat.items()]
        built += [(f"union{n}_{lam}_{lam + 1}",
                   core.MultiFactorization.make(n, 2 * lam + 1,
                                                a.factors + cat[lam + 1].factors, a.model),
                   verify.FOUND)
                  for lam, a in cat.items() if lam + 1 in cat and 2 * lam + 1 <= VERIFY_MAX]
    for name, mf, expected in list(built):
        perm = list(range(2 * mf.n))
        random.Random(f"{relabel_seed}/{name}").shuffle(perm)
        moved = [[(perm[u], perm[v]) for u, v in f] for f in mf.factors]
        built.append((name + "~", core.MultiFactorization.make(
            mf.n, mf.lam, moved, {"tag": "plain"}), expected))
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for name, mf, expected in built:
        text = docio.serialize(docio.document_from_mf(mf))
        rnd.counts["docio_bytes"] += len(text)
        path = workdir / f"{name}.json"
        path.write_text(text)
        cases.append((name, path, expected))
    return cases


def verify_step(case):
    _, path, _ = case
    text = path.read_text()
    mf = docio.mf_from_document(docio.parse(text))
    result = verify.find_subfactorization(mf, budget=BUDGET)
    if result.outcome == verify.EXHAUSTED:
        raise CaseFailed(f"search budget of {MAX_NODES} nodes exhausted")
    return len(text), mf, result


def verify_check(case, out, rnd: Round) -> list[str]:
    name, _, expected = case
    size, mf, result = out
    rnd.counts["docio_bytes"] += size
    rnd.counts["verify_nodes"] += result.nodes
    rnd.search_nodes += result.nodes
    # A relabeled copy ("~") has the same known verdict as its original, so
    # this also checks that the two verdicts agree.
    if result.outcome != expected:
        return [f"verdict {result.outcome}, expected {expected}"]
    if result.outcome == verify.FOUND:
        w = result.witness
        return checks.witness_errors(mf.n, mf.lam, mf.factors, w.lambda0, w.indices)
    return []


STEPS = {
    "grid": (catalog_step, catalog_check),
    "strip": (catalog_step, catalog_check),
    "field": (field_step, field_check),
    "verify": (verify_step, verify_check),
}
