"""Command-line front end.

Subcommands: `construct` writes a factorization document and prints a
summary line, `verify` runs requested checks on a document and emits a
JSON report, `coverage` prints the embedding provenance table, and
`selftest` runs the acceptance suite (and refuses to under `python -O`,
which strips its asserts).  Exit codes: 0 success, 1 some
requested check failed, 2 usage/parse/domain errors, 3 construction
failure, 4 decomposability search budget exhausted (`verify`).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import docio, gf, verify
from .core import is_simple, validate_factorization
from .families import (FAMILY_IDS, FamilyPlan, NoFamily, OutOfDomain,
                       STooSmall, StarterSearchFailed, coverage_table,
                       family_domain, plan)
from .starters import OrderingFailed, assemble

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_BUDGET = 4


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoFamily, OutOfDomain, STooSmall, docio.ParseError,
            verify.InvalidInput, gf.NotPrime, gf.EvenP, gf.BadDegree) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StarterSearchFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onefac",
        description="Construct and verify 1-factorizations of lambda*K_2n.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a factorization document")
    c.add_argument("--n", type=int, help="half the vertex count (cyclic families)")
    c.add_argument("--lambda", dest="lam", type=int, help="edge multiplicity")
    c.add_argument("--family", help="P1..P8, or t3 for the finite-field family")
    c.add_argument("--p", type=int, help="field characteristic (t3)")
    c.add_argument("--m", type=int, help="field extension degree (t3)")
    c.add_argument("--out", help="output path (document goes to stdout if omitted)")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="run checks on a factorization document")
    v.add_argument("path", help="document to verify")
    v.add_argument("--checks", default="validity,simple",
                   help="comma list: validity,simple,indecomposable")
    v.add_argument("--lambda0", type=int, default=None,
                   help="restrict the decomposability search to one target")
    budget = verify.SearchBudget()
    v.add_argument("--max-nodes", type=int, default=budget.max_nodes)
    v.add_argument("--max-seconds", type=float, default=budget.max_seconds)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("coverage", help="embedding provenance table")
    g.add_argument("--s", type=int, required=True)
    g.set_defaults(func=cmd_coverage)

    t = sub.add_parser("selftest", help="run the acceptance suite")
    t.add_argument("--scale", choices=("quick", "full"), default="quick")
    t.set_defaults(func=cmd_selftest)
    return parser


def cmd_construct(args) -> int:
    if args.family == "t3":
        if args.p is None or args.m is None:
            print("error: --family t3 needs --p and --m", file=sys.stderr)
            return EXIT_USAGE
        ctx = gf.field_ctx(args.p, args.m)
        mf = gf.agl_orbit_factorization(ctx)
        cert_note = "n/a"
    else:
        if args.n is None or args.lam is None:
            print("error: construct needs --n and --lambda", file=sys.stderr)
            return EXIT_USAGE
        # The families partition the strip, so a family in its domain is
        # the one `plan` picks.
        if args.family:
            if args.family not in FAMILY_IDS:
                print(f"error: unknown family {args.family!r}", file=sys.stderr)
                return EXIT_USAGE
            if not family_domain(args.family, args.n, args.lam):
                raise OutOfDomain(
                    f"{args.family} does not cover n={args.n}, lambda={args.lam}")
        p = plan(args.n, args.lam)
        mf = assemble(p.starter_set)
        cert_note = _cert_status(p)
    text = docio.serialize(docio.document_from_mf(mf))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        stream = sys.stdout
    else:
        sys.stdout.write(text)
        stream = sys.stderr
    report = validate_factorization(mf)
    simple, _ = is_simple(mf)
    print(f"factors={report.factor_count} valid={str(report.valid).lower()} "
          f"simple={str(simple).lower()} certificate={cert_note}", file=stream)
    return EXIT_OK


def _cert_status(p: FamilyPlan) -> str:
    try:
        return p.certificate().status
    except OrderingFailed:
        return "ordering-failed"


def cmd_verify(args) -> int:
    # The arguments are checked before the document is read: a bad one
    # costs no read of a large file and is not hidden by a parse error.
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not checks:
        print("error: --checks names no check", file=sys.stderr)
        return EXIT_USAGE
    unknown = set(checks) - {"validity", "simple", "indecomposable"}
    if unknown:
        print(f"error: unknown checks {sorted(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        budget = verify.SearchBudget(args.max_nodes, args.max_seconds)
    except verify.InvalidInput as exc:
        print(f"error: search budget: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    mf = docio.mf_from_document(docio.parse(text))
    if "indecomposable" in checks:
        verify.check_searchable(mf)  # O(1): a refused search costs no validation
    # One validation serves the validity check and the search's input check.
    validity = (validate_factorization(mf)
                if {"validity", "indecomposable"} & set(checks) else None)
    report: dict = {}
    exhausted = False
    for check in checks:
        if check == "validity":
            report["validity"] = "pass" if validity.valid else "fail"
            if not validity.valid:
                report["validity_errors"] = (
                    [[list(e), o, x] for e, o, x in validity.multiplicity_errors]
                    + [[i, reason] for i, reason in validity.factor_errors[:10]])
        elif check == "simple":
            simple, repeated = is_simple(mf)
            report["simple"] = "pass" if simple else "fail"
            if not simple:
                report["repeated_factors"] = len(repeated)
        elif check == "indecomposable":
            res = verify.find_subfactorization(mf, lambda0=args.lambda0,
                                               budget=budget, validity=validity)
            if res.outcome == verify.PROVEN_NONE:
                report["indecomposable"] = "pass"
            elif res.outcome == verify.FOUND:
                report["indecomposable"] = "fail"
                report["witness"] = {"lambda0": res.witness.lambda0,
                                     "indices": list(res.witness.indices)}
            else:
                report["indecomposable"] = "exhausted"
                report["lambda0_exhausted"] = res.lambda0_exhausted
                exhausted = True
            report["search_nodes"] = res.nodes
    print(json.dumps(report, sort_keys=True))
    if exhausted:
        return EXIT_BUDGET
    failed = any(report.get(c) != "pass" for c in checks)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_coverage(args) -> int:
    for entry in coverage_table(args.s):
        print(f"lambda={entry.lam} base_n={entry.n} family={entry.family}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    if not __debug__:  # python -O strips the assert statements that state each criterion
        print("error: selftest checks nothing under python -O; run it without -O",
              file=sys.stderr)
        return EXIT_USAGE
    from . import acceptance  # only here: it loads importlib.resources and typing
    names = acceptance.QUICK if args.scale == "quick" else acceptance.FULL
    results = acceptance.run(names)
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED
