"""Batch command-line surface.

Commands: analyze, construct, search-rds, search-linked-system,
verify-linked, tables.  `analyze` exit codes: 0 uniform Higmanian,
1 Higmanian but not uniform, 2 not Higmanian, 3 unreadable/malformed file,
4 scheme-axiom failure, 5 internal verdict inconsistency or, with
--oracle, a float oracle that disagrees with the exact spectrum.  A
command-line usage error (a missing or unknown command or argument, or an
option value of the wrong type) exits 3 for every command, with the usage
text on stderr.  Every command also exits 3, with no message, when its
standard output is closed before it has written everything, as by
``| head``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

from . import constructions, higmanian, schemes
from .constructions import ConstructionError
from .groups import GroupError, build_family, digit_fault
from .higmanian import (NotHigmanianError, OracleError,
                        VerdictInconsistencyError)

EXIT_UNIFORM = 0
EXIT_NON_UNIFORM = 1
EXIT_NOT_HIGMANIAN = 2
EXIT_BAD_FILE = 3
EXIT_BAD_SCHEME = 4
EXIT_INCONSISTENT = 5


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3, not its own 2, which
    `analyze` uses for "not Higmanian"; subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_FILE, f"{self.prog}: error: {message}\n")


@dataclass
class AnalysisReport:
    input: str
    v: int = 0
    rank: int = 0
    parabolics: list = field(default_factory=list)
    higmanian: bool = False
    rejection: str | None = None
    params: tuple | None = None
    spectral: dict | None = None
    verdicts: dict | None = None
    verdict_details: dict | None = None
    consistent: bool | None = None
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)


def _verdict_details(bundle: higmanian.VerdictBundle) -> dict:
    return {name: {f"classes_of_{size}": asdict(res)
                   for size, res in details.items()}
            for name, details in (("definition", bundle.definition_details),
                                  ("dismantlable", bundle.dismantle_details))}


def _spectral_dict(bundle: higmanian.VerdictBundle) -> dict:
    eigen = bundle.eigen
    x1, x3 = eigen.P[1][2], eigen.P[3][2]
    return {
        "D": x1.D,
        "x1": str(x1),
        "x3": str(x3),
        "multiplicities": [str(m) for m in eigen.multiplicities],
        "valencies": list(eigen.valencies),
        "q_higmanian": bundle.q_higmanian,
        "q_certificates": [
            {"ordering": list(ordering), "l": l, "f": f}
            for ordering, l, f in bundle.q_certificates],
        "rhs_candidates": [str(c) for c in bundle.rhs_candidates],
    }


def analyze_scheme(scheme: schemes.SchemeTable, descriptor: str,
                   oracle: bool = False) -> tuple[AnalysisReport, int]:
    """Shared analysis driver for the CLI and the library."""
    report = AnalysisReport(input=descriptor, v=scheme.v, rank=scheme.rank)
    t0 = time.perf_counter()
    if scheme.rank <= schemes.PARABOLIC_RANK_LIMIT:
        for parab in schemes.parabolics(scheme):
            report.parabolics.append({
                "classes": parab.num_classes,
                "class_size": parab.n_class,
                "colors": sorted(parab.colors)})
    report.timings["parabolics_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        bundle = higmanian.verdict_bundle(scheme, oracle=oracle)
    except NotHigmanianError as exc:
        report.rejection = str(exc)
        return report, EXIT_NOT_HIGMANIAN
    except VerdictInconsistencyError as exc:
        bundle = exc.bundle
    report.timings["verdicts_s"] = time.perf_counter() - t0
    report.higmanian = True
    report.params = bundle.params.astuple()
    report.verdicts = {
        "criterion": bundle.criterion, "definition": bundle.definition,
        "q_higmanian": bundle.q_higmanian, "dismantlable": bundle.dismantlable}
    report.verdict_details = _verdict_details(bundle)
    report.consistent = bundle.consistent
    report.spectral = _spectral_dict(bundle)
    if not bundle.consistent:
        return report, EXIT_INCONSISTENT
    if bundle.oracle is not None:
        report.spectral["oracle_max_abs_error"] = bundle.oracle.max_abs_error
    return report, EXIT_UNIFORM if bundle.uniform else EXIT_NON_UNIFORM


def _print_report(report: AnalysisReport, as_json: bool) -> None:
    if as_json:
        print(report.to_json())
        return
    print(f"input: {report.input}")
    print(f"points: {report.v}  rank: {report.rank}")
    if report.parabolics:
        parts = ", ".join(
            f"{p['classes']}x{p['class_size']} (colors {p['colors']})"
            for p in report.parabolics)
        print(f"parabolics: {parts}")
    if not report.higmanian:
        print(f"not Higmanian: {report.rejection}")
        return
    print(f"Higmanian parameters (f,m,n,k,t): {report.params}")
    sp = report.spectral or {}
    print(f"eigenvalues: x1 = {sp.get('x1')}, x3 = {sp.get('x3')} "
          f"(D = {sp.get('D')})")
    print(f"multiplicities: {sp.get('multiplicities')}")
    if "oracle_max_abs_error" in sp:
        print(f"oracle: max |P_float - P| = {sp['oracle_max_abs_error']:.3g}")
    print(f"criterion right-hand sides: {sp.get('rhs_candidates')}")
    v = report.verdicts or {}
    print("verdicts: " + "  ".join(f"{k}={v[k]}" for k in sorted(v)))
    if report.consistent is False:
        print("FATAL: verdicts disagree")
    elif v.get("criterion"):
        print("uniform: yes (all four routes agree)")
    else:
        print("uniform: no (all four routes agree)")


def cmd_analyze(args) -> int:
    try:
        scheme = schemes.read_scheme(args.file)
    except (OSError, schemes.SchemeParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except schemes.SchemeError as exc:
        print(f"not a scheme: {exc}", file=sys.stderr)
        return EXIT_BAD_SCHEME
    try:
        report, code = analyze_scheme(scheme, args.file, oracle=args.oracle)
    except OracleError as exc:
        print(f"error: oracle: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    _print_report(report, args.json)
    return code


def cmd_construct(args) -> int:
    family = args.family.lower()
    names = constructions.FAMILY_PARAMS.get(family)
    if names is None:
        print(f"error: unknown family {args.family!r} (expected "
              f"{' | '.join(constructions.FAMILY_PARAMS)})", file=sys.stderr)
        return EXIT_BAD_FILE
    try:
        if len(args.params) != len(names):
            usage = " ".join(f"<{name}>" for name in names)
            raise ConstructionError(f"usage: construct {family} {usage}")
        con = constructions.construct_family(
            family, **dict(zip(names, args.params)))
        out = args.output or _default_scheme_name(family, args.params)
        schemes.write_scheme(con.result.scheme, out)
    except (ConstructionError, GroupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE

    print(f"group: {con.result.group_name} (order {con.result.scheme.v})")
    print(f"linked system parameters: {con.system.params} "
          f"(formula {con.table1_expected}, "
          f"match: {'yes' if con.table1_match else 'NO'})")
    print(f"associate group: order {con.associate.order}, expected "
          f"{con.associate_expected_spec}, "
          f"match: {'yes' if con.associate_match else 'NO'}")
    print(f"detected parameters: {con.result.detection.params} "
          f"(formula {con.table2_expected}, "
          f"match: {'yes' if con.table2_match else 'NO'})")
    print(f"scheme written to {out}")
    ok = con.table1_match and con.table2_match and con.associate_match
    return 0 if ok else 1


def _default_scheme_name(family: str, params: list[int]) -> str:
    return family + "_" + "_".join(str(p) for p in params) + ".scheme"


def _parse_subgroup(G, spec: str):
    if spec == "center":
        return G.center()
    elements = spec.split(",")
    if any(map(digit_fault, elements)):
        raise GroupError(f"bad subgroup spec {spec!r}; use 'center' or "
                         f"comma-separated element indices")
    return G.subgroup(map(int, elements))


def cmd_search_rds(args) -> int:
    try:
        G = build_family(args.groupspec)
        N = _parse_subgroup(G, args.forbidden)
        found = constructions.search_semiregular_rds(G, N)
    except (GroupError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    for rds in found:
        print(" ".join(str(x) for x in rds))
    print(f"found {len(found)} semiregular RDS transversals in "
          f"{args.groupspec} relative to a subgroup of order {N.order}",
          file=sys.stderr)
    return 0


def cmd_search_linked(args) -> int:
    try:
        G = build_family(args.groupspec)
        N = _parse_subgroup(G, args.forbidden)
        system = constructions.search_linked_system(G, N, args.w)
        if system is not None and args.output:
            constructions.write_linked_system(system, args.output)
    except (GroupError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    if system is None:
        print("no closed linked system found", file=sys.stderr)
        return 1
    _print_linked(system)
    if args.output:
        print(f"written to {args.output}")
    return 0


def _print_linked(system) -> None:
    print(f"parameters (m,n,k,lambda,w,mu,nu): {system.params}")
    print(f"sign branch of (mu, nu): {system.branch or 'n/a'}")
    for i, s in enumerate(system.sets):
        print(f"X_{i}: {' '.join(str(x) for x in s)}")
    print(f"chi: {list(system.chi)}")
    try:
        assoc = constructions.associate_group(system)
    except ConstructionError as exc:
        print(f"associate group: n/a ({exc})")
        return
    print(f"associate group: order {assoc.order}, "
          f"abelian: {assoc.is_abelian()}, "
          f"element orders {sorted(assoc.element_orders())}")


def cmd_verify_linked(args) -> int:
    try:
        system = constructions.read_linked_system(args.file)
    except (OSError, GroupError, constructions.FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except ConstructionError as exc:
        print(f"invalid linked system: {exc}", file=sys.stderr)
        return EXIT_BAD_SCHEME
    _print_linked(system)
    return 0


TABLE_GRID = (
    ("q8cp", None, 1, None),
    ("q8cp", None, 2, None),
    ("q8cp", None, 3, None),
    ("heis", 3, 1, None),
    ("heis", 3, 2, None),
    ("heis", 5, 1, None),
    ("ea", 2, 1, 1),
    ("ea", 3, 1, 1),
    ("ea", 4, 1, 2),
    ("ea", 9, 1, 1),
)


def _point_label(family, q, r, j) -> str:
    bits = [family]
    if q is not None:
        bits.append(f"q={q}")
    if r is not None:
        bits.append(f"r={r}")
    if j is not None:
        bits.append(f"j={j}")
    return " ".join(bits)


def cmd_tables(args) -> int:
    failures = 0
    for family, q, r, j in TABLE_GRID:
        label = _point_label(family, q, r, j)
        try:
            con = constructions.construct_family(family, q=q, r=r, j=j)
        except (ConstructionError, GroupError) as exc:
            print(f"{label}: SKIP ({exc})")
            continue
        try:
            bundle = higmanian.verdict_bundle(con.result.scheme)
        except VerdictInconsistencyError as exc:
            bundle = exc.bundle
        ok = (con.table1_match and con.table2_match and con.associate_match
              and bundle.consistent and bundle.uniform)
        status = "match" if ok else "MISMATCH"
        print(f"{label}: {status}  linked {con.system.params} "
              f"(formula {con.table1_expected})  scheme "
              f"{con.result.detection.params.astuple()} "
              f"(formula {con.table2_expected.astuple()})  "
              f"group {con.result.group_name} order "
              f"{con.result.scheme.v}  uniform={bundle.uniform}")
        if not ok:
            failures += 1
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = _Parser(
        prog="higman",
        description="Construct and analyze Higmanian association schemes.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a scheme file")
    pa.add_argument("file")
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--oracle", action="store_true",
                    help="cross-check exact spectra numerically")
    pa.add_argument("--seed", type=int, default=0, help="accepted, no effect")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("construct", help="build a family instance")
    pc.add_argument("family", help="q8cp | heis | ea")
    pc.add_argument("params", type=int, nargs="*")
    pc.add_argument("-o", "--output")
    pc.set_defaults(func=cmd_construct)

    pr = sub.add_parser("search-rds", help="enumerate semiregular RDSs")
    pr.add_argument("groupspec")
    pr.add_argument("forbidden", help="'center' or comma-separated indices")
    pr.set_defaults(func=cmd_search_rds)

    pl = sub.add_parser("search-linked-system",
                        help="find a closed linked system")
    pl.add_argument("groupspec")
    pl.add_argument("forbidden")
    pl.add_argument("w", type=int)
    pl.add_argument("-o", "--output")
    pl.set_defaults(func=cmd_search_linked)

    pv = sub.add_parser("verify-linked", help="verify a linked-system file")
    pv.add_argument("file")
    pv.set_defaults(func=cmd_verify_linked)

    pt = sub.add_parser("tables", help="reproduce the parameter tables")
    pt.set_defaults(func=cmd_tables)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone, as with `| head`: what is still
        # buffered goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BAD_FILE
    return code


if __name__ == "__main__":
    sys.exit(main())
