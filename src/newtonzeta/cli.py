"""Command line front end.

Subcommands: ``zeta`` (both zeta functions of a deformation germ),
``diagram`` (per-index-set facet data), ``check`` (nondegeneracy report),
``oracle-compare`` (the two reduction identities, either on supplied germs
or as a seeded randomized suite).

Exit codes: 0 success, 1 input error (a malformed command line included),
2 nondegeneracy counterexample, 3 internal invariant violation (including a
failed reduction identity).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagram import _face_sign, diagram_facets, zeta_torus_and_full
from .factored import factor
from .germ import (
    ParseError,
    germ_from_json,
    germ_to_string,
    index_sets_with_zero,
    parse_germ,
    restrict_support,
    support,
)
from .lattice import InvariantViolation
from .nondegeneracy import COUNTEREXAMPLE, nondegeneracy_check
from .randomized import cayley_checks, cayley_suite, cone_checks, cone_suite

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    """A command line the parser rejects, with argparse's message."""


class _Parser(argparse.ArgumentParser):
    # argparse would exit with code 2, the code of a nondegeneracy
    # counterexample; subparsers inherit this class
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="newtonzeta",
        description="Monodromy zeta functions of one-parameter deformations "
                    "of hypersurface germs, from their Newton diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("--germ", help="germ as an expression or a JSON object")
        p.add_argument("--germ-file", help="file containing the germ "
                                           "(expression or JSON); stdin when "
                                           "neither flag is given")
        p.add_argument("--vars", help="comma-separated variable names, the "
                                      "deformation parameter first (required "
                                      "for expression input)")
        p.add_argument("--format", choices=("pretty", "json"),
                       default="pretty")

    p_zeta = sub.add_parser("zeta", help="compute both monodromy zeta functions")
    add_common(p_zeta, cmd_zeta)
    p_diag = sub.add_parser("diagram", help="list diagram facets per index set")
    add_common(p_diag, cmd_diagram)
    p_check = sub.add_parser("check", help="nondegeneracy report per face")
    add_common(p_check, cmd_check)
    p_oc = sub.add_parser("oracle-compare",
                          help="check the reduction identities")
    add_common(p_oc, cmd_oracle_compare)
    p_oc.add_argument("--mode", choices=("cone", "cayley", "both"),
                      default="both")
    p_oc.add_argument("--germ2", help="second germ (pencil denominator) "
                                      "for the cayley mode")
    p_oc.add_argument("--germ2-file")
    p_oc.add_argument("--seed", type=int,
                      help="run the seeded randomized suite instead of "
                           "checking supplied germs")
    return parser


def _read_text(inline, path, use_stdin_fallback=True):
    if inline is not None and path is not None:
        raise ValueError("give the germ inline or as a file, not both")
    if inline is not None:
        return inline
    if path is not None:
        return Path(path).read_text(encoding="utf-8")
    if not use_stdin_fallback:
        return None
    return sys.stdin.read()


def _var_names(args):
    if not args.vars:
        raise ValueError("--vars is required for expression input "
                         "(deformation parameter first)")
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    return names


def _germ_from_text(text, args):
    text = text.strip()
    if not text:
        raise ValueError("empty germ input")
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("JSON germ is nested too deeply") from None
        return germ_from_json(data)
    names = _var_names(args)
    return parse_germ(text, names), names


def _load_germ(args):
    return _germ_from_text(_read_text(args.germ, args.germ_file), args)


def _fmt_point(p) -> str:
    return "(" + ",".join(str(x) for x in p) + ")"


def _fmt_points(ps) -> str:
    return "{" + ", ".join(_fmt_point(p) for p in ps) + "}"


# ---------------------------------------------------------------------------
# subcommands

def _nondeg_json(report) -> dict:
    return {
        "status": report.status,
        "faces": [
            {
                "support": [list(p) for p in f.support_points],
                "dim": f.dim,
                "status": f.status,
                "witness": None if f.witness is None
                else [str(x) for x in f.witness],
                "detail": f.detail,
            }
            for f in report.faces
        ],
    }


def _fmt_witness(witness) -> str:
    return "(" + ", ".join(str(x) for x in witness) + ")"


def _warn_nondegeneracy(report):
    if report.unchecked:
        print(f"warning: {len(report.unchecked)} face(s) of dimension >= 2 "
              "left unchecked; the formulas assume nondegeneracy",
              file=sys.stderr)
    for f in report.counterexamples:
        where = f" at {_fmt_witness(f.witness)}" if f.witness is not None else ""
        print("warning: degenerate face "
              f"{_fmt_points(f.support_points)}{where}", file=sys.stderr)


def cmd_zeta(args) -> int:
    F, names = _load_germ(args)
    torus, affine = zeta_torus_and_full(F)
    report = nondegeneracy_check(F)
    if args.format == "json":
        print(json.dumps({
            "vars": names,
            "germ": germ_to_string(F, names),
            "torus": torus.as_json_dict(),
            "affine": affine.as_json_dict(),
            "nondegeneracy": _nondeg_json(report),
        }, indent=2))
    else:
        print(f"germ: {germ_to_string(F, names)}")
        print(f"zeta on the torus fibre:  {torus.pretty()}   "
              f"[degree {torus.degree()}]")
        print(f"zeta on the affine fibre: {affine.pretty()}   "
              f"[degree {affine.degree()}]")
        print(f"nondegeneracy: {report.status} ({len(report.faces)} faces)")
        _warn_nondegeneracy(report)
    return EXIT_COUNTEREXAMPLE if report.status == COUNTEREXAMPLE else EXIT_OK


def cmd_diagram(args) -> int:
    F, names = _load_germ(args)
    n = F.num_vars - 1
    rows = []
    for I in index_sets_with_zero(n):
        S = sorted(restrict_support(support(F), I))
        l = len(I) - 1
        sign = _face_sign(l)
        facets = []
        for fac in diagram_facets(F, I):
            facets.append({
                "normal": list(fac.normal),
                "m": fac.m,
                "nvol": fac.nvol,
                "sign": sign,
                "vertices": [list(v) for v in fac.vertices],
                "factor": {"m": fac.m, "e": sign * fac.nvol},
            })
        rows.append({"indices": list(I),
                     "support": [list(p) for p in S],
                     "facets": facets})
    if args.format == "json":
        print(json.dumps({"vars": names,
                          "germ": germ_to_string(F, names),
                          "index_sets": rows}, indent=2))
        return EXIT_OK
    print(f"germ: {germ_to_string(F, names)}")
    for row in rows:
        idx = "{" + ",".join(str(i) for i in row["indices"]) + "}"
        sup = _fmt_points(row["support"])
        print(f"I = {idx}: restricted support {sup}")
        if not row["facets"]:
            print("  no facets (factor 1)")
            continue
        for fac in row["facets"]:
            z = factor(fac["m"], fac["factor"]["e"])
            print(f"  facet normal {_fmt_point(fac['normal'])}: "
                  f"m {fac['m']}, nvol {fac['nvol']}, "
                  f"sign {fac['sign']:+d}, "
                  f"vertices {_fmt_points(fac['vertices'])}, "
                  f"factor {z.pretty()}")
    return EXIT_OK


def cmd_check(args) -> int:
    F, names = _load_germ(args)
    report = nondegeneracy_check(F)
    if args.format == "json":
        print(json.dumps({"vars": names,
                          "germ": germ_to_string(F, names),
                          "nondegeneracy": _nondeg_json(report)}, indent=2))
    else:
        print(f"germ: {germ_to_string(F, names)}")
        for f in report.faces:
            line = (f"dim {f.dim} face {_fmt_points(f.support_points)}: "
                    f"{f.status}")
            if f.witness is not None:
                line += f" (critical torus zero at {_fmt_witness(f.witness)})"
            elif f.detail:
                line += f" ({f.detail})"
            print(line)
        print(f"overall: {report.status}")
    return EXIT_COUNTEREXAMPLE if report.status == COUNTEREXAMPLE else EXIT_OK


def _oracle_rows(identity, checks):
    return [{"identity": identity, "indices": list(I),
             "normal": list(fac.normal), "ok": ok, "note": note}
            for I, fac, ok, note in checks]


def cmd_oracle_compare(args) -> int:
    if args.seed is not None:
        if {args.germ, args.germ_file, args.germ2, args.germ2_file} != {None}:
            raise ValueError("--seed runs the randomized suite; it takes no "
                             "--germ, --germ-file, --germ2 or --germ2-file")
        results = []
        if args.mode in ("cone", "both"):
            results.append(cone_suite(args.seed))
        if args.mode in ("cayley", "both"):
            results.append(cayley_suite(args.seed))
        if args.format == "json":
            print(json.dumps([{
                "suite": r.name, "cases": r.cases,
                "facets_checked": r.facets_checked,
                "failures": r.failures, "passed": r.passed,
            } for r in results], indent=2))
        else:
            for r in results:
                print(r.summary())
                for fail in r.failures[:10]:
                    print(f"  {fail}")
        return EXIT_OK if all(r.passed for r in results) else EXIT_INTERNAL

    F, names = _load_germ(args)
    rows = []
    if args.mode in ("cone", "both"):
        rows.extend(_oracle_rows("cone", cone_checks(F)))
    if args.mode in ("cayley", "both"):
        text2 = _read_text(args.germ2, args.germ2_file, use_stdin_fallback=False)
        if text2 is None:
            if args.mode == "cayley":
                raise ValueError("the cayley mode needs a second germ "
                                 "(--germ2 or --germ2-file)")
            rows.append({"identity": "cayley", "indices": None, "normal": None,
                         "ok": None, "note": "skipped (no second germ given)"})
        else:
            f1, _ = _germ_from_text(text2, args)
            rows.extend(_oracle_rows("cayley", cayley_checks(F, f1)))
            if F.num_vars < 3:
                rows.append({"identity": "cayley", "indices": None,
                             "normal": None, "ok": None,
                             "note": "identity not applicable "
                                     "(all faces have dimension at most 1)"})
    elif args.germ2 is not None or args.germ2_file is not None:
        raise ValueError("--germ2 is only meaningful for the cayley mode")
    checked = [r for r in rows if r["ok"] is not None]
    all_ok = all(r["ok"] for r in checked)
    if args.format == "json":
        print(json.dumps({"vars": names, "rows": rows,
                          "passed": all_ok}, indent=2))
    else:
        for r in rows:
            if r["ok"] is None:
                print(f"{r['identity']}: skipped ({r['note']})")
                continue
            idx = "{" + ",".join(str(i) for i in r["indices"]) + "}"
            state = "pass" if r["ok"] else "FAIL"
            print(f"{r['identity']} I = {idx} "
                  f"normal {_fmt_point(r['normal'])}: {state}")
        print(f"overall: {'pass' if all_ok else 'FAIL'} "
              f"({len(checked)} facet(s) checked)")
    return EXIT_OK if all_ok else EXIT_INTERNAL


# built once per process: parsing leaves the parser unchanged, so every
# ``main`` call pays only for parsing its own argv
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except _UsageError as exc:
        print(exc, end="", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.handler(args)
    except InvariantViolation as exc:
        print(f"internal error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
