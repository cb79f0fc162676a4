"""Command line front end.

Subcommands: ``zeta`` (both zeta functions of a deformation germ),
``diagram`` (per-index-set facet data), ``check`` (nondegeneracy report),
``oracle-compare`` (the two reduction identities, either on supplied germs
or as a seeded randomized suite).  Each has a handler ``cmd_*`` that builds
its result once, as the document that ``--format json`` prints, and a
printer ``print_*`` that renders that document alone as the pretty output.
``_json_text`` writes the JSON document, exactly as
``json.dumps(document, indent=2)`` would.

Exit codes: 0 success, 1 input error (a malformed command line included),
2 nondegeneracy counterexample, 3 internal invariant violation (including a
failed reduction identity).
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .diagram import _face_sign, _index_set_facets, _zeta_torus_and_full
from .factored import factor
from .germ import (
    check_z_variables,
    germ_from_json,
    germ_to_string,
    parse_germ,
    restrict_support,
    support,
)
from .lattice import InvariantViolation, newton_polyhedron_facets
from .nondegeneracy import COUNTEREXAMPLE, UNCHECKED, _report, nondegeneracy_check
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

    def add(name, help, handler, printer):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, printer=printer)
        p.add_argument("--germ", help="germ as an expression or a JSON object")
        p.add_argument("--germ-file", help="file containing the germ "
                                           "(expression or JSON); stdin when "
                                           "neither flag is given")
        p.add_argument("--vars", help="comma-separated variable names, the "
                                      "deformation parameter first (required "
                                      "for expression input)")
        p.add_argument("--format", choices=("pretty", "json"),
                       default="pretty")
        return p

    add("zeta", "compute both monodromy zeta functions", cmd_zeta, print_zeta)
    add("diagram", "list diagram facets per index set", cmd_diagram, print_diagram)
    add("check", "nondegeneracy report per face", cmd_check, print_check)
    p_oc = add("oracle-compare", "check the reduction identities",
               cmd_oracle_compare, print_oracle_compare)
    p_oc.add_argument("--mode", choices=("cone", "cayley", "both"),
                      default="both")
    p_oc.add_argument("--germ2", help="second germ (pencil denominator) "
                                      "for the cayley mode, in the first "
                                      "germ's variables")
    p_oc.add_argument("--germ2-file")
    p_oc.add_argument("--seed", type=int,
                      help="run the seeded randomized suite instead of "
                           "checking supplied germs")
    parser.commands = sub.choices  # name -> subcommand parser
    return parser


def _read_text(inline, path):
    if inline is not None and path is not None:
        raise ValueError("give the germ inline or as a file, not both")
    if path is not None:
        return Path(path).read_text(encoding="utf-8")
    return inline


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
    if not args.vars:
        raise ValueError("--vars is required for expression input "
                         "(deformation parameter first)")
    names = [v.strip() for v in args.vars.split(",")]
    return parse_germ(text, names), names


def _load_germ(args):
    text = _read_text(args.germ, args.germ_file)
    return _germ_from_text(sys.stdin.read() if text is None else text, args)


# ---------------------------------------------------------------------------
# handlers: each returns (document, exit code) and prints nothing

def _with_report(doc, report):
    # doc with the nondegeneracy report as its last key, and the exit code;
    # the faces share one list per support point, which _json_text writes once
    point = {p: list(p) for p in {p for f in report.faces for p in f.support_points}}
    doc["nondegeneracy"] = {"status": report.status, "faces": [
        {"support": [point[p] for p in f.support_points], "dim": f.dim,
         "status": f.status,
         "witness": None if f.witness is None else [str(x) for x in f.witness],
         "detail": f.detail} for f in report.faces]}
    return doc, EXIT_COUNTEREXAMPLE if report.status == COUNTEREXAMPLE else EXIT_OK


def cmd_zeta(args):
    F, names = _load_germ(args)
    check_z_variables(F.num_vars - 1)
    # one Newton polyhedron for both zeta functions and the check
    facets = newton_polyhedron_facets(support(F), F.num_vars)
    torus, affine = _zeta_torus_and_full(F, facets)
    return _with_report({"vars": names, "germ": germ_to_string(F, names),
                         "torus": torus.as_json_dict(),
                         "affine": affine.as_json_dict()},
                        _report(F, facets))


def cmd_diagram(args):
    F, names = _load_germ(args)
    pts = support(F)
    rows = []
    for I, facets in _index_set_facets(F).items():
        sign = _face_sign(I)
        rows.append({"indices": list(I),
                     "support": [list(p) for p in sorted(restrict_support(pts, I))],
                     "facets": [{"normal": list(fac.normal), "m": fac.m,
                                 "nvol": fac.nvol, "sign": sign,
                                 "vertices": [list(v) for v in fac.vertices],
                                 "factor": {"m": fac.m, "e": sign * fac.nvol}}
                                for fac in facets]})
    return {"vars": names, "germ": germ_to_string(F, names),
            "index_sets": rows}, EXIT_OK


def cmd_check(args):
    F, names = _load_germ(args)
    return _with_report({"vars": names, "germ": germ_to_string(F, names)},
                        nondegeneracy_check(F))


def _oracle_rows(identity, checks):
    return [{"identity": identity, "indices": list(I),
             "normal": list(fac.normal), "ok": ok, "note": note}
            for I, fac, ok, note in checks]


def cmd_oracle_compare(args):
    if args.seed is not None:
        if {args.germ, args.germ_file, args.germ2, args.germ2_file,
                args.vars} != {None}:
            raise ValueError("--seed runs the randomized suite; it takes no "
                             "--germ, --germ-file, --germ2, --germ2-file "
                             "or --vars")
        suites = [suite(args.seed) for mode, suite in
                  (("cone", cone_suite), ("cayley", cayley_suite))
                  if args.mode in (mode, "both")]
        return suites, EXIT_OK if all(r["passed"] for r in suites) else EXIT_INTERNAL

    if args.mode == "cone" and {args.germ2, args.germ2_file} != {None}:
        raise ValueError("--germ2 is only meaningful for the cayley mode")
    text2 = _read_text(args.germ2, args.germ2_file)
    if text2 is None and args.mode == "cayley":
        raise ValueError("the cayley mode needs a second germ "
                         "(--germ2 or --germ2-file)")
    f1, names2 = (None, None) if text2 is None else _germ_from_text(text2, args)
    F, names = _load_germ(args)
    # the pencil pairs the germs' variables by position
    if f1 is not None and names2 != names:
        what = "counts" if len(names2) != len(names) else "names"
        raise ValueError(f"germs live in different variable {what}: the "
                         f"first in {names}, the second in {names2}")
    rows = [] if args.mode == "cayley" else _oracle_rows("cone", cone_checks(F))
    if f1 is not None:
        rows.extend(_oracle_rows("cayley", cayley_checks(F, f1)))
        if F.num_vars < 3:
            rows.append({"identity": "cayley", "indices": None,
                         "normal": None, "ok": None,
                         "note": "identity not applicable: "
                                 "all faces have dimension at most 1"})
    elif args.mode == "both":
        rows.append({"identity": "cayley", "indices": None, "normal": None,
                     "ok": None, "note": "skipped (no second germ given)"})
    passed = all(r["ok"] for r in rows if r["ok"] is not None)
    return ({"vars": names, "rows": rows, "passed": passed},
            EXIT_OK if passed else EXIT_INTERNAL)


# ---------------------------------------------------------------------------
# printers: each renders a handler's document and reads nothing else

def _fmt_point(p, sep=",") -> str:
    return "(" + sep.join(str(x) for x in p) + ")"


def _fmt_points(ps) -> str:
    return "{" + ", ".join(_fmt_point(p) for p in ps) + "}"


def _fmt_indices(indices) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}"


def print_zeta(doc):
    print(f"germ: {doc['germ']}")
    torus, affine = doc["torus"], doc["affine"]
    print(f"zeta on the torus fibre:  {torus['pretty']}   [degree {torus['degree']}]")
    print(f"zeta on the affine fibre: {affine['pretty']}   [degree {affine['degree']}]")
    faces = doc["nondegeneracy"]["faces"]
    print(f"nondegeneracy: {doc['nondegeneracy']['status']} ({len(faces)} faces)")
    unchecked = sum(f["status"] == UNCHECKED for f in faces)
    if unchecked:
        print(f"warning: {unchecked} face(s) of dimension >= 2 left unchecked; "
              "the formulas assume nondegeneracy", file=sys.stderr)
    for f in faces:
        if f["status"] == COUNTEREXAMPLE:
            where = ("" if f["witness"] is None
                     else f" at {_fmt_point(f['witness'], ', ')}")
            print(f"warning: degenerate face {_fmt_points(f['support'])}{where}",
                  file=sys.stderr)


def print_diagram(doc):
    print(f"germ: {doc['germ']}")
    for row in doc["index_sets"]:
        print(f"I = {_fmt_indices(row['indices'])}: "
              f"restricted support {_fmt_points(row['support'])}")
        if not row["facets"]:
            print("  no facets (factor 1)")
        for fac in row["facets"]:
            print(f"  facet normal {_fmt_point(fac['normal'])}: "
                  f"m {fac['m']}, nvol {fac['nvol']}, sign {fac['sign']:+d}, "
                  f"vertices {_fmt_points(fac['vertices'])}, "
                  f"factor {factor(fac['m'], fac['factor']['e']).pretty()}")


def print_check(doc):
    print(f"germ: {doc['germ']}")
    for f in doc["nondegeneracy"]["faces"]:
        line = f"dim {f['dim']} face {_fmt_points(f['support'])}: {f['status']}"
        if f["witness"] is not None:
            line += f" (critical torus zero at {_fmt_point(f['witness'], ', ')})"
        elif f["detail"]:
            line += f" ({f['detail']})"
        print(line)
    print(f"overall: {doc['nondegeneracy']['status']}")


def print_oracle_compare(doc):
    if isinstance(doc, list):  # the seeded suites
        for r in doc:
            print(f"{r['suite']}: {'pass' if r['passed'] else 'FAIL'} "
                  f"({r['cases']} germs, {r['facets_checked']} facets checked, "
                  f"{len(r['failures'])} failures)")
            for fail in r["failures"][:10]:
                print(f"  {fail}")
        return
    for r in doc["rows"]:
        if r["ok"] is None:
            note = r["note"] if r["note"].startswith("skipped") \
                else f"skipped ({r['note']})"
            print(f"{r['identity']}: {note}")
        else:
            print(f"{r['identity']} I = {_fmt_indices(r['indices'])} "
                  f"normal {_fmt_point(r['normal'])}: "
                  f"{'pass' if r['ok'] else 'FAIL'}")
    checked = sum(r["ok"] is not None for r in doc["rows"])
    print(f"overall: {'pass' if doc['passed'] else 'FAIL'} "
          f"({checked} facet(s) checked)")


# ---------------------------------------------------------------------------
# JSON output

_CONSTANTS = {None: "null", True: "true", False: "false"}


def _bad_key(key):
    raise TypeError(f"JSON document key {key!r} is not a str")


def _json_text(doc) -> str:
    """``doc`` written exactly as ``json.dumps(doc, indent=2)`` writes it.

    ``json.dumps`` runs its pure-Python encoder whenever ``indent`` is set;
    this writer joins each container once, writes a list object met again
    at the same indent from the text it built the first time (a memo of
    this call alone), and encodes strings with the C function
    ``json.dumps`` uses.  It takes only what the documents hold: dicts
    with ``str`` keys, lists, strings, ints, bools and ``None``; any other
    value or key raises ``TypeError``.

    >>> print(_json_text({"a": [1, True], "b": {}, "c": None}))
    {
      "a": [
        1,
        true
      ],
      "b": {},
      "c": null
    }
    """
    memo = {}

    def text(doc, newline):
        kind = type(doc)
        if kind is dict:
            if not doc:
                return "{}"
            inner = newline + "  "
            return "{" + inner + ("," + inner).join([
                (encode_basestring_ascii(k) if type(k) is str else _bad_key(k))
                + ": " + (encode_basestring_ascii(v) if type(v) is str
                          else repr(v) if type(v) is int
                          else text(v, inner))
                for k, v in doc.items()]) + newline + "}"
        if kind is list:
            if not doc:
                return "[]"
            key = id(doc), newline
            if key not in memo:
                inner = newline + "  "
                memo[key] = "[" + inner + ("," + inner).join([
                    encode_basestring_ascii(v) if type(v) is str
                    else repr(v) if type(v) is int
                    else text(v, inner)
                    for v in doc]) + newline + "]"
            return memo[key]
        # exact type tests: True is an int that must read true, and the table
        # is keyed by value, so 1.0 or Fraction(1) must not reach it
        if kind is str:
            return encode_basestring_ascii(doc)
        if kind is int:
            return repr(doc)
        if kind is bool or doc is None:
            return _CONSTANTS[doc]
        raise TypeError(f"a JSON document holds no {kind.__name__} values")

    return text(doc, "\n")


# built once per process: parsing leaves the parser unchanged, so every
# ``main`` call pays only for parsing its own argv
PARSER = build_parser()


def _parse_argv(argv):
    """``PARSER.parse_args(argv)``, but a command line that starts with a
    subcommand name is read by that subcommand's parser alone, as
    argparse's nested path reads it, without a top-level pass."""
    if argv is None:
        argv = sys.argv[1:]
    parser = PARSER.commands.get(argv[0]) if argv else None
    if parser is None:
        return PARSER.parse_args(argv)
    args, rest = parser.parse_known_args(argv[1:])
    if rest:
        PARSER.error(f"unrecognized arguments: {' '.join(rest)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse_argv(argv)
    except _UsageError as exc:
        print(exc, end="", file=sys.stderr)
        return EXIT_INPUT
    try:
        doc, code = args.handler(args)
        if args.format == "json":
            print(_json_text(doc))
        else:
            args.printer(doc)
        return code
    except InvariantViolation as exc:
        print(f"internal error: invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():  # console script
    raise SystemExit(main())

