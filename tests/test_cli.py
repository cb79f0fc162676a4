import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from newtonzeta import cli, randomized
from newtonzeta.cli import main
from newtonzeta.germ import MAX_Z_VARIABLES, parse_germ
from newtonzeta.nondegeneracy import MAX_EDGE_LENGTH, nondegeneracy_check


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zeta_cusp(capsys):
    code, out, _ = run(capsys, "zeta", "--germ", "z1^2+z2^3-s",
                       "--vars", "s,z1,z2")
    assert code == 0
    assert "(1-t^2) (1-t^3) (1-t^6)^-1" in out
    assert "(1-t^6)^-1" in out


def test_zeta_two_branches(capsys):
    code, out, _ = run(capsys, "zeta", "--germ", "z1^2-s^2", "--vars", "s,z1")
    assert code == 0
    assert "(1-t)^2" in out


def test_zeta_trivial(capsys):
    code, out, _ = run(capsys, "zeta", "--germ", "s", "--vars", "s,z1")
    assert code == 0
    affine_line = next(l for l in out.splitlines() if "affine" in l)
    assert " 1 " in affine_line


def test_zeta_counterexample_exit_code(capsys):
    code, out, err = run(capsys, "zeta", "--germ", "z1^2-2*s*z1+s^2",
                         "--vars", "s,z1")
    assert code == 2
    assert "(1-t)^2" in out  # result still printed
    assert "degenerate" in err


def test_zeta_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "zeta", "--germ", "z1 + * s", "--vars", "s,z1")
    assert code == 1
    assert "error" in err


def test_json_and_pretty_agree(capsys):
    code, out_json, _ = run(capsys, "zeta", "--germ", "z1^2+z2^3-s",
                            "--vars", "s,z1,z2", "--format", "json")
    assert code == 0
    doc = json.loads(out_json)
    code, out_pretty, _ = run(capsys, "zeta", "--germ", "z1^2+z2^3-s",
                              "--vars", "s,z1,z2")
    assert doc["affine"]["pretty"] in out_pretty
    assert doc["torus"]["pretty"] in out_pretty
    assert doc["affine"]["factors"] == [
        {"m": 2, "e": 1}, {"m": 3, "e": 1}, {"m": 6, "e": -1}]


def test_json_germ_input(capsys):
    germ = json.dumps({"vars": ["s", "z1"],
                       "terms": [{"exp": [0, 2], "coef": "1"},
                                 {"exp": [1, 0], "coef": "-1"}]})
    code, out, _ = run(capsys, "zeta", "--germ", germ)
    assert code == 0
    assert "(1-t^2)" in out


def test_diagram_rows(capsys):
    code, out, _ = run(capsys, "diagram", "--germ", "z1^2-s^3",
                       "--vars", "s,z1")
    assert code == 0
    assert "normal (2,3)" in out
    assert "factor (1-t^2)" in out
    assert "factor (1-t)^-1" in out


def test_diagram_trivial_germ(capsys):
    code, out, _ = run(capsys, "diagram", "--germ", "s", "--vars", "s,z1")
    assert code == 0
    lines = out.splitlines()
    zero_row = next(i for i, l in enumerate(lines) if "I = {0}:" in l)
    assert "(1-t)^-1" in lines[zero_row + 1]
    full_row = next(i for i, l in enumerate(lines) if "I = {0,1}:" in l)
    assert "no facets" in lines[full_row + 1]


def test_diagram_no_sigma_axis(capsys):
    code, out, _ = run(capsys, "diagram", "--germ", "z1*z2",
                       "--vars", "s,z1,z2")
    assert code == 0
    lines = out.splitlines()
    zero_row = next(i for i, l in enumerate(lines) if "I = {0}:" in l)
    assert "support {}" in lines[zero_row]
    assert "no facets" in lines[zero_row + 1]


def test_check_verdicts(capsys):
    code, out, _ = run(capsys, "check", "--germ", "z1^2-s^2", "--vars", "s,z1")
    assert code == 0
    assert "overall: verified" in out

    code, out, _ = run(capsys, "check", "--germ", "z1^2-2*s*z1+s^2",
                       "--vars", "s,z1")
    assert code == 2
    assert "counterexample" in out
    assert "(1, 1)" in out

    code, out, _ = run(capsys, "check", "--germ", "z1^3+z2^3+z1*z2*s",
                       "--vars", "s,z1,z2")
    assert code == 0
    assert "unchecked" in out


def test_oracle_compare_cone(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--mode", "cone",
                       "--germ", "z1^2+z2^3", "--vars", "s,z1,z2")
    assert code == 0
    assert "overall: pass" in out
    assert out.count("pass") >= 3


def test_oracle_compare_cayley(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--mode", "cayley",
                       "--germ", "z1^2+z2^2", "--germ2", "z1+z2",
                       "--vars", "s,z1,z2")
    assert code == 0
    assert "cayley I = {0,1,2}" in out
    assert "overall: pass" in out


def test_oracle_compare_cayley_segment_support(capsys):
    # the support of z1^2*z2 - s*z2 is a segment, so no face reaches
    # dimension 2 and the identity holds vacuously
    code, out, _ = run(capsys, "oracle-compare", "--mode", "cayley",
                       "--germ", "z1^2*z2", "--germ2", "z2",
                       "--vars", "s,z1,z2")
    assert code == 0
    assert "overall: pass" in out


def test_oracle_compare_cayley_low_dimension(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--mode", "cayley",
                       "--germ", "z^2", "--germ2", "z", "--vars", "s,z")
    assert code == 0
    assert "not applicable" in out


def test_oracle_compare_missing_second_germ(capsys):
    code, _, err = run(capsys, "oracle-compare", "--mode", "cayley",
                       "--germ", "z^2", "--vars", "s,z")
    assert code == 1
    assert "second germ" in err


def test_oracle_compare_seeded_suite(capsys):
    code, out, _ = run(capsys, "oracle-compare", "--mode", "cone",
                       "--seed", "7")
    assert code == 0
    assert "cone reduction suite: pass" in out
    code, out_json, _ = run(capsys, "oracle-compare", "--mode", "cone",
                            "--seed", "7", "--format", "json")
    assert code == 0
    [suite] = json.loads(out_json)
    assert (suite["suite"], suite["failures"], suite["passed"]) == (
        "cone reduction suite", [], True)
    assert (f"({suite['cases']} germs, {suite['facets_checked']} facets "
            "checked, 0 failures)") in out


def test_failing_seeded_suite_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(randomized, "cone_reduction_identity",
                        lambda *args: False)
    code, out, _ = run(capsys, "oracle-compare", "--seed", "7", "--mode", "cone")
    assert code == 3
    summary, *failures = out.splitlines()
    assert summary == ("cone reduction suite: FAIL "
                       "(100 germs, 388 facets checked, 388 failures)")
    assert len(failures) == 10  # the first ten of them
    assert all(l.endswith(": volumes or exponents disagree") for l in failures)


def test_oracle_compare_both_without_second_germ(capsys):
    argv = ("oracle-compare", "--germ", "z1^2+z2^3", "--vars", "s,z1,z2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    skipped = [l for l in out.splitlines() if l.startswith("cayley: skipped")]
    assert len(skipped) == 1 and "no second germ given" in skipped[0]
    assert out.endswith("overall: pass (3 facet(s) checked)\n")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["rows"][-1] == {"identity": "cayley", "indices": None,
                               "normal": None, "ok": None,
                               "note": "skipped (no second germ given)"}


@pytest.mark.parametrize("argv,message", [
    (["zeta", "--germ", "z1^2 - s"], "--vars is required for expression input"),
    (["oracle-compare", "--mode", "cone", "--germ", "z1^2", "--germ2", "z1",
      "--vars", "s,z1"], "--germ2 is only meaningful for the cayley mode"),
])
def test_inconsistent_input_is_an_input_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def fail(F):
        raise RuntimeError("no report")

    monkeypatch.setattr(cli, "nondegeneracy_check", fail)
    code, out, err = run(capsys, "check", "--germ", "z1^2 - s", "--vars", "s,z1")
    assert (code, out, err) == (3, "", "internal error: no report\n")


def test_germ_file_and_stdin(tmp_path, capsys, monkeypatch):
    p = tmp_path / "germ.txt"
    p.write_text("z1^3 - s", encoding="utf-8")
    code, out, _ = run(capsys, "zeta", "--germ-file", str(p),
                       "--vars", "s,z1")
    assert code == 0
    assert "(1-t^3)" in out

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("z1^4 - s"))
    code, out, _ = run(capsys, "zeta", "--vars", "s,z1")
    assert code == 0
    assert "(1-t^4)" in out


def test_exclusive_germ_sources(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("z1 - s", encoding="utf-8")
    code, _, err = run(capsys, "zeta", "--germ", "z1-s",
                       "--germ-file", str(p), "--vars", "s,z1")
    assert code == 1
    assert "not both" in err


@pytest.mark.parametrize("doc,message", [
    ({"vars": ["s", "z1"], "terms": 5}, "'terms' must be a list"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, 2], "coef": "1/0"}]},
     "nonzero denominator"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, 2], "coef": "x"}]},
     "not a rational number"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, 2], "coef": 0.5}]},
     "integer or a rational string"),
    ({"vars": ["s", "s"], "terms": [{"exp": [0, 2], "coef": "1"}]},
     "duplicate variable names"),
    ({"vars": "s,z1", "terms": [{"exp": [0, 2], "coef": "1"}]},
     "'vars' must be a list of strings"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, 2]}]},
     "needs 'exp' and 'coef'"),
    ({"vars": ["s", "z1"], "terms": [[0, 2]]}, "needs 'exp' and 'coef'"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, 2, 1], "coef": "1"}]},
     "list of 2 integers"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, "2"], "coef": "1"}]},
     "list of 2 integers"),
    ({"vars": ["s", "z1"], "terms": [{"exp": 2, "coef": "1"}]},
     "list of 2 integers"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, 2], "coef": "1e10000000"}]},
     "not a rational number"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, 2], "coef": "1.5"}]},
     "not a rational number"),
    ({"vars": ["s", "z1"], "terms": [{"exp": [0, 2], "coef": "1_0"}]},
     "not a rational number"),
])
def test_malformed_json_germ_is_an_input_error(capsys, doc, message):
    code, out, err = run(capsys, "zeta", "--germ", json.dumps(doc))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_deeply_nested_json_germ_is_an_input_error(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text('{"a":' * 200_000, encoding="utf-8")
    code, out, err = run(capsys, "zeta", "--germ-file", str(p))
    assert code == 1
    assert out == ""
    assert err == "error: JSON germ is nested too deeply\n"


def test_oracle_compare_seed_refuses_supplied_germs(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("z^2", encoding="utf-8")
    for flag, value in (("--germ", "z^2-s"), ("--germ-file", str(p)),
                        ("--germ2", "z"), ("--germ2-file", str(p))):
        code, out, err = run(capsys, "oracle-compare", "--seed", "1",
                             flag, value, "--vars", "s,z")
        assert code == 1, flag
        assert out == ""
        assert err.startswith("error: --seed runs the randomized suite"), flag


def test_invariant_violation_exits_3(capsys, monkeypatch):
    import newtonzeta.lattice as lattice

    # an elimination that finds no pivots leaves the facet engine without a
    # basis spanning the ambient space of the Newton polyhedron
    monkeypatch.setattr(lattice, "_gauss_jordan",
                        lambda rows, width=None: ([], [list(r) for r in rows], 1))
    code, out, err = run(capsys, "zeta", "--germ", "z1^2-s", "--vars", "s,z1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: invariant violated")


def test_edge_witness_with_huge_coefficients(capsys):
    # the root of the linear edge gcd is found by bisection, not searched
    # for among the divisors of a 41-digit constant
    k = 10 ** 20
    code, out, _ = run(capsys, "check", "--vars", "s,z1,z2",
                       "--germ", f"z1^2 - {2 * k}*z1*z2 + {k * k}*z2^2 - s")
    assert code == 2
    assert f"critical torus zero at (1, {k}, 1)" in out


@pytest.mark.parametrize("k,witness", [
    (2 * 10 ** 20, None),           # gcd u^2 - k: no rational root
    (10 ** 20, f"(1, {10 ** 10}, 1)"),
])
def test_edge_witness_of_a_quadratic_gcd(capsys, k, witness):
    # the integer roots are isolated by bisection, not searched for among
    # the divisors of a 41-digit constant
    code, out, _ = run(capsys, "check", "--vars", "s,z1,z2", "--germ",
                       f"z1^4 - {2 * k}*z1^2*z2^2 + {k * k}*z2^4 - s")
    assert code == 2
    if witness is None:
        assert "gcd degree 2" in out and "critical torus zero" not in out
    else:
        assert f"critical torus zero at {witness}" in out


@pytest.mark.parametrize("argv,message", [
    (["zeta", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    (["oracle-compare", "--seed", "abc"], "argument --seed: invalid int value"),
    (["zeta", "--germ", "z1-s", "--vars", "s,z1", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["check", "--vars"], "argument --vars: expected one argument"),
    (["oracle-compare", "--mode", "both", "--mode", "pencil"],
     "argument --mode: invalid choice"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
])
def test_usage_error_is_an_input_error(capsys, argv, message):
    # argparse alone would exit with 2, the code of a counterexample
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: newtonzeta")
    assert f"error: {message}" in err


@pytest.mark.parametrize("argv", [["--help"], ["zeta", "--help"],
                                  ["oracle-compare", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: newtonzeta")


def test_binomial_edges_of_huge_lattice_length(capsys):
    # a binomial edge is decided without its dense polynomial, which here
    # would have 10^9 + 1 coefficients
    k = 10 ** 9
    code, out, _ = run(capsys, "check", "--vars", "s,z1,z2",
                       "--germ", f"z1^{k} + z2^{k} - s")
    assert code == 0
    edges = [l for l in out.splitlines() if l.startswith("dim 1 face")]
    assert len(edges) == 3
    assert all(l.endswith(": verified") for l in edges)


def _three_point_edge(k, c=1):
    return f"z1^{k} + {c}*z1^{k // 2}*z2^{k // 2} + z2^{k} - s"


def test_long_edges_with_three_points_are_refused(capsys):
    # the dense edge polynomial would have 10^6 + 1 coefficients: the edge
    # is refused before it is built
    k = 10 ** 6
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--vars", "s,z1,z2",
                         "--germ", _three_point_edge(k))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err.startswith("error: edge from") and f"lattice length {k} >" in err
    # up to the bound, three-point edges are still decided
    for k, c, status in ((4, 2, "counterexample"), (MAX_EDGE_LENGTH, 1, "verified"),
                         (MAX_EDGE_LENGTH, 2, "counterexample")):
        code, out, _ = run(capsys, "check", "--vars", "s,z1,z2",
                           "--germ", _three_point_edge(k, c))
        assert code == (2 if status == "counterexample" else 0)
        edge = f"dim 1 face {{(0,0,{k}), (0,{k // 2},{k // 2}), (0,{k},0)}}: "
        assert any(l.startswith(edge + status) for l in out.splitlines()), out


_INVOCATIONS = [
    ["oracle-compare", "--seed", "7", "--mode", "cone"],
    ["oracle-compare", "--germ", "z1^2+z2^3", "--vars", "s,z1,z2",
     "--mode", "cone"],
    ["zeta", "--germ", "z1^2+z2^3-s", "--vars", "s,z1,z2", "--format", "json"],
    ["zeta", "--germ", "z1^2+z2^3-s", "--vars", "s,z1,z2"],
    ["check", "--germ", "z1^2-2*s*z1+s^2", "--vars", "s,z1", "--format", "json"],
    ["zeta", "--format", "xml"],
    ["diagram", "--germ", "z1^2-s^3", "--vars", "s,z1"],
    ["oracle-compare", "--mode", "cayley", "--germ", "z1^2+z2^2",
     "--germ2", "z1+z2", "--vars", "s,z1,z2", "--format", "json"],
    ["check", "--germ", "z1^3+z2^3+z1*z2*s", "--vars", "s,z1,z2"],
]
_EXIT_CODES = [0, 0, 0, 0, 2, 1, 0, 0, 0]


def test_parser_is_built_once(capsys, monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert [run(capsys, *argv)[0] for argv in _INVOCATIONS] == _EXIT_CODES


def test_parser_holds_no_state_between_calls(capsys):
    forwards = [run(capsys, *argv) for argv in _INVOCATIONS]
    backwards = [run(capsys, *argv) for argv in reversed(_INVOCATIONS)]
    assert forwards == backwards[::-1]
    assert [code for code, _, _ in forwards] == _EXIT_CODES


def _python_m(*argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "newtonzeta", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("sub,germ", [("zeta", "z1^2 - s"),
                                      ("diagram", "z1^2 - s"),
                                      ("check", "z1^2 - s"),
                                      ("oracle-compare", "z1^2")])
def test_too_many_variables_are_refused_at_once(capsys, sub, germ):
    # 2^40 index sets: refused before any work, not left to run
    names = ",".join(["s"] + [f"z{i}" for i in range(1, 41)])
    start = time.perf_counter()
    code, out, err = run(capsys, sub, "--germ", germ, "--vars", names)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert "40 z-variables" in err and f"at most {MAX_Z_VARIABLES}" in err


def test_nondegeneracy_check_refuses_too_many_variables():
    names = ["s"] + [f"z{i}" for i in range(1, MAX_Z_VARIABLES + 2)]
    F = parse_germ("z1^2 - s", names)
    with pytest.raises(ValueError, match=f"{MAX_Z_VARIABLES + 1} z-variables"):
        nondegeneracy_check(F)


def test_console_entry_point():
    # __main__ -> entry -> SystemExit(main()), in a fresh interpreter
    done = _python_m("zeta", "--germ", "z1^2+z2^3-s", "--vars", "s,z1,z2")
    assert done.returncode == 0
    assert ("zeta on the affine fibre: (1-t^2) (1-t^3) (1-t^6)^-1   "
            "[degree -1]") in done.stdout.splitlines()
    done = _python_m("zeta", "--format", "xml")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "error: argument --format: invalid choice" in done.stderr
