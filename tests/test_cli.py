import json

import pytest

from newtonzeta.cli import main


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
])
def test_malformed_json_germ_is_an_input_error(capsys, doc, message):
    code, out, err = run(capsys, "zeta", "--germ", json.dumps(doc))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_invariant_violation_exits_3(capsys, monkeypatch):
    import newtonzeta.lattice as lattice

    # a rank that calls every nonempty point set full-dimensional sends a
    # segment in Z^2 to the facet engine, whose generators cannot span R^3
    monkeypatch.setattr(lattice, "mat_rank",
                        lambda rows: len(rows[0]) if rows else 0)
    code, out, err = run(capsys, "zeta", "--germ", "z1^2-s", "--vars", "s,z1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: invariant violated")


def test_edge_witness_with_huge_coefficients(capsys):
    # the edge gcd is linear, so its root is read off, not searched for
    # among the divisors of a 41-digit constant
    k = 10 ** 20
    code, out, _ = run(capsys, "check", "--vars", "s,z1,z2",
                       "--germ", f"z1^2 - {2 * k}*z1*z2 + {k * k}*z2^2 - s")
    assert code == 2
    assert f"critical torus zero at (1, {k}, 1)" in out
