"""Property-based fuzzing of the command line: every input ends in exit 0,
1 or 2, never in an internal error (exit 3) or an escaping exception, and
every JSON document is printed as ``json.dumps(..., indent=2)`` prints it."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from newtonzeta.cli import main

MAX_Z = 3
MAX_EXP = 6

coefficients = st.tuples(st.integers(-9, 9), st.integers(1, 9))


def terms(num_vars, max_sigma):
    """Terms of a germ in ``num_vars`` variables, sigma first; zero
    coefficients may occur and may cancel every term."""
    exponents = st.tuples(st.integers(0, max_sigma),
                          *[st.integers(0, MAX_EXP)] * (num_vars - 1)).filter(any)
    return st.lists(st.tuples(exponents.map(list), coefficients), min_size=1, max_size=6)


def _expression(names, germ_terms):
    text = ""
    for exp, (p, q) in germ_terms:
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, exp) if k]
        coef = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
        text += (" - " if p < 0 else " + ") + "*".join([coef] + factors)
    return text


@st.composite
def germ_texts(draw, names, max_sigma):
    """A germ in ``names`` as an expression, as JSON (exponent lists may
    have the wrong length) or as a short run of parser characters."""
    kind = draw(st.sampled_from(["expression", "json", "junk"]))
    if kind == "junk":
        return draw(st.text(alphabet="sz123^*+-/() {}[]\":,", max_size=24))
    germ_terms = draw(terms(len(names), max_sigma))
    if kind == "expression":
        return _expression(names, germ_terms)
    if draw(st.integers(0, 3)) == 3:
        germ_terms[0] = (germ_terms[0][0][:-1], germ_terms[0][1])
    return json.dumps({"vars": names, "terms": [
        {"exp": exp, "coef": f"{p}/{q}"} for exp, (p, q) in germ_terms]})


@st.composite
def invocations(draw):
    names = ["s"] + [f"z{i}" for i in range(1, draw(st.integers(1, MAX_Z)) + 1)]
    command = draw(st.sampled_from(["zeta", "diagram", "check", "oracle-compare"]))
    # oracle-compare takes germs f(z): sigma is named but must not occur
    max_sigma = 0 if command == "oracle-compare" else MAX_EXP
    argv = [command, f"--germ={draw(germ_texts(names, max_sigma))}",
            f"--vars={','.join(names)}",
            "--format", draw(st.sampled_from(["pretty", "json"]))]
    if command == "oracle-compare":
        mode = draw(st.sampled_from(["cone", "cayley", "both"]))
        argv += ["--mode", mode]
        if mode == "cayley" or (mode == "both" and draw(st.booleans())):
            argv.append(f"--germ2={draw(germ_texts(names, max_sigma))}")
    return argv


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(invocations())
def test_cli_never_fails_internally(argv):
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if "json" in argv and code != 1:
        # the CLI's writer against the encoder it replaced
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
