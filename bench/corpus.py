"""Seeded inputs for the three benchmark workloads.

Standard library only.  This module does not import ``newtonzeta``, so a
change to the package cannot change the inputs it is measured on.

Each workload is a fixed schedule of strata.  A stratum fixes the shape of
an input (family, number of variables, number of terms, subcommand and
output format) and owns a pool of ``POOL[workload]`` variants; variant ``v``
is generated from its own string seed, independent of the run seed.  The
run seed only chooses which variants fill the stratum's slots and the order
of every pass.  So every run does the same number of operations of the same
shapes, which keeps op time steady across seeds, while the pools are finite
and small enough that every pinned output can be recorded once
(``golden.json``, written by ``make_golden.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

WORKLOADS = ("zeta-desk", "oracle", "small-mixed")

# variants per stratum; pinned strata cost one golden computation each
POOL = {"zeta-desk": 16, "oracle": 64, "small-mixed": 48}

# nominal wall time of one pass, kernel samples and collections included; a
# run makes the whole number of passes nearest to --seconds at this cost
PASS_S = {"zeta-desk": 12.0, "oracle": 6.0, "small-mixed": 6.0}

CUSP = "z1^2 + z2^3 - s"


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``kind`` is ``cli`` (``args`` is the argv of ``newtonzeta.cli.main``),
    ``cone`` (``args`` = (f, vars)), ``cayley`` (``args`` = (f0, f1, vars)),
    ``mv2`` / ``mv3`` (``args`` = point lists of the bodies).  ``check`` says
    how the output is verified: ``pinned`` against ``golden.json``, ``bp``
    against the Milnor-Orlik closed form of ``expect``, ``identity``
    (every identity returns True) or ``multilinear``.
    """
    key: str
    kind: str
    args: tuple
    check: str
    expect: tuple = ()

    @property
    def input_id(self) -> str:
        """Content hash of the input; the key of its pinned output."""
        blob = json.dumps([self.kind, self.args], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# germ generation and rendering

def _names(n: int) -> list[str]:
    return ["s"] + [f"z{i}" for i in range(1, n + 1)]


def _coef(rng) -> Fraction:
    num = rng.choice([x for x in range(-7, 8) if x])
    return Fraction(num, rng.randint(1, 7))


def render(terms, names) -> str:
    """Expression string of {exponent: coefficient} in the CLI grammar."""
    parts = []
    for e in sorted(terms):
        c = terms[e]
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(names, e) if k)
        mag = abs(c)
        parts.append(("-" if c < 0 else "+",
                      mono if mag == 1 else f"{mag}*{mono}"))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def convenient(rng, n, z_terms, max_exp=6) -> dict:
    """z-only germ with exactly z_terms distinct monomials, one per axis."""
    terms = {}
    for i in range(1, n + 1):
        e = [0] * (n + 1)
        e[i] = rng.randint(1, max_exp)
        terms[tuple(e)] = _coef(rng)
    while len(terms) < z_terms:
        e = (0,) + tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(e) and e not in terms:
            terms[e] = _coef(rng)
    return terms


def z_germ(rng, n, count, max_exp) -> dict:
    """z-only germ with exactly count distinct monomials."""
    terms = {}
    while len(terms) < count:
        e = (0,) + tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(e) and e not in terms:
            terms[e] = _coef(rng)
    return terms


def suspension(f: dict, n: int) -> dict:
    """f - s."""
    return {**f, (1,) + (0,) * n: Fraction(-1)}


def pencil(f0: dict, f1: dict) -> dict:
    """f0 - s*f1."""
    return {**f0, **{(1,) + e[1:]: -c for e, c in f1.items()}}


def bp_exponents(rng, n) -> tuple[int, ...]:
    return tuple(rng.randint(2, 7) for _ in range(n))


def bp_germ(a) -> str:
    return " + ".join(f"z{i}^{k}" for i, k in enumerate(a, 1)) + " - s"


def bp_affine_zeta(a) -> dict[int, int]:
    """Milnor-Orlik closed form of the affine zeta of z1^a1+...+zn^an - s.

    prod over nonempty I of (1 - t^L_I)^((-1)^(|I|-1) prod_{i in I} a_i / L_I),
    L_I = lcm(a_i : i in I), as a map m -> exponent with zeros dropped.
    """
    out: dict[int, int] = {}
    n = len(a)
    for mask in range(1, 1 << n):
        sub = [a[i] for i in range(n) if mask >> i & 1]
        L = lcm(*sub)
        prod = 1
        for x in sub:
            prod *= x
        e = (-1) ** (len(sub) - 1) * prod // L
        out[L] = out.get(L, 0) + e
    return {m: e for m, e in sorted(out.items()) if e}


# ---------------------------------------------------------------------------
# op generators; each takes the variant's own Random and returns Op fields

def _cli(sub, expr, n, fmt, extra=()):
    argv = [sub, f"--germ={expr}", "--vars", ",".join(_names(n))]
    return tuple(argv) + tuple(extra) + ("--format", fmt)


def zeta_suspension(n, terms, fmt="json"):
    def build(rng):
        return "cli", _cli("zeta", render(suspension(
            convenient(rng, n, terms - 1), n), _names(n)), n, fmt), "pinned", ()
    return build


def zeta_pencil(n, z_terms, fmt="json", sub="zeta"):
    def build(rng):
        f0 = convenient(rng, n, z_terms, max_exp=4)
        f1 = z_germ(rng, n, rng.randint(1, 2), max_exp=2)
        return "cli", _cli(sub, render(pencil(f0, f1), _names(n)), n,
                           fmt), "pinned", ()
    return build


def bp_cli(n, sub, fmt):
    def build(rng):
        a = bp_exponents(rng, n)
        if sub == "zeta":
            return "cli", _cli(sub, bp_germ(a), n, fmt), "bp", a
        return "cli", _cli(sub, bp_germ(a), n, fmt), "pinned", ()
    return build


def cusp_cli(sub, fmt):
    def build(rng):
        if sub == "oracle-compare":
            return "cli", _cli(sub, "z1^2 + z2^3", 2, fmt,
                               ("--mode", "cone")), "pinned", ()
        check, expect = ("bp", (2, 3)) if sub == "zeta" else ("pinned", ())
        return "cli", _cli(sub, CUSP, 2, fmt), check, expect
    return build


def random_cli(sub, fmt):
    """A deformation germ of 2-6 random terms in s, z1..zn, n = 1..3."""
    def build(rng):
        n = rng.randint(1, 3)
        terms = {}
        count = rng.randint(2, 6)
        while len(terms) < count:
            e = tuple(rng.randint(0, 3) for _ in range(n + 1))
            if any(e):
                terms[e] = _coef(rng)
        if not any(e[0] for e in terms):  # keep it a deformation
            terms[(1,) + (0,) * n] = Fraction(-1)
        return "cli", _cli(sub, render(terms, _names(n)), n, fmt), "pinned", ()
    return build


def oracle_cone_cli(fmt):
    def build(rng):
        n = rng.randint(1, 3)
        f = z_germ(rng, n, rng.randint(2, 4), max_exp=4)
        return "cli", _cli("oracle-compare", render(f, _names(n)), n, fmt,
                           ("--mode", "cone")), "pinned", ()
    return build


def oracle_cayley_cli(fmt):
    def build(rng):
        n = 2
        f0 = convenient(rng, n, rng.randint(2, 3), max_exp=4)
        f1 = z_germ(rng, n, 1, max_exp=2)
        argv = ("oracle-compare", f"--germ={render(f0, _names(n))}",
                f"--germ2={render(f1, _names(n))}",
                "--vars", ",".join(_names(n)), "--mode", "cayley",
                "--format", fmt)
        return "cli", argv, "pinned", ()
    return build


def cone_case(n, extra):
    def build(rng):
        f = convenient(rng, n, n + extra)
        return "cone", (render(f, _names(n)), _names(n)), "identity", ()
    return build


def cayley_case(n, extra):
    def build(rng):
        f0 = convenient(rng, n, n + extra, max_exp=5)
        f1 = z_germ(rng, n, rng.randint(1, 2), max_exp=1)
        return "cayley", (render(f0, _names(n)), render(f1, _names(n)),
                          _names(n)), "identity", ()
    return build


def mv2_case(rng):
    """Three triangles in a common random lattice plane of Z^3."""
    while True:
        u = [rng.randint(-2, 2) for _ in range(3)]
        v = [rng.randint(-2, 2) for _ in range(3)]
        if any(_cross(u, v)):
            break
    bodies = []
    for _ in range(3):
        off = [rng.randint(-2, 2) for _ in range(3)]
        pts = []
        for _ in range(3):
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            pts.append([off[j] + a * u[j] + b * v[j] for j in range(3)])
        bodies.append(pts)
    return "mv2", tuple(bodies), "multilinear", ()


def mv3_case(rng):
    """Four segments in Z^3, any three of them spanning it."""
    while True:
        dirs = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(4)]
        if all(_det3(dirs[i], dirs[2], dirs[3]) for i in (0, 1)) \
                and any(_cross(dirs[0], dirs[1])):
            break
    bodies = []
    for v in dirs:
        p = [rng.randint(0, 2) for _ in range(3)]
        bodies.append([p, [x + y for x, y in zip(p, v)]])
    return "mv3", tuple(bodies), "multilinear", ()


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _det3(u, v, w):
    return sum(a * b for a, b in zip(_cross(u, v), w))


# (stratum name, slots per pass, op generator)
SCHEDULE = {
    "zeta-desk": (
        [(f"susp-n3-t{t}", k, zeta_suspension(3, t))
         for t, k in ((10, 6), (12, 4), (14, 3), (16, 2), (19, 5))]
        + [(f"susp-n4-t{t}", k, zeta_suspension(4, t))
           for t, k in ((10, 2), (11, 2), (14, 1))]
        + [("susp-n5-t10", 1, zeta_suspension(5, 10))]
        + [(f"bp-n{n}", k, bp_cli(n, "zeta", "json"))
           for n, k in ((4, 8), (5, 3), (6, 1))]
        + [(f"pencil-n3-t{t}", k, zeta_pencil(3, t))
           for t, k in ((6, 8), (8, 8))]
    ),
    "oracle": (
        [(f"cone-n2-e{e}", 16, cone_case(2, e)) for e in (1, 3)]
        + [(f"cone-n3-e{e}", 16, cone_case(3, e)) for e in (2, 3, 4)]
        + [(f"cone-n4-e{e}", 8, cone_case(4, e)) for e in (2, 4)]
        + [("cayley-n2-e2", 12, cayley_case(2, 2))]
        + [(f"cayley-n3-e{e}", 16, cayley_case(3, e)) for e in (1, 2, 3)]
        + [("mv2", 16, mv2_case), ("mv3", 8, mv3_case)]
    ),
    "small-mixed": (
        [(f"cusp-{sub}-{fmt}", 12, cusp_cli(sub, fmt))
         for sub in ("zeta", "diagram", "check", "oracle-compare")
         for fmt in ("pretty", "json")]
        + [(f"bp-n{n}-{sub}-{fmt}", 8, bp_cli(n, sub, fmt))
           for n in (1, 2, 3)
           for sub in ("zeta", "diagram", "check")
           for fmt in ("pretty", "json")]
        + [(f"pencil-{sub}-{fmt}", 20, zeta_pencil(2, 3, fmt, sub))
           for sub in ("zeta", "diagram", "check")
           for fmt in ("pretty", "json")]
        + [(f"random-{sub}-{fmt}", 32, random_cli(sub, fmt))
           for sub in ("zeta", "diagram", "check")
           for fmt in ("pretty", "json")]
        + [(f"oc-cone-{fmt}", 24, oracle_cone_cli(fmt))
           for fmt in ("pretty", "json")]
        + [(f"oc-cayley-{fmt}", 24, oracle_cayley_cli(fmt))
           for fmt in ("pretty", "json")]
    ),
}

# a fixed handful of small ops run once, untimed, before the first timed op
WARMUP = {
    "zeta-desk": [("warm-cusp", cusp_cli("zeta", "json")),
                  ("warm-bp", bp_cli(3, "zeta", "json"))],
    "oracle": [("warm-cone", cone_case(2, 1)), ("warm-cayley", cayley_case(2, 1)),
               ("warm-mv2", mv2_case)],
    "small-mixed": [(f"warm-{sub}-{fmt}", cusp_cli(sub, fmt))
                    for sub in ("zeta", "diagram", "check", "oracle-compare")
                    for fmt in ("pretty", "json")],
}


def variant(workload: str, stratum: str, v: int, build) -> Op:
    """Variant v of a stratum; depends on nothing but its own name."""
    kind, args, check, expect = build(random.Random(f"{workload}|{stratum}|{v}"))
    return Op(f"{stratum}#{v}", kind, args, check, expect)


def pool(workload: str):
    """Every op the workload can ever run, stratum by stratum."""
    for stratum, _, build in SCHEDULE[workload]:
        for v in range(POOL[workload]):
            yield variant(workload, stratum, v, build)


def corpus(workload: str, seed: int) -> list[Op]:
    """One pass of the workload for this seed, in schedule order."""
    rng = random.Random(f"select|{workload}|{seed}")
    ops = []
    for stratum, slots, build in SCHEDULE[workload]:
        for v in sorted(rng.sample(range(POOL[workload]), slots)):
            ops.append(variant(workload, stratum, v, build))
    return ops


def warmup(workload: str) -> list[Op]:
    return [variant(workload, name, 0, build) for name, build in WARMUP[workload]]


def pass_order(ops: list[Op], workload: str, seed: int, k: int) -> list[Op]:
    """Seeded shuffle of the corpus for pass k."""
    order = list(ops)
    random.Random(f"order|{workload}|{seed}|{k}").shuffle(order)
    return order


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))
