"""The four benchmark workloads: inputs, operations and output checks.

Each workload builds a fixed list of operations from the seed.  An
operation is one in-process ``shintani_kit.cli.main(argv)`` call on a
generated JSON config, or one call to a public library function where no
subcommand covers it.  Each operation has a check on its output; the worker
times the call only, never the check.

Why these four (see baseline.json for the per-layer predictions):

- rq_interpolation: the paper's headline computation, exact and p-adic
  sides of one real quadratic interpolation point set; time sits in
  test_functions, shintani_zeta and padic_measures.amice_expand.
- field_zeta_sweep: exact side only, over many fields; exercises class
  enumeration and fans that grow with the unit, with no p-adic work.
- cocycle: cones and _linalg only; the control for every other layer.
- measure_pool: padic_measures on small inputs, the rejection path and
  1-D caps-32 expansions, unlike the 2-D caps-6 work of rq_interpolation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from shintani_kit import cli, cones
from shintani_kit._linalg import det, from_columns, mat, mat_vec, rank

from oracles import (
    bernoulli_poly_oracle,
    hurwitz_special_value,
    siegel_zeta_minus_one,
    siegel_zeta_minus_three,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "rq_interpolation.json"

# Squarefree D < 60 that the seed refuses with ClassSearchExhausted; they
# are probed after the timed pass so that extending reach is not scored as
# a slowdown.
REFUSED_D = (43, 46, 58)
# fields also evaluated at k = 3: narrow class numbers 1, 2 and 4
SWEEP_K13 = (13, 38, 15)
# cocycle: GL tuples per dimension, sample points per tuple, matrix sets
# per dimension for cocycle_defect
HILL_TUPLES, HILL_POINTS, DEFECT_SETS = 8, 100, 4
MEASURE_CONFIGS = 48


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)
    seeded: bool = True


class ConfigWriter:
    """Writes generated configs as numbered JSON files into one directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def __call__(self, cfg: dict) -> str:
        self.count += 1
        path = self.workdir / f"config-{self.count:03d}.json"
        path.write_text(json.dumps(cfg))
        return str(path)


def cli_op(label: str, argv: list[str], check: Callable[[int, dict], bool]) -> Op:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check_output(out) -> bool:
        code, text = out
        return check(code, json.loads(text) if text else {})

    return Op(label, run, check_output)


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _squarefree(d: int) -> bool:
    return all(d % (q * q) for q in range(2, math.isqrt(d) + 1))


# ---------------------------------------------------------------------------
# rq_interpolation


def rq_interpolation(rng, write: ConfigWriter) -> Workload:
    golden = json.loads(GOLDEN.read_text())
    ops = []
    for m in (0, 1):
        cfg = {"D": 5, "p": 3, "ell": 11, "k": [0, 1, 2], "caps": [6, 6], "m": m}
        want = golden[str(m)]

        def check(code, rec, want=want):
            return (
                code == 0
                and rec["certificates"] == {"integral_coefficients": True, "interpolation_ok": True}
                and canonical(rec["values"]) == want
            )

        ops.append(cli_op(f"padic-zeta m={m}", ["padic-zeta", "--config", write(cfg)], check))
    return Workload(ops, seeded=False)


# ---------------------------------------------------------------------------
# field_zeta_sweep

_SIEGEL = {1: siegel_zeta_minus_one, 3: siegel_zeta_minus_three}


def _zeta_matches(D: int, ks: list[int], rec: dict) -> bool:
    values = rec["values"]
    return values["k"] == ks and all(
        _frac(v) == _SIEGEL[k](D) for k, v in zip(ks, values["values"], strict=True)
    )


def _field_op(D: int, ks: list[int], write: ConfigWriter) -> Op:
    cfg = {"preset": "rq-field", "D": D, "k": ks}
    return cli_op(
        f"zeta D={D} k={ks}",
        ["zeta", "--config", write(cfg)],
        lambda code, rec: code == 0 and _zeta_matches(D, ks, rec),
    )


def probe_outcome(op: Op, out) -> str:
    """'refused' for a math-error record, 'ok' for a correct value,
    'wrong' otherwise."""
    code, text = out
    rec = json.loads(text) if text else {}
    if code == 3 and "error" in rec:
        return "refused"
    return "ok" if op.check(out) else "wrong"


def field_zeta_sweep(rng, write: ConfigWriter) -> Workload:
    ops = [
        _field_op(D, [1, 3] if D in SWEEP_K13 else [1], write)
        for D in range(2, 60)
        if _squarefree(D) and D not in REFUSED_D
    ]
    probes = [_field_op(D, [1], write) for D in REFUSED_D]
    return Workload(ops, probes, seeded=False)


# ---------------------------------------------------------------------------
# cocycle: inputs drawn and filtered as tests/test_acceptance.py does it;
# kept here rather than imported so that refactoring the tests cannot
# change the benchmark's inputs


def _rand_gl(rng, n):
    while True:
        m = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        if det(mat(m)) != 0:
            return m


def _independent_first_columns(mats, n) -> bool:
    u = [mat_vec(mat(m), [1] + [0] * (n - 1)) for m in mats]
    return rank(from_columns(u)) == n


def _rand_tuple(rng, n):
    while True:
        mats = [_rand_gl(rng, n) for _ in range(n)]
        if _independent_first_columns(mats, n):
            return mats


def _hill_check(points: int):
    def check(code, rec):
        return (
            code == 0
            and rec["certificates"].get("pointwise_match") is True
            and len(rec["values"]["evaluations"]) == points
        )

    return check


def _defect_op(label, mats, samples) -> Op:
    return Op(
        label,
        lambda: cones.cocycle_defect(mats, samples),
        lambda vals: len(vals) == len(samples) and len(set(vals)) == 1,
    )


def cocycle(rng, write: ConfigWriter) -> Workload:
    ops = []
    for n in (2, 3):
        for i in range(HILL_TUPLES):
            mats = _rand_tuple(rng, n)
            pts = []
            while len(pts) < HILL_POINTS:
                v = [f"{rng.randrange(-9, 10)}/{rng.randrange(1, 4)}" for _ in range(n)]
                if any(x[0] != "0" for x in v):
                    pts.append(v)
            cfg = {"matrices": mats, "points": pts}
            ops.append(cli_op(f"hill n={n} #{i}", ["hill", "--config", write(cfg)], _hill_check(HILL_POINTS)))
    for n in (2, 3):
        done = 0
        while done < DEFECT_SETS:
            mats = [_rand_gl(rng, n) for _ in range(n + 1)]
            facets = [[m for j, m in enumerate(mats) if j != i] for i in range(n + 1)]
            if not all(_independent_first_columns(f, n) for f in facets):
                continue
            samples = []
            while len(samples) < 20:
                v = [rng.randrange(-8, 9) for _ in range(n)]
                if any(v):
                    samples.append(v)
            ops.append(_defect_op(f"cocycle_defect n={n} #{done}", mats, samples))
            done += 1
    return Workload(ops)


# ---------------------------------------------------------------------------
# measure_pool


def _crt(a: int, m1: int, b: int, m2: int) -> int:
    """The x in [1, m1*m2] with x = a mod m1 and x = b mod m2 (coprime)."""
    x = (a + m1 * ((b - a) * pow(m1, -1, m2))) % (m1 * m2)
    return x or m1 * m2


def _ray_moment_oracle(terms, p: int, m: int, offset: int, k: int) -> Fraction:
    """Value at -k of sum over x > 0 with x = offset mod p^m of f(x), for
    f a combination of indicators of b*Z with b prime to p."""
    P = p**m
    total = Fraction(0)
    for t in terms:
        b = t["basis"][0][0]
        total += t["weight"] * hurwitz_special_value(_crt(0, b, offset, P), b * P, k)
    return total


def _measure_check(n, p, m, off, terms, smooth, ks):
    def check(code, rec):
        if code != 0 or rec["certificates"].get("routes_agree") is not True:
            return False
        verdict = rec["values"]["is_measure"]
        if (not smooth and verdict) or (n == 1 and smooth and not verdict):
            return False
        if not verdict:
            return "moments" not in rec["values"]
        if rec["certificates"].get("integral_coefficients") is not True:
            return False
        if n > 1:
            return True
        want = {str(k): _ray_moment_oracle(terms, p, m, off[0], k) for k in ks}
        got = {k: _frac(v) for k, v in rec["values"]["moments"].items()}
        return got == want

    return check


def _kl_check(ell, ks):
    want = [
        -(1 - Fraction(ell) ** (k + 1)) * bernoulli_poly_oracle(k + 1, 1) / (k + 1)
        for k in ks
    ]

    def check(code, rec):
        return (
            code == 0
            and all(rec["certificates"].values())
            and [_frac(r["moment"]) for r in rec["values"]["table"]] == want
        )

    return check


def measure_pool(rng, write: ConfigWriter) -> Workload:
    ops = []
    for i in range(MEASURE_CONFIGS):
        p = rng.choice((3, 5, 7))
        n = rng.choice((1, 2))
        ell = rng.choice([x for x in (2, 5) if x != p])
        smooth = rng.random() < 0.65
        m = rng.choice((0, 1))
        off = [rng.randrange(p**m) for _ in range(n)]
        if n == 1:
            terms = [{"weight": 1, "offset": [0], "basis": [[1]]}]
            if smooth:
                terms.append({"weight": -ell, "offset": [0], "basis": [[ell]]})
            gens = [[1]]
            ks, caps = [0, 1, 2, 3, 4, 5], [8]
        else:
            terms = [{"weight": 1, "offset": [0, 0], "basis": [[1, 0], [0, 1]]}]
            if smooth:
                terms.append(
                    {"weight": -ell * ell, "offset": [rng.randrange(ell), 0],
                     "basis": [[ell, 0], [0, ell]]}
                )
            gens = [[1, 0], [rng.randrange(0, 3), 1]]
            ks, caps = [0, 1, 2], [4, 4]
        cfg = {
            "n": n, "p": p, "terms": terms, "cones": [{"generators": gens}],
            "level": {"m": m, "offsets": [off]}, "k": ks, "caps": caps,
        }
        ops.append(cli_op(
            f"measure n={n} p={p} #{i}",
            ["measure", "--config", write(cfg)],
            _measure_check(n, p, m, off, terms, smooth, ks),
        ))
    ks = list(range(12))
    for p in (3, 5, 7):
        cfg = {"p": p, "ell": 2, "k": ks, "caps": [32]}
        ops.append(cli_op(f"kubota-leopoldt p={p}", ["kubota-leopoldt", "--config", write(cfg)], _kl_check(2, ks)))
    return Workload(ops)


WORKLOADS = {
    "rq_interpolation": rq_interpolation,
    "field_zeta_sweep": field_zeta_sweep,
    "cocycle": cocycle,
    "measure_pool": measure_pool,
}
