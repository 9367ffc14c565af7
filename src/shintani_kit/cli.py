"""Batch command line front end.

Runs are driven by a declarative JSON config (``--config``) with optional
flag overrides, and emit one JSON record per run with versioned schema
"shintani-kit/1".  Exact rationals are printed as "num/den" strings and
p-adic scalars as {residue, p, M, guard} objects, so no value is shown
beyond its effective precision.

Exit codes: 0 on success, 2 for configuration problems, 3 when a
mathematical contract is violated (route disagreement, oracle mismatch,
failed interpolation, guard trips, selftest failures).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction

from . import selftest as selftest_mod
from ._linalg import from_columns
from ._rational_padics import is_p_integral, is_prime
from .cones import ConeFunction, GLTuple, OpenCone, hill_cone_function, hill_eval
from .errors import DegenerateTuple, ShintaniKitError
from .exact_core import hurwitz_value
from .padic_measures import (
    PadicScalar,
    amice_expand,
    is_measure,
    kubota_leopoldt,
    moment,
    pseudo_from_cone,
)
from .real_quadratic_fields import (
    IdealHNF,
    RealQuadraticField,
    exact_ray_class_zeta,
    field_zeta_value,
    o_ideal,
    padic_partial_zeta,
    prime_above,
    smoothed_class_series,
)
from .shintani_zeta import quadratic_norm, special_value, std_norm
from .test_functions import PLevelSet, TestFunction

SCHEMA = "shintani-kit/1"
_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MATH = 3


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# serialization helpers


def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _scalar(v: PadicScalar) -> dict:
    return {"residue": v.residue, "p": v.p, "M": v.M, "guard": v.guard}


def _vector(v) -> list[str]:
    return [_frac(x) for x in v]


def _record(task: str, config: dict, values: dict, certificates: dict, t0: float) -> dict:
    return {
        "schema": SCHEMA,
        "task": task,
        "config": config,
        "values": values,
        "certificates": certificates,
        "timing": {"seconds": round(time.monotonic() - t0, 3)},
    }


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# flag -> config key for the flags that set one value
_SCALAR_FLAGS = {
    "p": "p", "prec": "M", "cutoff": "cutoff", "preset": "preset",
    "D": "D", "a": "a", "f": "f", "ell": "ell", "m": "m",
}


def _merge_flags(cfg: dict, args: argparse.Namespace) -> dict:
    out = dict(cfg)
    for attr, key in _SCALAR_FLAGS.items():
        if getattr(args, attr, None) is not None:
            out[key] = getattr(args, attr)
    for attr, flag in (("k", "-k"), ("caps", "--caps")):
        text = getattr(args, attr, None)
        if text is not None:
            try:
                out[attr] = [int(x) for x in text.split(",") if x != ""]
            except ValueError:
                raise ConfigError(
                    f"{flag} expects a comma-separated integer list, got {text!r}"
                ) from None
    return out


def _is_int(x, minimum: int | None = None) -> bool:
    """An integer (JSON booleans excluded), at least minimum when given."""
    return isinstance(x, int) and not isinstance(x, bool) and (minimum is None or x >= minimum)


def _int_list(val, length: int | None = None, minimum: int | None = None) -> bool:
    """A non-empty list of integers, of the given length and each at least
    minimum when those are given."""
    if not isinstance(val, list) or not val or len(val) != (length or len(val)):
        return False
    return all(_is_int(x, minimum) for x in val)


def _need(cfg: dict, key: str, kind, what: str):
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r} ({what})")
    val = cfg[key]
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise ConfigError(f"config key {key!r} must be {what}")
    return val


def _int_key(cfg: dict, key: str, default, minimum: int) -> int | None:
    val = cfg.get(key, default)
    if val is None and default is None:
        return None
    if not _is_int(val, minimum):
        raise ConfigError(f"config key {key!r} must be an integer >= {minimum}, got {val!r}")
    return val


def _caps(cfg: dict, nvars: int, default: tuple[int, ...]) -> tuple[int, ...]:
    caps = cfg.get("caps")
    if caps is None:
        return default
    if not _int_list(caps, nvars, 0):
        raise ConfigError(
            f"config key 'caps' must be a list of {nvars} integers >= 0, "
            f"one per variable, got {caps!r}"
        )
    return tuple(caps)


def _k_list(cfg: dict) -> list[int]:
    ks = cfg.get("k", [0, 1, 2])
    if not _int_list(ks, minimum=0):
        raise ConfigError("config key 'k' must be a non-empty list of integers >= 0")
    return ks


def _dimension(cfg: dict) -> int:
    n = _need(cfg, "n", int, "the ambient dimension, an integer >= 1")
    if n < 1:
        raise ConfigError(f"config key 'n' must be an integer >= 1, got {n}")
    return n


def _rational(key: str, x) -> Fraction:
    """An exact rational from a JSON integer or a "num/den" string; the
    ValueError otherwise names the key, for the caller's ConfigError."""
    if _is_int(x) or (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        return Fraction(x)
    raise ValueError(f'{key!r} must hold integers or "num/den" strings, got {x!r}')


def _rational_vector(key: str, v, n: int) -> tuple[Fraction, ...]:
    if not isinstance(v, list) or len(v) != n:
        raise ValueError(f"{key!r} must be a list of {n} rationals, got {v!r}")
    return tuple(_rational(key, x) for x in v)


def _rational_vectors(key: str, vs, n: int, count: int | None = None) -> tuple:
    """A list of `count` vectors (any number when None) of n rationals."""
    if not isinstance(vs, list) or (count is not None and len(vs) != count):
        what = "vectors" if count is None else f"{count} vectors"
        raise ValueError(f"{key!r} must be a list of {what}, got {vs!r}")
    return tuple(_rational_vector(key, v, n) for v in vs)


def _parse_test_function(cfg: dict, n: int, away: int | None = None) -> TestFunction:
    terms_cfg = _need(cfg, "terms", list, "a list of lattice terms")
    terms = []
    for t in terms_cfg:
        if not isinstance(t, dict):
            raise ConfigError("each term must be an object")
        try:
            lat = from_columns(_rational_vectors("basis", t.get("basis"), n, n))
            off = _rational_vector("offset", t.get("offset", [0] * n), n)
            terms.append((_rational("weight", t.get("weight", 1)), off, lat))
        except ValueError as exc:
            raise ConfigError(f"bad lattice term: {exc}") from None
    try:
        return TestFunction(n, tuple(terms), away)
    except ShintaniKitError as exc:
        raise ConfigError(f"bad test function: {exc}") from None


def _parse_cones(cfg: dict, n: int) -> ConeFunction:
    cones_cfg = _need(cfg, "cones", list, "a list of weighted cones")
    terms = []
    for c in cones_cfg:
        if not isinstance(c, dict):
            raise ConfigError("each cone must be an object")
        try:
            gens = _rational_vectors("generators", c.get("generators"), n)
            terms.append((_rational("weight", c.get("weight", 1)), OpenCone(gens)))
        except (ValueError, ShintaniKitError) as exc:
            raise ConfigError(f"bad cone: {exc}") from None
    return ConeFunction(terms)


def _field(cfg: dict) -> RealQuadraticField:
    D = _need(cfg, "D", int, "a squarefree integer > 1")
    try:
        return RealQuadraticField(D)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _class_ideal(cfg: dict, field: RealQuadraticField) -> IdealHNF:
    spec = cfg.get("class")
    if spec is None:
        return o_ideal(field)
    if not _int_list(spec, 3):
        raise ConfigError(
            f"config key 'class' must be three integers [a, b, d], got {spec!r}"
        )
    try:
        return IdealHNF(field, *spec)
    except ShintaniKitError as exc:
        raise ConfigError(f"bad class ideal: {exc}") from None


def _smoothing_prime(cfg: dict, field: RealQuadraticField, p: int) -> IdealHNF:
    ell = _need(cfg, "ell", int, "a prime with a degree-one prime above it")
    if not is_prime(ell):
        raise ConfigError(f"config key 'ell' must be a prime, got ell={ell}")
    if ell == p:
        raise ConfigError("smoothing prime must differ from p")
    primes = prime_above(field, ell)  # the degree-one primes over ell
    if not primes:
        raise ConfigError(f"no degree-one prime above {ell} in Q(sqrt({field.D}))")
    return primes[0]


# ---------------------------------------------------------------------------
# subcommands


def cmd_zeta(cfg: dict) -> tuple[dict, int]:
    t0 = time.monotonic()
    ks = _k_list(cfg)
    preset = cfg.get("preset", "custom")
    certificates: dict = {}

    if preset == "riemann":
        cfg.setdefault("a", 1)
        cfg.setdefault("f", 1)
        preset = "hurwitz"
    if preset == "hurwitz":
        a = _need(cfg, "a", int, "the coset offset")
        f = _need(cfg, "f", int, "the coset modulus")
        if not 1 <= a <= f:
            raise ConfigError("need 1 <= a <= f")
        fun = TestFunction(1, ((Fraction(1), (Fraction(a),), ((Fraction(f),),)),))
        cone = OpenCone(((1,),))
        vals = [special_value(fun, cone, k, std_norm(1)) for k in ks]
        oracle = [hurwitz_value(a, f, k) for k in ks]
        certificates["hurwitz_oracle"] = [_frac(v) for v in oracle]
        certificates["oracle_ok"] = vals == oracle
    elif preset == "rq-field":
        field = _field(cfg)
        vals = [field_zeta_value(field, k) for k in ks]
    elif preset == "custom":
        n = _dimension(cfg)
        fun = _parse_test_function(cfg, n)
        kappa = _parse_cones(cfg, n)
        norm_cfg = cfg.get("norm", "std")
        if norm_cfg == "std":
            ns = std_norm(n)
        elif isinstance(norm_cfg, str) and norm_cfg.startswith("quadratic:"):
            if n != 2:
                raise ConfigError("quadratic norm needs dimension 2")
            try:
                ns = quadratic_norm(int(norm_cfg.split(":", 1)[1]))
            except ValueError as exc:
                raise ConfigError(f"bad quadratic norm: {exc}") from None
        else:
            raise ConfigError("config key 'norm' must be 'std' or 'quadratic:D'")
        vals = [special_value(fun, kappa, k, ns) for k in ks]
    else:
        raise ConfigError(f"unknown preset {preset!r}")

    record = _record(
        "zeta",
        cfg,
        {"k": ks, "values": [_frac(v) for v in vals]},
        certificates,
        t0,
    )
    code = EXIT_OK if certificates.get("oracle_ok", True) else EXIT_MATH
    return record, code


def _hill_input(cfg: dict) -> tuple:
    """The matrices (n of them, n x n) and the optional nonzero points."""
    what = "a non-empty list of n square n x n matrices"
    mats = _need(cfg, "matrices", list, what)
    if not mats:
        raise ConfigError(f"config key 'matrices' must be {what}")
    n = len(mats)
    points = cfg.get("points")
    try:
        mats = tuple(_rational_vectors("matrices", m, n, n) for m in mats)
        if points is not None:
            points = _rational_vectors("points", points, n)
    except ValueError as exc:
        raise ConfigError(f"config key {exc}") from None
    if points is not None and any(not any(v) for v in points):
        raise ConfigError("config key 'points' must hold nonzero vectors")
    return mats, points


def cmd_hill(cfg: dict) -> tuple[dict, int]:
    t0 = time.monotonic()
    mats, points = _hill_input(cfg)
    try:
        t = GLTuple(mats)
        kappa = hill_cone_function(t)
    except DegenerateTuple as exc:
        raise ConfigError(f"degenerate matrix tuple: {exc}") from None
    except ShintaniKitError as exc:
        raise ConfigError(f"bad matrix tuple: {exc}") from None
    terms = [
        {"weight": _frac(w), "generators": [_vector(g) for g in cone.generators]}
        for w, cone in kappa.terms
    ]
    values = {"terms": terms, "constant": _frac(kappa.constant)}
    certificates: dict = {}
    code = EXIT_OK
    if points is not None:
        evals = []
        agree = True
        for v in points:
            direct = hill_eval(t, v)
            extracted = kappa.evaluate(v)
            evals.append(direct)
            agree = agree and direct == extracted
        values["evaluations"] = evals
        certificates["pointwise_match"] = agree
        if not agree:
            code = EXIT_MATH
    return _record("hill", cfg, values, certificates, t0), code


def _level_set(cfg: dict, p: int, n: int) -> PLevelSet:
    """The level set {"m": m, "offsets": [[...], ...]}; Z_p^n when absent."""
    level = cfg.get("level", {})
    if isinstance(level, dict):
        m = level.get("m", 0)
        offsets = level.get("offsets", [[0] * n])
        if (
            _is_int(m, 0)
            and isinstance(offsets, list)
            and offsets
            and all(_int_list(off, n) for off in offsets)
        ):
            return PLevelSet(p, m, n, tuple(tuple(off) for off in offsets))
    raise ConfigError(
        f"config key 'level' must be an object with \"m\" (an integer >= 0) and "
        f"\"offsets\" (a non-empty list of lists of {n} integers), got {level!r}"
    )


def cmd_measure(cfg: dict) -> tuple[dict, int]:
    t0 = time.monotonic()
    n = _dimension(cfg)
    p = _need(cfg, "p", int, "the residue prime")
    if not is_prime(p):
        raise ConfigError(f"config key 'p' must be a prime, got p={p}")
    fun = _parse_test_function(cfg, n, away=p)
    cones = _parse_cones(cfg, n)
    if len(cones.terms) != 1:
        raise ConfigError("measure checks take exactly one cone")
    cone = cones.terms[0][1]
    caps = _caps(cfg, n, (4,) * n)
    U = _level_set(cfg, p, n)
    verdict = is_measure(fun, cone, U)  # RouteDisagreement propagates
    values: dict = {"is_measure": verdict}
    certificates: dict = {"routes_agree": True}
    if verdict:
        series = amice_expand(pseudo_from_cone(fun, cone, U), caps)
        integral = all(is_p_integral(c, p) for c in series.coeffs.values())
        certificates["integral_coefficients"] = integral
        ks = _k_list(cfg)
        values["moments"] = {
            str(k): _frac(moment(series, (k,) * n)) for k in ks if k <= min(caps)
        }
        if not integral:
            return _record("measure", cfg, values, certificates, t0), EXIT_MATH
    return _record("measure", cfg, values, certificates, t0), EXIT_OK


def cmd_padic_zeta(cfg: dict) -> tuple[dict, int]:
    t0 = time.monotonic()
    conductor = _int_key(cfg, "conductor", 1, 1)
    ks = _k_list(cfg)
    M = _int_key(cfg, "M", 6, 1)
    levels = cfg.get("m", [0, 1])
    if isinstance(levels, int):
        levels = [levels]
    if not _int_list(levels, minimum=0):
        raise ConfigError("config key 'm' must be a level >= 0 or a non-empty list of them")
    caps = _caps(cfg, 2, (2 * max(ks),) * 2)
    field = _field(cfg)
    p = _need(cfg, "p", int, "an odd prime, unramified and prime to the conductor")
    cprime = _smoothing_prime(cfg, field, p)
    aideal = _class_ideal(cfg, field)
    ell = cprime.norm
    if math.gcd(ell, conductor * aideal.norm) > 1:
        raise ConfigError(f"config key 'ell' must be prime to conductor and class, got ell={ell}")
    rows = []
    all_ok = True
    integral = True
    for m in levels:
        try:
            series = smoothed_class_series(
                field, aideal, cprime, p, m, conductor, caps
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        integral = integral and all(
            is_p_integral(c, p) for c in series.coeffs.values()
        )
        for k in ks:
            pz = padic_partial_zeta(
                field, aideal, cprime, p, m, k, conductor, M=M, series=series
            )
            if m == 0:
                exact = exact_ray_class_zeta(
                    field, aideal, conductor, k, smoothing=cprime, star_at=p
                )
            else:
                exact = exact_ray_class_zeta(
                    field, aideal, conductor * p**m, k, smoothing=cprime
                )
            ok = pz.exact == exact
            all_ok = all_ok and ok
            rows.append(
                {
                    "m": m,
                    "k": k,
                    "padic": _scalar(pz.value),
                    "exact": _frac(exact),
                    "interpolation_ok": ok,
                }
            )
    values = {"table": rows}
    certificates = {"interpolation_ok": all_ok, "integral_coefficients": integral}
    code = EXIT_OK if all_ok and integral else EXIT_MATH
    return _record("padic-zeta", cfg, values, certificates, t0), code


def cmd_kubota_leopoldt(cfg: dict) -> tuple[dict, int]:
    t0 = time.monotonic()
    ks = _k_list(cfg)
    M = _int_key(cfg, "M", 8, 1)
    caps = _caps(cfg, 1, (max(2 * max(ks), 8),))
    cutoff = _int_key(cfg, "cutoff", None, 0)
    p = _need(cfg, "p", int, "an odd prime")
    if p < 3 or not is_prime(p):
        raise ConfigError(f"p must be an odd prime, got p={p}")
    ell = _need(cfg, "ell", int, "the smoothing modulus")
    if ell == p:
        raise ConfigError("smoothing prime must differ from p")
    try:
        kl = kubota_leopoldt(p, ell, caps=caps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = []
    oracle_ok = True
    for k in ks:
        exact = kl.moment(k)
        want = (1 - Fraction(ell) ** (k + 1)) * hurwitz_value(1, 1, k)
        ok = exact == want
        oracle_ok = oracle_ok and ok
        rows.append(
            {
                "k": k,
                "moment": _frac(exact),
                "value": _scalar(
                    kl.value_at(-k, twist=k, M=M, count=cutoff)
                ),
                "oracle_ok": ok,
            }
        )
    values = {"mass": _frac(kl.mass()), "table": rows}
    certificates = {
        "oracle_ok": oracle_ok,
        "integral_coefficients": all(
            is_p_integral(c, p) for c in kl.series.coeffs.values()
        ),
    }
    good = oracle_ok and certificates["integral_coefficients"]
    return _record("kubota-leopoldt", cfg, values, certificates, t0), (
        EXIT_OK if good else EXIT_MATH
    )


def cmd_selftest(cfg: dict, level: str, tamper: bool) -> tuple[dict, int]:
    t0 = time.monotonic()
    if tamper:
        selftest_mod.tamper_bernoulli()
    results = selftest_mod.run(level)
    ok = all(r["ok"] for r in results)
    values = {
        "level": level,
        "checks": results,
        "passed": sum(r["ok"] for r in results),
        "failed": sum(not r["ok"] for r in results),
    }
    certificates = {"all_ok": ok, "tampered": tamper}
    return _record("selftest", cfg, values, certificates, t0), (
        EXIT_OK if ok else EXIT_MATH
    )


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shintani-kit",
        description="Exact cone zeta values, perturbed cone cocycles, and "
        "p-adic measures for real quadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="path to a JSON config file")
        sp.add_argument("--out", help="write the JSON record here instead of stdout")
        sp.add_argument("-k", help="comma-separated list of k values")
        sp.add_argument("--p", type=int, help="residue prime")
        sp.add_argument("--prec", type=int, help="p-adic working precision M")
        sp.add_argument("--caps", help="comma-separated per-variable degree caps")
        sp.add_argument("--cutoff", type=int, help="Mahler truncation cutoff")

    for name in ("zeta", "hill", "measure", "padic-zeta", "kubota-leopoldt"):
        sp = sub.add_parser(name)
        common(sp)
        if name == "zeta":
            sp.add_argument("--preset", choices=["riemann", "hurwitz", "rq-field"])
            sp.add_argument("--D", type=int, help="squarefree D for rq-field")
            sp.add_argument("--a", type=int, help="hurwitz offset")
            sp.add_argument("--f", type=int, help="hurwitz modulus")
        if name == "padic-zeta":
            sp.add_argument("--D", type=int, help="squarefree D of the field")
            sp.add_argument("--ell", type=int, help="smoothing prime")
            sp.add_argument("--m", type=int, help="interpolation level")
        if name == "kubota-leopoldt":
            sp.add_argument("--ell", type=int, help="smoothing modulus")

    sp = sub.add_parser("selftest")
    common(sp)
    tier = sp.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", help="smoke tier (default)")
    tier.add_argument("--full", action="store_true", help="complete tier")
    sp.add_argument(
        "--tamper-bernoulli",
        action="store_true",
        help="corrupt a cached constant first; the run must then fail",
    )
    return parser


def _emit(record: dict, out_path: str | None) -> None:
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        cfg = _merge_flags(cfg, args)
        if args.command == "zeta":
            record, code = cmd_zeta(cfg)
        elif args.command == "hill":
            record, code = cmd_hill(cfg)
        elif args.command == "measure":
            record, code = cmd_measure(cfg)
        elif args.command == "padic-zeta":
            record, code = cmd_padic_zeta(cfg)
        elif args.command == "kubota-leopoldt":
            record, code = cmd_kubota_leopoldt(cfg)
        else:
            level = "full" if args.full else "quick"
            record, code = cmd_selftest(cfg, level, args.tamper_bernoulli)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ShintaniKitError as exc:
        record = {
            "schema": SCHEMA,
            "task": args.command,
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        }
        _emit(record, args.out)
        return EXIT_MATH
    _emit(record, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
