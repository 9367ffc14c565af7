"""Batch command line front end.

Runs are driven by a declarative JSON config (``--config``) with optional
flag overrides, and emit one JSON record per run with versioned schema
"shintani-kit/1".  Exact rationals are printed as "num/den" strings and
p-adic scalars as {residue, p, M, guard} objects, so no value is shown
beyond its effective precision.

One table, COMMANDS, lists every config key each subcommand reads (zeta's
per preset) with its flag where it has one.  It drives the flags, their
merging, the dispatch and the integer readers.  A key the subcommand does
not read, also inside ``terms``, ``cones`` or ``level``, exits 2 naming it.

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
from typing import NamedTuple

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


_REQUIRED = object()  # the default of a key that must be given


class Key(NamedTuple):
    """How a subcommand reads one config key: the flag that sets it (None:
    config only) and the flag's argparse type; for the readers _int and
    _ints the least value, the default for an absent or null key (_REQUIRED:
    it must be given) and a list's length (None: any); and the keys read
    inside its object, or inside each object of its list."""

    flag: str | None = None
    type: object = None
    help: str | None = None
    least: int | None = None
    default: object = None
    length: int | None = None
    nested: dict | None = None


def _comma_ints(text: str) -> list[int] | str:
    """A flag's comma-separated integer list; other text is kept for _ints
    to refuse."""
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        return text


def _is_int(x, minimum: int | None = None) -> bool:
    """An integer (JSON booleans excluded), at least minimum when given."""
    return isinstance(x, int) and not isinstance(x, bool) and (minimum is None or x >= minimum)


def _int_list(val, length: int | None = None, minimum: int | None = None) -> bool:
    """A non-empty list of integers, of the given length and each at least
    minimum when those are given."""
    if not isinstance(val, list) or not val or len(val) != (length or len(val)):
        return False
    return all(_is_int(x, minimum) for x in val)


def _need(cfg: dict, key: str, what: str) -> list:
    """The list at a key that must be given."""
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r} ({what})")
    if not isinstance(cfg[key], list):
        raise ConfigError(f"config key {key!r} must be {what}")
    return cfg[key]


def _int(cfg: dict, keys: dict, key: str) -> int | None:
    """The integer at `key`, at least the table's least value; the table's
    default when the key is absent or null."""
    spec = keys[key]
    val = cfg.get(key)
    if val is None:
        if spec.default is _REQUIRED:
            raise ConfigError(f"missing config key {key!r} ({spec.help})")
        return spec.default
    if not _is_int(val, spec.least):
        bound = "" if spec.least is None else f" >= {spec.least}"
        raise ConfigError(f"config key {key!r} must be an integer{bound}, got {val!r}")
    return val


def _ints(cfg: dict, keys: dict, key: str, length: int | None = None) -> tuple | None:
    """The non-empty integer list at `key`, of the table's length (or the
    given one) and each entry at least the table's least value; the table's
    default when the key is absent or null.  A key whose flag takes one
    integer (padic-zeta's m) may be one integer in a config too."""
    spec = keys[key]
    length = length or spec.length
    val = cfg.get(key)
    if val is None:
        return spec.default
    if spec.type is int and _is_int(val):
        val = [val]
    if not _int_list(val, length, spec.least):
        what = "a non-empty list of" if length is None else f"a list of {length}"
        bound = "" if spec.least is None else f" >= {spec.least}"
        raise ConfigError(f"config key {key!r} must be {what} integers{bound}, got {val!r}")
    return tuple(val)


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
    terms_cfg = _need(cfg, "terms", "a list of lattice terms")
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
    cones_cfg = _need(cfg, "cones", "a list of weighted cones")
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


def _field(cfg: dict, keys: dict) -> RealQuadraticField:
    D = _int(cfg, keys, "D")
    try:
        return RealQuadraticField(D)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _class_ideal(cfg: dict, keys: dict, field: RealQuadraticField) -> IdealHNF:
    abd = _ints(cfg, keys, "class")
    if abd is None:
        return o_ideal(field)
    try:
        return IdealHNF(field, *abd)
    except ShintaniKitError as exc:
        raise ConfigError(f"bad class ideal: {exc}") from None


def _smoothing_prime(cfg: dict, keys: dict, field: RealQuadraticField, p: int) -> IdealHNF:
    ell = _int(cfg, keys, "ell")
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


def cmd_zeta(cfg: dict, keys: dict, args: argparse.Namespace) -> tuple[dict, int]:
    t0 = time.monotonic()
    ks = _ints(cfg, keys, "k")
    preset = cfg.get("preset", "custom")
    certificates: dict = {}

    if preset in ("riemann", "hurwitz"):
        a, f = (1, 1) if preset == "riemann" else (_int(cfg, keys, "a"), _int(cfg, keys, "f"))
        cfg.update(a=a, f=f)  # a riemann record shows it as hurwitz at a = f = 1
        if not 1 <= a <= f:
            raise ConfigError("need 1 <= a <= f")
        fun = TestFunction(1, ((Fraction(1), (Fraction(a),), ((Fraction(f),),)),))
        cone = OpenCone(((1,),))
        vals = [special_value(fun, cone, k, std_norm(1)) for k in ks]
        oracle = [hurwitz_value(a, f, k) for k in ks]
        certificates["hurwitz_oracle"] = [_frac(v) for v in oracle]
        certificates["oracle_ok"] = vals == oracle
    elif preset == "rq-field":
        field = _field(cfg, keys)
        vals = [field_zeta_value(field, k) for k in ks]
    else:
        n = _int(cfg, keys, "n")
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

    record = _record("zeta", cfg, {"k": ks, "values": [_frac(v) for v in vals]}, certificates, t0)
    return record, EXIT_OK if certificates.get("oracle_ok", True) else EXIT_MATH


def _hill_input(cfg: dict) -> tuple:
    """The matrices (n of them, n x n) and the optional nonzero points."""
    what = "a non-empty list of n square n x n matrices"
    mats = _need(cfg, "matrices", what)
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


def cmd_hill(cfg: dict, keys: dict, args: argparse.Namespace) -> tuple[dict, int]:
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


def cmd_measure(cfg: dict, keys: dict, args: argparse.Namespace) -> tuple[dict, int]:
    t0 = time.monotonic()
    n = _int(cfg, keys, "n")
    p = _int(cfg, keys, "p")
    if not is_prime(p):
        raise ConfigError(f"config key 'p' must be a prime, got p={p}")
    fun = _parse_test_function(cfg, n, away=p)
    cones = _parse_cones(cfg, n)
    if len(cones.terms) != 1:
        raise ConfigError("measure checks take exactly one cone")
    cone = cones.terms[0][1]
    caps = _ints(cfg, keys, "caps", n) or (4,) * n
    ks = _ints(cfg, keys, "k")
    if max(ks) > min(caps):
        raise ConfigError(
            f"config key 'k' must stay within min(caps) = {min(caps)}, got k = {max(ks)}"
        )
    U = _level_set(cfg, p, n)
    verdict = is_measure(fun, cone, U)  # RouteDisagreement propagates
    values: dict = {"is_measure": verdict}
    certificates: dict = {"routes_agree": True}
    if verdict:
        series = amice_expand(pseudo_from_cone(fun, cone, U), caps)
        integral = all(is_p_integral(c, p) for c in series.coeffs.values())
        certificates["integral_coefficients"] = integral
        values["moments"] = {str(k): _frac(moment(series, (k,) * n)) for k in ks}
        if not integral:
            return _record("measure", cfg, values, certificates, t0), EXIT_MATH
    return _record("measure", cfg, values, certificates, t0), EXIT_OK


def cmd_padic_zeta(cfg: dict, keys: dict, args: argparse.Namespace) -> tuple[dict, int]:
    t0 = time.monotonic()
    conductor = _int(cfg, keys, "conductor")
    ks = _ints(cfg, keys, "k")
    M = _int(cfg, keys, "M")
    levels = _ints(cfg, keys, "m")
    caps = _ints(cfg, keys, "caps") or (2 * max(ks),) * 2
    field = _field(cfg, keys)
    p = _int(cfg, keys, "p")
    cprime = _smoothing_prime(cfg, keys, field, p)
    aideal = _class_ideal(cfg, keys, field)
    ell = cprime.norm
    if math.gcd(ell, conductor * aideal.norm) > 1:
        raise ConfigError(f"config key 'ell' must be prime to conductor and class, got ell={ell}")
    rows = []
    all_ok = True
    integral = True
    for m in levels:
        try:
            series = smoothed_class_series(field, aideal, cprime, p, m, conductor, caps)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        integral = integral and all(is_p_integral(c, p) for c in series.coeffs.values())
        for k in ks:
            pz = padic_partial_zeta(field, aideal, cprime, p, m, k, conductor, M=M, series=series)
            # level 0 removes the p-divisible part; level m >= 1 sits inside p^m
            exact = exact_ray_class_zeta(
                field, aideal, conductor * p**m, k, smoothing=cprime, star_at=None if m else p
            )
            ok = pz.exact == exact
            all_ok = all_ok and ok
            rows.append({"m": m, "k": k, "padic": _scalar(pz.value), "exact": _frac(exact),
                         "interpolation_ok": ok})
    values = {"table": rows}
    certificates = {"interpolation_ok": all_ok, "integral_coefficients": integral}
    code = EXIT_OK if all_ok and integral else EXIT_MATH
    return _record("padic-zeta", cfg, values, certificates, t0), code


def cmd_kubota_leopoldt(cfg: dict, keys: dict, args: argparse.Namespace) -> tuple[dict, int]:
    t0 = time.monotonic()
    ks = _ints(cfg, keys, "k")
    M = _int(cfg, keys, "M")
    caps = _ints(cfg, keys, "caps") or (max(2 * max(ks), 8),)
    cutoff = _int(cfg, keys, "cutoff")
    p = _int(cfg, keys, "p")
    if p < 3 or not is_prime(p):
        raise ConfigError(f"p must be an odd prime, got p={p}")
    ell = _int(cfg, keys, "ell")
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
        value = _scalar(kl.value_at(-k, twist=k, M=M, count=cutoff))
        rows.append({"k": k, "moment": _frac(exact), "value": value, "oracle_ok": ok})
    values = {"mass": _frac(kl.mass()), "table": rows}
    integral = all(is_p_integral(c, p) for c in kl.series.coeffs.values())
    certificates = {"oracle_ok": oracle_ok, "integral_coefficients": integral}
    code = EXIT_OK if oracle_ok and integral else EXIT_MATH
    return _record("kubota-leopoldt", cfg, values, certificates, t0), code


def cmd_selftest(cfg: dict, keys: dict, args: argparse.Namespace) -> tuple[dict, int]:
    t0 = time.monotonic()
    level = "full" if args.full else "quick"
    if args.tamper_bernoulli:
        selftest_mod.tamper_bernoulli()
    results = selftest_mod.run(level)
    ok = all(r["ok"] for r in results)
    values = {
        "level": level,
        "checks": results,
        "passed": sum(r["ok"] for r in results),
        "failed": sum(not r["ok"] for r in results),
    }
    certificates = {"all_ok": ok, "tampered": args.tamper_bernoulli}
    return _record("selftest", cfg, values, certificates, t0), EXIT_OK if ok else EXIT_MATH


# ---------------------------------------------------------------------------
# the key table, argument parsing and dispatch

_K = Key("-k", _comma_ints, "comma-separated list of k values", 0, (0, 1, 2))
_P = Key("--p", int, "residue prime", default=_REQUIRED)
_D = Key("--D", int, "squarefree D of the field", default=_REQUIRED)
_ELL = Key("--ell", int, "smoothing prime", default=_REQUIRED)
_PREC = Key("--prec", int, "p-adic working precision M", 1, 6)
_CAPS = Key("--caps", _comma_ints, "comma-separated per-variable degree caps", 0)
_N = Key(help="the ambient dimension", least=1, default=_REQUIRED)
_TERMS = Key(nested=dict.fromkeys(("weight", "offset", "basis"), Key()))
_CONES = Key(nested=dict.fromkeys(("weight", "generators"), Key()))
_ZETA = {"preset": Key("--preset"), "k": _K}

ZETA_PRESETS = {
    "riemann": _ZETA,
    "hurwitz": {**_ZETA, "a": Key("--a", int, "hurwitz offset", default=_REQUIRED),
                "f": Key("--f", int, "hurwitz modulus", default=_REQUIRED)},
    "rq-field": {**_ZETA, "D": _D},
    "custom": {**_ZETA, "n": _N, "terms": _TERMS, "cones": _CONES, "norm": Key()},
}

# subcommand -> (its function, every config key it reads); zeta's entry is
# the union over its presets, and a zeta run reads its preset's keys only
COMMANDS = {
    "zeta": (cmd_zeta, {k: v for keys in ZETA_PRESETS.values() for k, v in keys.items()}),
    "hill": (cmd_hill, {"matrices": Key(), "points": Key()}),
    "measure": (cmd_measure, {
        "n": _N, "p": _P, "terms": _TERMS, "cones": _CONES, "caps": _CAPS, "k": _K,
        "level": Key(nested=dict.fromkeys(("m", "offsets"), Key())),
    }),
    "padic-zeta": (cmd_padic_zeta, {
        "D": _D, "p": _P, "ell": _ELL, "m": Key("--m", int, "interpolation level", 0, (0, 1)),
        "k": _K, "M": _PREC, "caps": _CAPS._replace(length=2),
        "conductor": Key(least=1, default=1), "class": Key(length=3),
    }),
    "kubota-leopoldt": (cmd_kubota_leopoldt, {
        "p": _P, "ell": _ELL._replace(help="smoothing modulus"), "k": _K,
        "M": _PREC._replace(default=8), "caps": _CAPS._replace(length=1),
        "cutoff": Key("--cutoff", int, "Mahler truncation cutoff", 0),
    }),
    "selftest": (cmd_selftest, {}),
}


def _keys_read(command: str, cfg: dict) -> tuple[dict, str]:
    """The keys `command` reads from this config (zeta: its preset's), and
    the name of their reader."""
    if command != "zeta":
        return COMMANDS[command][1], command
    presets, preset = list(ZETA_PRESETS), cfg.get("preset", "custom")
    if preset not in presets:  # a list: an unhashable value is refused, not raised on
        raise ConfigError(f"config key 'preset' must be one of {presets}, got {preset!r}")
    return ZETA_PRESETS[preset], f"zeta preset {preset!r}"


def _refuse_unread(cfg: dict, keys: dict, reader: str, at: str = "") -> None:
    """Refuse a key `reader` does not read, at the top level and in the
    object, or each object of the list, under a key with nested keys."""
    for key, val in cfg.items():
        if key not in keys:
            reads = ", ".join(map(repr, keys)) or "none"
            raise ConfigError(f"{reader} does not read config key {key!r}{at}; it reads {reads}")
        for obj in val if isinstance(val, list) else [val]:
            if keys[key].nested and isinstance(obj, dict):
                _refuse_unread(obj, keys[key].nested, reader, f" in {key!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shintani-kit",
        description="Exact cone zeta values, perturbed cone cocycles, and "
        "p-adic measures for real quadratic fields.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="path to a JSON config file")
        sp.add_argument("--out", help="write the JSON record here instead of stdout")
        for key, spec in keys.items():
            if spec.flag:
                choices = list(ZETA_PRESETS) if key == "preset" else None
                sp.add_argument(spec.flag, dest=key, type=spec.type, choices=choices,
                                help=spec.help)
    # the selftest flags set no config key
    sp = sub.choices["selftest"]
    tier = sp.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", help="smoke tier (default)")
    tier.add_argument("--full", action="store_true", help="complete tier")
    sp.add_argument(
        "--tamper-bernoulli", action="store_true",
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
    args = build_parser().parse_args(argv)
    run, flagged = COMMANDS[args.command]
    flags = {key: val for key, val in vars(args).items() if key in flagged and val is not None}
    try:
        cfg = {**_load_config(args.config), **flags}
        keys, reader = _keys_read(args.command, cfg)
        _refuse_unread(cfg, keys, reader)
        record, code = run(cfg, keys, args)
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
