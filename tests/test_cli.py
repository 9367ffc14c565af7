"""Command line front end: presets, config handling, exit codes, record
shape, and the selftest canary."""

import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shintani_kit import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_riemann_preset(capsys):
    code, rec = run_cli(capsys, ["zeta", "--preset", "riemann", "-k", "0,1"])
    assert code == 0
    assert rec["schema"] == "shintani-kit/1"
    assert rec["values"]["values"] == ["-1/2", "-1/12"]
    assert rec["certificates"]["oracle_ok"] is True


def test_riemann_deeper_values(capsys):
    code, rec = run_cli(capsys, ["zeta", "--preset", "riemann", "-k", "2,3"])
    assert code == 0
    assert rec["values"]["values"] == ["0/1", "1/120"]


def test_hurwitz_preset(capsys):
    code, rec = run_cli(
        capsys, ["zeta", "--preset", "hurwitz", "--a", "1", "--f", "3", "-k", "1"]
    )
    assert code == 0
    assert rec["values"]["values"] == ["1/12"]
    assert rec["certificates"]["hurwitz_oracle"] == ["1/12"]


def test_rq_field_preset(capsys):
    code, rec = run_cli(capsys, ["zeta", "--preset", "rq-field", "--D", "5", "-k", "0,1"])
    assert code == 0
    assert rec["values"]["values"] == ["0/1", "1/30"]


def test_custom_zeta_config(tmp_path, capsys):
    cfg = {
        "n": 1,
        "terms": [{"weight": 1, "offset": [2], "basis": [[5]]}],
        "cones": [{"weight": 1, "generators": [[1]]}],
        "k": [0, 1],
    }
    path = tmp_path / "zeta.json"
    path.write_text(json.dumps(cfg))
    code, rec = run_cli(capsys, ["zeta", "--config", str(path)])
    assert code == 0
    # 2 + 5Z: matches the closed Bernoulli form
    assert rec["values"]["values"] == ["1/10", "11/60"]


def test_zeta_rejects_unknown_preset(capsys):
    # argparse enforces the preset choices itself
    with pytest.raises(SystemExit) as exc:
        cli.main(["zeta", "--preset", "euler"])
    assert exc.value.code == 2


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["zeta", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"preset": "hurwitz", "f": 3}))
    assert cli.main(["zeta", "--config", str(missing)]) == 2
    assert "'a'" in capsys.readouterr().err

    assert cli.main(["zeta", "--preset", "rq-field", "--D", "12", "-k", "1"]) == 2
    assert cli.main(["zeta", "--preset", "riemann", "-k", "1,x"]) == 2

    base = {
        "n": 2,
        "terms": [{"weight": 1, "offset": [0, 0], "basis": [[1, 0], [0, 1]]}],
        "k": [0],
    }
    bad_cones = [
        [{"weight": "abc", "generators": [[1, 0], [0, 1]]}],
        [{"weight": 1, "generators": [[1, 1], [2, 2]]}],
    ]
    for cones in bad_cones:
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(dict(base, cones=cones)))
        capsys.readouterr()
        assert cli.main(["zeta", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bad cone" in captured.err
        assert captured.out == ""

    # numeric keys are checked before any arithmetic
    padic = {"D": 5, "p": 3, "ell": 11, "k": [0], "m": 0, "caps": [2, 2]}
    kl = {"p": 5, "ell": 2, "k": [1]}
    measure = {
        "n": 1,
        "p": 3,
        "terms": [
            {"weight": 1, "offset": [0], "basis": [[1]]},
            {"weight": -2, "offset": [0], "basis": [[2]]},
        ],
        "cones": [{"weight": 1, "generators": [[1]]}],
        "k": [0],
    }
    bad_numeric = [
        ("padic-zeta", dict(padic, caps=[2.5, 2]), "'caps'"),
        ("padic-zeta", dict(padic, caps="ab"), "'caps'"),
        ("padic-zeta", dict(padic, caps=[2]), "'caps'"),
        ("padic-zeta", dict(padic, M="6"), "'M'"),
        ("padic-zeta", dict(padic, M=0), "'M'"),
        ("padic-zeta", dict(padic, conductor="x"), "'conductor'"),
        ("padic-zeta", dict(padic, conductor=0), "'conductor'"),
        ("kubota-leopoldt", dict(kl, caps=[True]), "'caps'"),
        ("measure", dict(measure, caps=[2.5]), "'caps'"),
        ("kubota-leopoldt", dict(kl, M="6"), "'M'"),
        ("kubota-leopoldt", dict(kl, M=0), "'M'"),
        ("kubota-leopoldt", dict(kl, cutoff="x"), "'cutoff'"),
        ("kubota-leopoldt", dict(kl, cutoff=-1), "'cutoff'"),
    ]
    for command, cfg, key in bad_numeric:
        path = tmp_path / "numeric.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert cli.main([command, "--config", str(path)]) == 2, (command, cfg)
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""

    # malformed values of every shape exit 2 and name the key, never a
    # traceback or a math-error record
    hill = {"matrices": [[[1, 0], [0, 1]], [[1, 1], [1, 2]]], "points": [[3, 1]]}
    term = {"weight": 1, "offset": [0, 0], "basis": [[1, 0], [0, 1]]}
    custom = dict(base, cones=[{"generators": [[1, 1], [1, 2]]}])
    malformed = [
        ("measure", dict(measure, level=5), "'level'"),
        ("measure", dict(measure, level={"m": 1.7, "offsets": [[1]]}), "'level'"),
        ("measure", dict(measure, p=4), "'p'"),
        ("hill", dict(hill, points=5), "'points'"),
        ("hill", dict(hill, points=[["a", 1]]), "'points'"),
        ("hill", dict(hill, matrices=[]), "'matrices'"),
        ("hill", dict(hill, matrices=[[[1, "x"], [0, 1]], [[1, 1], [1, 2]]]), "'matrices'"),
        ("hill", dict(hill, points=[[0, 0]]), "'points'"),
        ("zeta", dict(custom, terms=[dict(term, offset=5)]), "'offset'"),
        ("padic-zeta", dict(padic, **{"class": [1, "x", 1]}), "'class'"),
        ("padic-zeta", dict(padic, ell=4), "'ell'"),
        ("padic-zeta", dict(padic, conductor=11), "'ell'"),
        ("padic-zeta", dict(padic, **{"class": [11, 3, 1]}), "'ell'"),
        # keys the subcommand does not read, at the top level and nested
        ("zeta", dict(custom, p=3), "'p'"),
        ("zeta", {"preset": "riemann", "k": [1], "a": 2}, "'a'"),
        ("zeta", {"preset": "rq-field", "D": 5, "k": [1], "n": 2}, "'n'"),
        ("zeta", dict(custom, terms=[dict(term, offest=[1, 0])]), "'offest'"),
        ("hill", dict(hill, k=[0]), "'k'"),
        ("measure", dict(measure, M=4), "'M'"),
        ("measure", dict(measure, terms=[{"wieght": 1, "offset": [0], "basis": [[1]]}]), "'wieght'"),
        ("measure", dict(measure, cones=[{"generator": [[1]]}]), "'generator'"),
        ("measure", dict(measure, level={"m": 1, "ofsets": [[1]]}), "'ofsets'"),
        ("padic-zeta", dict(padic, cap=[6, 6]), "'cap'"),
        ("kubota-leopoldt", dict(kl, m=1), "'m'"),
        ("selftest", {"level": "full"}, "'level'"),
        # moments beyond the smallest cap are refused, not dropped
        ("measure", dict(measure, k=[0, 1, 5, 9], caps=[4]), "'k' must stay within min(caps) = 4"),
    ]
    for command, cfg, key in malformed:
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert cli.main([command, "--config", str(path)]) == 2, (command, cfg)
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""


# flags the subcommand does not read, and an abbreviation of --ell
_UNREAD_FLAGS = [
    *(("zeta", flag) for flag in ("--p", "--prec", "--caps", "--cutoff")),
    *(("hill", flag) for flag in ("-k", "--p", "--prec", "--caps", "--cutoff")),
    ("measure", "--prec"),
    ("measure", "--cutoff"),
    ("padic-zeta", "--cutoff"),
    *(("selftest", flag) for flag in ("-k", "--p", "--prec", "--caps", "--cutoff")),
    ("padic-zeta", "--el"),
]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS)
def test_unread_and_abbreviated_flags_are_refused(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, "3"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_hill_terms_and_points(tmp_path, capsys):
    cfg = {
        "matrices": [[[1, 0], [0, 1]], [[1, 1], [1, 2]]],
        "points": [[3, 1], [1, 1], [-2, 5], ["1/2", "3/4"], ["-2", 5]],
    }
    path = tmp_path / "hill.json"
    path.write_text(json.dumps(cfg))
    code, rec = run_cli(capsys, ["hill", "--config", str(path)])
    assert code == 0
    assert rec["values"]["evaluations"] == [1, 1, 0, 0, 0]
    assert rec["certificates"]["pointwise_match"] is True
    gens = [t["generators"] for t in rec["values"]["terms"]]
    assert [["1/1", "1/1"]] in gens  # the shared edge appears as a ray


def test_hill_degenerate_tuple_is_config_error(tmp_path, capsys):
    cfg = {"matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}
    path = tmp_path / "hill.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["hill", "--config", str(path)]) == 2
    assert "degenerate" in capsys.readouterr().err


def test_measure_smoothed_and_unsmoothed(tmp_path, capsys):
    smoothed = {
        "n": 1,
        "p": 3,
        "terms": [
            {"weight": 1, "offset": [0], "basis": [[1]]},
            {"weight": -2, "offset": [0], "basis": [[2]]},
        ],
        "cones": [{"weight": 1, "generators": [[1]]}],
        "k": [0, 1],
        "caps": [6],
    }
    path = tmp_path / "meas.json"
    path.write_text(json.dumps(smoothed))
    code, rec = run_cli(capsys, ["measure", "--config", str(path)])
    assert code == 0
    assert rec["values"]["is_measure"] is True
    assert rec["values"]["moments"] == {"0": "1/2", "1": "1/4"}
    assert rec["certificates"] == {"routes_agree": True, "integral_coefficients": True}

    unsmoothed = dict(smoothed, terms=[{"weight": 1, "offset": [0], "basis": [[1]]}])
    path.write_text(json.dumps(unsmoothed))
    code, rec = run_cli(capsys, ["measure", "--config", str(path)])
    assert code == 0
    assert rec["values"]["is_measure"] is False
    assert "moments" not in rec["values"]


def test_padic_zeta_interpolation(capsys):
    code, rec = run_cli(
        capsys,
        ["padic-zeta", "--D", "5", "--p", "3", "--ell", "11", "--m", "1", "-k", "0,1,2"],
    )
    assert code == 0
    assert rec["certificates"]["interpolation_ok"] is True
    assert rec["certificates"]["integral_coefficients"] is True
    rows = rec["values"]["table"]
    assert [r["exact"] for r in rows] == ["4/1", "16/1", "2368/1"]
    assert all(r["interpolation_ok"] for r in rows)
    v = rows[2]["padic"]
    assert v["p"] == 3 and v["M"] == 6 and v["residue"] == 2368 % 3**6


def test_padic_zeta_rejects_ell_equal_p(capsys):
    code = cli.main(["padic-zeta", "--D", "5", "--p", "11", "--ell", "11", "-k", "1"])
    assert code == 2
    assert "smoothing prime must differ from p" in capsys.readouterr().err


def test_padic_zeta_rejects_inert_ell(capsys):
    code = cli.main(["padic-zeta", "--D", "5", "--p", "11", "--ell", "3", "-k", "1"])
    assert code == 2
    assert "degree-one" in capsys.readouterr().err


def test_kubota_leopoldt_command(capsys):
    code, rec = run_cli(capsys, ["kubota-leopoldt", "--p", "3", "--ell", "2", "-k", "0,1"])
    assert code == 0
    assert rec["values"]["mass"] == "1/2"
    assert [r["moment"] for r in rec["values"]["table"]] == ["1/2", "1/4"]
    assert rec["certificates"]["oracle_ok"] is True
    for row in rec["values"]["table"]:
        assert set(row["value"]) == {"residue", "p", "M", "guard"}


def test_kubota_leopoldt_rejects_composite_p(capsys):
    assert cli.main(["kubota-leopoldt", "--p", "4", "--ell", "3"]) == 2
    assert "p=4" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli.main(["zeta", "--preset", "riemann", "-k", "0", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rec = json.loads(out.read_text())
    assert rec["values"]["values"] == ["-1/2"]


def test_selftest_quick(capsys):
    code, rec = run_cli(capsys, ["selftest", "--quick"])
    assert code == 0
    assert rec["certificates"]["all_ok"] is True
    names = [c["name"] for c in rec["values"]["checks"]]
    assert "bernoulli-constants" in names and "interpolation-quick" in names
    assert rec["values"]["failed"] == 0


def test_selftest_full(capsys):
    code, rec = run_cli(capsys, ["selftest", "--full"])
    assert code == 0
    assert rec["certificates"]["all_ok"] is True
    assert len(rec["values"]["checks"]) == 17
    assert all(c["ok"] for c in rec["values"]["checks"])
    assert (rec["values"]["passed"], rec["values"]["failed"]) == (17, 0)


def test_selftest_tamper_canary_fails_in_subprocess():
    # run in a subprocess so the corrupted cache cannot leak into this one
    proc = subprocess.run(
        [sys.executable, "-m", "shintani_kit.cli", "selftest", "--quick", "--tamper-bernoulli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    rec = json.loads(proc.stdout)
    assert rec["certificates"]["tampered"] is True
    failed = [c["name"] for c in rec["values"]["checks"] if not c["ok"]]
    assert "bernoulli-constants" in failed


def test_determinism_byte_identical():
    argv = [
        sys.executable, "-m", "shintani_kit.cli",
        "zeta", "--preset", "rq-field", "--D", "5", "-k", "0,1",
    ]
    outs = []
    for _ in range(2):
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        del rec["timing"]
        outs.append(json.dumps(rec, sort_keys=True))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# fuzzing: one key of a small valid config replaced by an arbitrary value

_MEASURE = {
    "n": 1,
    "p": 3,
    "terms": [
        {"weight": 1, "offset": [0], "basis": [[1]]},
        {"weight": -2, "offset": [0], "basis": [[2]]},
    ],
    "cones": [{"weight": 1, "generators": [[1]]}],
    "level": {"m": 1, "offsets": [[1]]},
    "k": [0, 1],
    "caps": [4],
}
_FUZZ_BASES = [
    ("zeta", {"preset": "riemann", "k": [0, 1]}),
    ("zeta", {"preset": "hurwitz", "a": 1, "f": 3, "k": [1]}),
    ("zeta", {"preset": "rq-field", "D": 5, "k": [1]}),
    (
        "zeta",
        {
            "preset": "custom",
            "n": 2,
            "norm": "quadratic:5",
            "terms": [{"weight": 1, "offset": [0, 0], "basis": [[1, 0], [0, 1]]}],
            "cones": [{"weight": 1, "generators": [[1, 0], [2, 1]]}],
            "k": [0, 1],
        },
    ),
    ("hill", {"matrices": [[[1, 0], [0, 1]], [[1, 1], [1, 2]]], "points": [[3, 1], ["1/2", 2]]}),
    ("measure", _MEASURE),
    (
        "padic-zeta",
        {
            "D": 5, "p": 3, "ell": 11, "k": [0], "m": 1, "caps": [2, 2],
            "M": 4, "conductor": 1, "class": [1, 0, 1],
        },
    ),
    ("kubota-leopoldt", {"p": 3, "ell": 2, "k": [0, 1], "caps": [4], "M": 4, "cutoff": 3}),
]
# Valid large values of these padic-zeta keys are legitimate but slow (the
# level m costs p^m residues, the conductor the order of the ray unit,
# caps the square of the Amice expansion), so their integers stay small.
_SLOW_PADIC_KEYS = {"m", "conductor", "caps"}


def _key_paths(obj, prefix=()):
    """Every key path into nested objects and lists."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield prefix + (key,)
        yield from _key_paths(val, prefix + (key,))


_FUZZ_CASES = [
    (command, base, path) for command, base in _FUZZ_BASES for path in _key_paths(base)
]


def _table_paths(keys):
    for key, spec in keys.items():
        yield (key,)
        yield from ((key, inner) for inner in spec.nested or ())


_READERS = [
    (command, None, keys) for command, (_, keys) in cli.COMMANDS.items() if command != "zeta"
] + [("zeta", preset, keys) for preset, keys in cli.ZETA_PRESETS.items()]


@pytest.mark.parametrize(
    "command, preset, keys", _READERS, ids=[c + (f"-{p}" if p else "") for c, p, _ in _READERS]
)
def test_fuzz_bases_cover_the_key_table(command, preset, keys):
    """Every key a subcommand (or zeta preset) reads is fuzzed."""
    fuzzed = {
        tuple(key for key in path if isinstance(key, str))
        for name, base, path in _FUZZ_CASES
        if name == command and (preset is None or base.get("preset", "custom") == preset)
    }
    assert set(_table_paths(keys)) - fuzzed == set()


def _json_values(top: int):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, top),
        st.floats(-3, top),
        st.sampled_from(["", "x", "1/2", "-3", "2/0", "1e9"]),
        st.text(max_size=3),
    )
    keys = st.sampled_from(["m", "offsets", "weight", "basis", "generators", "x"])
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=2),
        max_leaves=5,
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_configs_keep_the_exit_contract(tmp_path_factory, data):
    command, base, path = data.draw(st.sampled_from(_FUZZ_CASES), label="case")
    slow = command == "padic-zeta" and path[0] in _SLOW_PADIC_KEYS
    value = data.draw(_json_values(2 if slow else 12), label="value")
    cfg = copy.deepcopy(base)
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    config = tmp_path_factory.mktemp("fuzz") / "config.json"
    config.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(config)])
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("config error:")
    else:
        assert json.loads(out.getvalue())["schema"] == cli.SCHEMA
