import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magicbroadcast
from magicbroadcast.checks import suite_names
from magicbroadcast.cli import build_parser, main, parse_state_spec
from magicbroadcast.states import h_state, t_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# state-spec grammar
# ---------------------------------------------------------------------------

def test_parse_named_states():
    assert np.allclose(parse_state_spec("T").amps, t_state().amps)
    assert np.allclose(parse_state_spec("h").amps, h_state().amps)
    assert np.allclose(parse_state_spec("zero").amps, [1.0, 0.0])
    assert abs(parse_state_spec("plus_i").amps[1] - 1j / math.sqrt(2)) < 1e-12


def test_parse_angle_specs():
    psi = parse_state_spec("1.0,0.5")
    assert psi.amps[0] == pytest.approx(math.cos(0.5), abs=1e-12)
    t_sup = parse_state_spec("0,0,basis=T")
    assert np.allclose(t_sup.amps, t_state().amps, atol=1e-12)


def test_parse_amplitude_specs():
    psi = parse_state_spec("amps=0.6,0.8")
    assert np.allclose(psi.amps, [0.6, 0.8])
    phi = parse_state_spec("0.6+0j,0.8j")
    assert phi.amps[1] == pytest.approx(0.8j, abs=1e-12)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_state_spec("not-a-state")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_magic_command_text_and_json(capsys):
    code, out, _ = run(capsys, "magic", "T")
    assert code == 0
    assert f"{math.sqrt(3.0):.17g}" in out

    code, out, _ = run(capsys, "magic", "H", "--json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["rom"] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_magic_command_usage_error(capsys):
    code, _, err = run(capsys, "magic", "garbage spec")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("magic", "nan,0"),
    ("clone", "wz", "--gamma", "nan"),
    ("clone", "bh", "--theta", "nan"),
    ("geometry", "--level", "nan", "--", "1,0,0", "0,1,0", "0,0,1", "-1,0,0"),
])
def test_nan_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_magic_two_qubit_text_mode_points_to_json(capsys):
    code, out, err = run(capsys, "magic", "amps=0.5,0.5,0.5,0.5")
    assert code == 2
    assert err.startswith("error:") and "--json" in err
    code, out, _ = run(capsys, "magic", "amps=0.5,0.5,0.5,0.5", "--json")
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_magic_dimension_that_is_not_a_power_of_two_is_named(capsys):
    # both modes name it; text mode used to point to --json instead
    for mode in (["--json"], []):
        code, out, err = run(capsys, "magic", "amps=0.6,0.8,0", *mode)
        assert (code, out) == (2, "")
        assert err == "error: dimension 3 is not a power of two\n"


def test_clone_wz_two_qubit_input_is_usage_error(capsys):
    # numpy's reshape error used to reach the user
    code, out, err = run(capsys, "clone", "wz", "--ref", "T", "--input", "amps=0.5,0.5,0.5,0.5")
    assert (code, out) == (2, "")
    assert err == "error: expected a qubit state, got dim 4\n"


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([["--ref", "T"], ["--ref", "zero"], ["--gamma", "0.7", "--gamma-prime", "0.2"]]),
    st.booleans(),
)
def test_clone_wz_refuses_every_two_qubit_amplitude_spec(seed, machine, qubit_first):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    spec = "amps=" + ",".join(repr(complex(a)).strip("()") for a in z / np.linalg.norm(z))
    specs = ["H", spec] if qubit_first else [spec]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["clone", "wz", *machine, "--input", *specs])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "error: expected a qubit state, got dim 4\n"


def test_clone_wz_named_input(capsys):
    code, out, _ = run(capsys, "clone", "wz", "--ref", "T", "--input", "H")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,input_magic,output_magic,ratio"
    row = [float(v) for v in lines[1].split(",")]
    assert row[2] == pytest.approx(1.650680, abs=1e-5)


def test_clone_wz_stabilizer_reference_makes_no_magic(capsys):
    code, out, _ = run(
        capsys, "clone", "wz", "--gamma", "0", "--gamma-prime", "0",
        "--sweep-points", "24",
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[2]) == 1.0


def test_clone_bh_symmetric_ratio(capsys):
    theta = math.acos(1.0 / math.sqrt(3.0))
    code, out, _ = run(
        capsys, "clone", "bh", "--xi", str(1.0 / 6.0),
        "--theta", str(theta), "--sweep-points", "16", "--json",
    )
    payload = json.loads(out)
    assert payload["columns"] == ["zeta", "input_magic", "output_magic", "ratio"]
    ratios = [row[3] for row in payload["rows"]
              if row[1] >= 1.5]      # inputs outside the level-3/2 polytope
    assert ratios
    assert all(r == pytest.approx(2.0 / 3.0, abs=1e-12) for r in ratios)


def test_verify_command_passes_and_sets_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "lemma1", "--samples", "500", "--json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["pass"] is True
    assert payload["samples"] == 500


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize(
    "suite", ["geometry", "theorem3", "clifford", "lemma1", "monotone"]
)
def test_verify_without_samples_is_usage_error(capsys, suite, count):
    code, out, err = run(capsys, "verify", suite, "--samples", count)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "n_samples" in err


def test_verify_unknown_suite_is_usage_error(capsys):
    for suite in ("nonsense", "LEMMA1", "lemma", ""):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_geometry_command(capsys):
    s3 = str(1.0 / math.sqrt(3.0))
    point = ",".join([s3, s3, s3])
    anti = ",".join(["-" + s3] * 3)
    code, out, _ = run(
        capsys, "geometry", "--level", "1.2", "--json", "--",
        point, anti, point, anti,
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["broadcastable"] is True


def test_geometry_inconsistent_levels_fail(capsys):
    code, _, err = run(
        capsys, "geometry", "1,0,0", "0,1,0", "0.5,0.5,0.5", "0,1,0",
        "--level", "1.0",
    )
    assert code == 2
    assert "error:" in err


def test_geometry_huge_component_is_usage_error(capsys):
    code, out, err = run(
        capsys, "geometry", "--level", "1.2", "--", "1e200,0,0", "0,1,0", "0,0,1", "-1,0,0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "unit ball" in err


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


_S3 = 1.0 / math.sqrt(3.0)
_ENDS = [",".join([repr(_S3)] * 3), ",".join([repr(-_S3)] * 3)] * 2
# Numeric flag values: the edge cases, plus 1.2, a value most flags accept
# (a level, an angle), so that runs also get past the checks.
_EDGE = ["nan", "inf", "-inf", "0", "-0", "-0.1", "1e308", "1.2"]
_COUNTS = st.sampled_from(["0", "1", "-1"])
_SPECS = st.one_of(
    st.sampled_from(["T", "H", "zero", "amps=0.6,0.8", "amps=0.6,0.8,0",
                     "amps=0.5,0.5,0.5,0.5", "not-a-state"]),
    st.lists(st.sampled_from(_EDGE), min_size=2, max_size=2).map(",".join),
)
# every flag of every command, with the values it is drawn with ({tmp} is
# the example's temporary directory, which holds a tiny search config)
_GRAMMAR_FLAGS = {
    "--json": None,
    "--out": st.just("{tmp}/out"),
    "--config": st.sampled_from(["{tmp}/cfg.json", "{tmp}/missing.json"]),
    "--seed": st.sampled_from(["0", "1", "-1", str(2 ** 64)]),
    "--samples": _COUNTS,
    "--sweep-points": _COUNTS,
    "--ref": st.sampled_from(["T", "H", "zero", "plus"]),
    "--input": _SPECS,
    **{flag: st.sampled_from(_EDGE) for flag in (
        "--level", "--gamma", "--gamma-prime", "--zeta", "--xi", "--eta", "--theta")},
}
# the flags each command reads; the grammar draws mostly these, plus at most
# one flag of any command
_OWN_FLAGS = {
    "magic": ("--json", "--out"),
    "wz": ("--gamma-prime", "--zeta", "--input", "--sweep-points", "--json", "--out"),
    "bh": ("--xi", "--eta", "--theta", "--sweep-points", "--json", "--out"),
    "verify": ("--seed", "--json", "--out"),
    "experiment": ("--seed",),
    "geometry": ("--json", "--out"),
}
_COORDS = st.one_of(st.sampled_from(_EDGE), st.floats(-1.0, 1.0).map(repr))
_RANDOM_ENDS = st.lists(st.lists(_COORDS, min_size=2, max_size=4).map(",".join),
                        min_size=4, max_size=4)
# endpoints on the common level 1.2, which the certificate accepts
_LEVEL_ENDS = st.lists(st.sampled_from(
    ["0.5,0.4,0.3", "-0.2,0.6,-0.4", "0.3,-0.5,0.4", "0.6,0.0,-0.6"]), min_size=4, max_size=4)


@st.composite
def _cli_argv(draw):
    """A command and its positionals, with flags drawn from every command."""
    command = draw(st.sampled_from(["magic", "clone", "verify", "experiment", "geometry"]))
    argv = [command]
    if command == "magic":
        argv.append(draw(_SPECS))
    elif command == "clone":
        argv.append(draw(st.sampled_from(["wz", "bh"])))
        if argv[-1] == "wz":
            ref = draw(st.sampled_from(["--ref", "--gamma"]))
            argv.append(f"{ref}={draw(_GRAMMAR_FLAGS[ref])}")
    elif command == "verify":
        samples = draw(st.sampled_from(["-1", "0", "1", "2", "7"]))
        argv += [draw(st.sampled_from(suite_names())), f"--samples={samples}"]
    elif command == "experiment":
        # a search runs only on the tiny config; other draws are refused first
        argv += [draw(st.sampled_from(["magic", "state"])), f"--samples={draw(_COUNTS)}",
                 "--config={tmp}/cfg.json", "--out={tmp}/run"]
    else:
        argv.append(f"--level={draw(st.one_of(st.sampled_from(_EDGE), st.just('1.2')))}")
    own = _OWN_FLAGS[argv[1] if command == "clone" else command]
    flags = draw(st.lists(st.sampled_from(own), max_size=3))
    flags += draw(st.lists(st.sampled_from(sorted(_GRAMMAR_FLAGS)), max_size=1))
    for flag in flags:
        values = _GRAMMAR_FLAGS[flag]
        argv.append(flag if values is None else f"{flag}={draw(values)}")
    if command == "geometry":
        argv += ["--"] + draw(st.one_of(_LEVEL_ENDS, _RANDOM_ENDS))
    return argv


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:      # argparse refuses with SystemExit(2)
        return exc.code


@settings(max_examples=400, deadline=None)
@given(_cli_argv())
@example(["geometry", "--level=1.2", "--", "1e200,0,0", "0,1,0", "0,0,1", "-1,0,0"])
@example(["geometry", "--level=1.2", "--json", "--", *_ENDS])
@example(["geometry", "--level=1.2", "--", *_ENDS])
@example(["verify", "geometry", "--samples=1", "--seed=1", "--json"])
@example(["clone", "wz", "--ref=T", "--input=amps=0.5,0.5,0.5,0.5"])
@example(["clone", "wz", "--ref=T", "--input=H", "--zeta=5", "--sweep-points=7"])
@example(["experiment", "state", "--samples=1", "--config={tmp}/cfg.json", "--out={tmp}/run"])
def test_cli_grammar_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "cfg.json").write_text(
            json.dumps({"population": 4, "max_evals": 8, "restarts": 1}))
        argv = [a.replace("{tmp}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _exit_code(argv)
        text = out.getvalue()
        if code in (0, 1) and argv[0] != "experiment" and Path(tmp, "out").is_file():
            assert text == ""
            text = Path(tmp, "out").read_text()
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in err.getvalue() and text == ""
        assert "math domain error" not in err.getvalue()
        assert "cannot reshape" not in err.getvalue()
    if code == 0:
        assert "nan" not in text.lower()
    if code in (0, 1) and ("--json" in argv or argv[0] == "experiment"):
        json.loads(text, parse_constant=_reject_constant)


_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -0.1, 1e200, 1e308]),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(_NUMBERS, min_size=2, max_size=4), min_size=4, max_size=4),
    _NUMBERS,
    st.booleans(),
)
@example([[1e200, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]], 1.2, False)
@example([[_S3] * 3, [-_S3] * 3, [_S3] * 3, [-_S3] * 3], 1.2, True)
@example([[_S3] * 3, [-_S3] * 3, [_S3] * 3, [-_S3] * 3], 1.2, False)
def test_geometry_grammar_exits_cleanly(endpoints, level, as_json):
    argv = ["geometry", f"--level={level!r}"] + (["--json"] if as_json else [])
    argv += ["--"] + [",".join(map(repr, m)) for m in endpoints]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    if code == 0:
        assert "nan" not in out.getvalue().lower()
        if as_json:
            json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(suite_names()),
    st.sampled_from([-1, 0, 1, 2, 7]),
    st.sampled_from([0, 1, -1, 2 ** 64]),
    st.booleans(),
)
def test_verify_grammar_exits_cleanly(suite, samples, seed, as_json):
    argv = ["verify", suite, f"--samples={samples}", f"--seed={seed}"]
    argv += ["--json"] if as_json else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    elif as_json:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


# each command with a flag it does not read, and --ref with the --gamma flags
_REFUSED_FLAGS = [
    (("magic", "T"), ("--seed", "1"), "unrecognized arguments: --seed"),
    (("magic", "T"), ("--config", "{cfg}"), "unrecognized arguments: --config"),
    *[(("clone", "wz", "--ref", "T", "--input", "H"), flag, f"unrecognized arguments: {flag[0]}")
      for flag in (("--seed", "1"), ("--config", "{cfg}"), ("--xi", "0.1"),
                   ("--eta", "0.1"), ("--theta", "0.5"))],
    *[(("clone", "bh"), flag, f"unrecognized arguments: {flag[0]}")
      for flag in (("--seed", "1"), ("--config", "{cfg}"), ("--ref", "T"),
                   ("--gamma", "0.3"), ("--gamma-prime", "1"), ("--zeta", "0.5"),
                   ("--input", "H"))],
    (("verify", "lemma1", "--samples", "10"), ("--config", "{cfg}"),
     "unrecognized arguments: --config"),
    (("experiment", "magic", "--samples", "1", "--config", "{cfg}", "--out", "{tmp}"),
     ("--json",), "unrecognized arguments: --json"),
    (("geometry", "--level", "1.2", "--json"), ("--seed", "1"),
     "unrecognized arguments: --seed"),
    (("geometry", "--level", "1.2", "--json"), ("--config", "{cfg}"),
     "unrecognized arguments: --config"),
    (("clone", "wz", "--ref", "T", "--input", "H"), ("--gamma", "0.3"),
     "argument --gamma: not allowed with argument --ref"),
    (("clone", "wz", "--ref", "T", "--input", "H"), ("--gamma-prime", "1"),
     "error: --gamma-prime needs --gamma, not --ref"),
    # the theta-sweep flags beside --input; argparse expands --ze to --zeta
    *[(("clone", "wz", "--ref", "T", "--input", "H"), flag,
       f"error: argument {name}: not allowed with argument --input")
      for flag, name in ((("--zeta", "5"), "--zeta"), (("--ze", "5"), "--zeta"),
                         (("--sweep-points", "7"), "--sweep-points"))],
]


@pytest.mark.parametrize("base,flag,words", _REFUSED_FLAGS)
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys, base, flag, words):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": 4, "max_evals": 8, "restarts": 1}))
    base = [a.format(cfg=cfg, tmp=tmp_path / "run") for a in base]
    flag = [a.format(cfg=cfg) for a in flag]
    ends = ["--", *_ENDS] if base[0] == "geometry" else []
    assert _exit_code(base + ends) == 0          # the command runs without the flag
    capsys.readouterr()
    code = _exit_code(base + flag + ends)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert words in err


@pytest.mark.parametrize("extra", [[], ["--input", "H"], ["--zeta", "1", "--sweep-points", "3"]])
def test_every_wz_namespace_holds_the_sweep_values(extra):
    # the traced bench run reads an int sweep_points from every sweep namespace
    ns = build_parser().parse_args(["clone", "wz", "--ref", "T", *extra])
    assert (type(ns.zeta), type(ns.sweep_points)) == (float, int)


def test_experiment_writes_and_resumes(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"population": 42, "max_evals": 20000, "epsilon": 1e-4,
         "seed": 5, "restarts": 2}
    ))
    code, out, _ = run(
        capsys, "experiment", "magic", "--samples", "2",
        "--out", out_dir, "--config", str(cfg),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["n_samples"] == 2

    outcomes = (tmp_path / "run" / "magic_outcomes.jsonl").read_text()
    assert len(outcomes.strip().splitlines()) == 2

    # a second invocation reuses the stored outcomes and only appends
    code, out, _ = run(
        capsys, "experiment", "magic", "--samples", "3",
        "--out", out_dir, "--config", str(cfg),
    )
    assert code == 0
    outcomes = (tmp_path / "run" / "magic_outcomes.jsonl").read_text()
    assert len(outcomes.strip().splitlines()) == 3
    assert json.loads(out)["n_samples"] == 3


def test_experiment_resume_with_the_wrong_angle_count_is_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": 4, "max_evals": 8, "restarts": 1}))
    argv = ("experiment", "magic", "--samples", "1", "--out", str(out_dir),
            "--config", str(cfg))
    assert run(capsys, *argv)[0] == 0
    outcomes = out_dir / "magic_outcomes.jsonl"
    line = json.loads(outcomes.read_text())
    line["params"] = line["params"][:14]
    outcomes.write_text(json.dumps(line) + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "15 angles" in err
    assert out == ""


def _tiny_experiment(tmp_path, out_dir, samples):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"population": 4, "max_evals": 8, "restarts": 1}))
    return ("experiment", "magic", "--samples", str(samples),
            "--out", str(out_dir), "--config", str(cfg))


@pytest.mark.parametrize("cut", [1, 20])    # the newline alone, or into the JSON
def test_experiment_resumes_over_a_torn_last_line(tmp_path, capsys, cut):
    code, whole, _ = run(capsys, *_tiny_experiment(tmp_path, tmp_path / "whole", 3))
    assert code == 0
    assert run(capsys, *_tiny_experiment(tmp_path, tmp_path / "torn", 2))[0] == 0
    outcomes = tmp_path / "torn" / "magic_outcomes.jsonl"
    outcomes.write_text(outcomes.read_text()[:-cut])
    argv = _tiny_experiment(tmp_path, tmp_path / "torn", 3)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == json.loads(whole)
    if cut > 1:
        assert err.startswith("warning:") and err.count("\n") == 1
    else:
        assert err == ""
    # one well-formed line per sample, as the untorn run wrote them
    assert outcomes.read_text() == (tmp_path / "whole" / "magic_outcomes.jsonl").read_text()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == json.loads(whole)


def test_experiment_unparsable_line_before_the_last_is_usage_error(tmp_path, capsys):
    argv = _tiny_experiment(tmp_path, tmp_path / "run", 2)
    assert run(capsys, *argv)[0] == 0
    outcomes = tmp_path / "run" / "magic_outcomes.jsonl"
    first, second = outcomes.read_text().splitlines()
    outcomes.write_text(first[:-20] + "\n" + second + "\n")
    before = outcomes.read_text()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert outcomes.read_text() == before


def test_outputs_written_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "magic", "T", "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == 1


@pytest.mark.parametrize("count", ["0", "-1"])
def test_experiment_without_samples_is_usage_error(tmp_path, capsys, count):
    # an explicit count is not replaced by the config's count
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": 1, "max_evals": 100}))
    code, out, err = run(
        capsys, "experiment", "magic", "--samples", count,
        "--out", str(tmp_path / "run"), "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "n_samples" in err
    assert not (tmp_path / "run" / "magic_summary.json").exists()


@pytest.mark.parametrize("count", [["--samples", "0"], ["--samples", "-1"], []])
def test_experiment_bad_count_writes_nothing(tmp_path, capsys, count):
    # the last case takes the count from a config that holds a string
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": "5"}))
    out_dir = tmp_path / "D"
    code, out, err = run(
        capsys, "experiment", "magic", *count, "--out", str(out_dir),
        "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "n_samples" in err
    assert not out_dir.exists()


def test_experiment_negative_seed_is_usage_error_and_writes_nothing(tmp_path, capsys):
    # numpy used to refuse it inside the search, after the outcomes file opened
    out_dir = tmp_path / "d1"
    code, out, err = run(
        capsys, "experiment", "magic", "--samples", "1", "--seed", "-1",
        "--out", str(out_dir),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: seed") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text,field", [
    ('{"epsilon": NaN}', "epsilon"),
    ('{"epsilon": Infinity}', "epsilon"),
    ('{"epsilon": "1e-4"}', "epsilon"),
    ('{"epsilon": true}', "epsilon"),
    ('{"population": 42.0}', "population"),
    ('{"restarts": 2.0}', "restarts"),
    ('{"seed": 1.5}', "seed"),
    ('{"max_evals": 1e5}', "max_evals"),
    ('{"restarts": true}', "restarts"),
    ('[1]', "--config"),
    ('"x"', "--config"),
    ('{"populaton": 8, "max_evals": 16, "restarts": 1}', "'populaton'"),
    ('{"population": 4, "max_evals": 8, "n_sample": 2}', "'n_sample'"),
])
def test_experiment_bad_config_field_is_usage_error(tmp_path, capsys, text, field):
    # NaN and Infinity used to run with wrong results; the rest printed a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out_dir = tmp_path / "run"
    code, out, err = run(
        capsys, "experiment", "magic", "--samples", "1", "--out", str(out_dir),
        "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err
    assert not out_dir.exists()


@pytest.mark.parametrize("count", ["0", "-1", "-100"])
@pytest.mark.parametrize(
    "machine", [["wz", "--ref", "T"], ["wz", "--ref", "H"], ["bh"]]
)
def test_clone_empty_sweep_is_usage_error(capsys, machine, count):
    code, out, err = run(capsys, "clone", *machine, "--sweep-points", count)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--sweep-points" in err


def test_clone_input_without_states_is_usage_error(capsys):
    code, out, err = run(capsys, "clone", "wz", "--ref", "T", "--input")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--input" in err


def test_clone_single_point_sweep(capsys):
    code, out, _ = run(capsys, "clone", "bh", "--sweep-points", "1")
    assert code == 0
    assert out.splitlines()[0] == "zeta,input_magic,output_magic,ratio"
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("machine,flag", [
    (["wz", "--gamma", "1.0"], "--gamma"),
    (["wz", "--gamma", "1.0"], "--gamma-prime"),
    (["wz", "--ref", "T"], "--zeta"),
    (["bh"], "--xi"),
    (["bh"], "--eta"),
    (["bh"], "--theta"),
])
def test_clone_non_finite_machine_flag_is_usage_error(capsys, machine, flag, value):
    # a numpy RuntimeWarning from package code would fail this test
    # (filterwarnings in pyproject.toml)
    code, out, err = run(capsys, "clone", *machine, f"{flag}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{flag} must be finite" in err and value in err


@pytest.mark.parametrize("eta", [[], ["--eta", "0"]])
@pytest.mark.parametrize("xi", ["-0.1", "0.6"])
def test_clone_bh_xi_out_of_range_is_usage_error(capsys, xi, eta):
    code, out, err = run(capsys, "clone", "bh", f"--xi={xi}", *eta)
    assert code == 2
    assert out == ""
    assert err == f"error: xi must lie in [0, 1/2], got {float(xi)}\n"


def _readme_commands() -> list:
    """The argv of each `magicbroadcast` line in the README's command-line block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:]
            for line in lines if line.startswith("magicbroadcast ")]


README_COMMANDS = _readme_commands()


def test_the_readme_lists_every_command():
    assert {argv[0] for argv in README_COMMANDS} == {
        "magic", "clone", "verify", "experiment", "geometry"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_a_readme_command_line_parses_and_runs(tmp_path, monkeypatch, capsys, argv):
    build_parser().parse_args(argv)
    if argv[0] != "experiment":          # a 200-sample search; parsing is the check
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(magicbroadcast.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "magicbroadcast", "magic", "T"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"rom         = {math.sqrt(3.0):.17g}" in proc.stdout

