import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magicbroadcast
from magicbroadcast.checks import suite_names
from magicbroadcast.cli import main, parse_state_spec
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
        code = main(argv)
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
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    elif as_json:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


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
    (["wz", "--ref", "T"], "--gamma-prime"),
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

