import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbroadcast.cli import _wz_params, build_parser, main
from magicbroadcast.cloners import (
    BHParams,
    BroadcasterSpec,
    WZParams,
    bh_input_amps,
    bh_input_state,
    bh_low_magic_interval,
    bh_magic,
    bh_magic_unclipped,
    bh_output,
    eta_schwarz_max,
    m_ratio,
    maximal_magic_spec,
    superposition_bloch,
    superposition_magic,
    theorem2_falsify,
    unrestricted_broadcast,
    wz_broadcast_check,
    wz_output,
    wz_output_magic,
    wz_state_check,
)
from magicbroadcast.errors import InvalidMachineError
from magicbroadcast.measures import rom_batch, rom_lp_batch, rom_qubit
from magicbroadcast.states import (
    T_POLAR_ANGLE,
    PureState,
    bloch_batch,
    bloch_from_density,
    h_state,
    superpose,
    superpose_batch,
    t_perp_state,
    t_state,
)

T_REF = WZParams(T_POLAR_ANGLE, math.pi / 4.0)
angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


# ---------------------------------------------------------------------------
# Wootters-Zurek
# ---------------------------------------------------------------------------

def test_wz_reference_states_and_magic():
    assert np.allclose(T_REF.reference().amps, t_state().amps, atol=1e-12)
    assert T_REF.reference_magic() == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )
    h_ref = WZParams(math.pi / 4.0, 0.0)
    assert h_ref.reference_magic() == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_wz_output_is_reference_diagonal_mixture():
    rho = wz_output(T_REF, math.pi / 3.0)
    expected = (
        math.cos(math.pi / 6.0) ** 2 * t_state().density().mat
        + math.sin(math.pi / 6.0) ** 2 * t_perp_state().density().mat
    )
    assert np.allclose(rho.mat, expected, atol=1e-12)


def test_wz_copies_reference_perfectly():
    check = wz_broadcast_check(T_REF, 0.0, 0.0)
    assert check.perfect
    assert check.output_magic == pytest.approx(math.sqrt(3.0), abs=1e-12)


@given(angles)
def test_wz_output_magic_is_zeta_independent(zeta):
    theta = 1.1
    assert wz_broadcast_check(T_REF, theta, zeta).output_magic == (
        wz_broadcast_check(T_REF, theta, 0.0).output_magic
    )


def test_wz_h_input_on_t_machine_overproduces_magic():
    check = wz_state_check(T_REF, h_state())
    expected = math.sqrt((3.0 + math.sqrt(6.0)) / 2.0)
    assert check.output_magic == pytest.approx(expected, abs=1e-6)
    assert check.output_magic == pytest.approx(1.650680, abs=1e-6)
    assert check.output_magic > check.input_magic == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_wz_stabilizer_reference_never_produces_magic():
    machine = WZParams(0.0, 0.0)        # reference |0>
    for theta in np.linspace(0.0, 2.0 * math.pi, 37):
        assert wz_output_magic(machine, float(theta)) == 1.0


def test_wz_output_magic_formula():
    theta = 0.8
    expected = abs(math.cos(theta)) * math.sqrt(3.0)
    assert wz_output_magic(T_REF, theta) == pytest.approx(
        max(1.0, expected), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Buzek-Hillery
# ---------------------------------------------------------------------------

def test_bh_rejects_parameters_outside_schwarz_bound():
    with pytest.raises(InvalidMachineError):
        BHParams(0.25, 0.9)
    with pytest.raises(InvalidMachineError):
        BHParams(0.7, 0.1)


def test_bh_symmetric_point_scales_bloch_by_two_thirds():
    params = BHParams(1.0 / 6.0, 2.0 / 3.0)
    assert eta_schwarz_max(1.0 / 6.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    for theta in np.linspace(0.0, math.pi, 50):
        for zeta in np.linspace(0.0, 2.0 * math.pi, 50):
            b_in = bloch_from_density(
                bh_input_state(float(theta), float(zeta)).density()
            ).as_array()
            b_out = bloch_from_density(
                bh_output(params, float(theta), float(zeta))
            ).as_array()
            assert np.allclose(b_out, (2.0 / 3.0) * b_in, atol=1e-12)


def test_bh_ratio_at_quarter_xi():
    params = BHParams(0.25, eta_schwarz_max(0.25))
    assert m_ratio(params, math.pi / 2.0, 0.3) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-12
    )


def test_bh_magic_clips_at_one():
    params = BHParams(1.0 / 6.0, 2.0 / 3.0)
    theta = math.acos(1.0 / math.sqrt(3.0))
    assert bh_magic_unclipped(params, theta, math.pi / 4.0) == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-12
    )
    assert bh_magic(params, theta, math.pi / 4.0) == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-12
    )
    # near the pole the scaled output falls inside the stabilizer octahedron
    assert bh_magic_unclipped(params, 0.1, 0.3) < 1.0
    assert bh_magic(params, 0.1, 0.3) == 1.0


def test_bh_low_magic_interval_near_small_theta():
    low, high = bh_low_magic_interval()
    assert low == pytest.approx(0.88, abs=0.01)
    assert high == pytest.approx(0.91, abs=0.01)


# ---------------------------------------------------------------------------
# unrestricted broadcaster
# ---------------------------------------------------------------------------

def test_maximal_magic_spec_reference_and_outputs():
    spec = maximal_magic_spec()
    assert spec.reference_magic() == pytest.approx(math.sqrt(3.0), abs=1e-12)
    sys_out, aux_out = unrestricted_broadcast(spec, 1.0, 0.0)
    assert rom_qubit(sys_out) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert rom_qubit(aux_out) == pytest.approx(math.sqrt(3.0), abs=1e-12)


@settings(max_examples=60)
@given(angles, angles)
def test_superposition_closed_form_matches_direct_robustness(theta, zeta):
    psi = superpose(t_state(), t_perp_state(), theta, zeta)
    direct = rom_qubit(psi.density())
    assert superposition_magic(theta, zeta) == pytest.approx(
        direct, abs=1e-9
    )
    bloch = superposition_bloch(theta, zeta).as_array()
    assert np.allclose(
        bloch, bloch_from_density(psi.density()).as_array(), atol=1e-9
    )


def test_theorem2_sweep_finds_large_gap():
    grid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    report = theorem2_falsify(math.pi / 4.0, grid)
    assert report.max_gap > 0.1
    assert report.closed_form_max_err <= 1e-9
    assert report.output_spread <= 1e-12


def test_broadcaster_spec_requires_matching_output_magic():
    spec = maximal_magic_spec()
    bad = t_state().density()       # magic sqrt(3), fine
    with pytest.raises(Exception):
        BroadcasterSpec(
            ref_in=spec.ref_in,
            sys_out=spec.sys_out,
            aux_out=(h_state().density(), bad),   # sqrt(2) != sqrt(3)
        )


@settings(max_examples=60)
@given(angles, angles, st.floats(0.01, 0.99))
def test_auxiliary_magic_never_exceeds_reference(theta, zeta, weight):
    spec = maximal_magic_spec()
    alpha = math.sqrt(weight) * np.exp(1j * zeta)
    beta = math.sqrt(1.0 - weight)
    _, aux = unrestricted_broadcast(spec, alpha, beta)
    assert rom_qubit(aux) <= spec.reference_magic() + 1e-9


# ---------------------------------------------------------------------------
# array cores: scalar calls, loop references and the LP oracle
# ---------------------------------------------------------------------------

def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


wide_angles = st.floats(-20.0, 20.0, allow_nan=False)


@settings(max_examples=150)
@given(st.lists(wide_angles, min_size=1, max_size=8), wide_angles,
       st.floats(0.0, math.pi), wide_angles, st.floats(0.0, 0.5),
       st.floats(0.0, 1.0), st.data())
def test_scalar_calls_equal_the_core_rows_bit_for_bit(
    thetas, zeta, gamma, gamma_p, xi, eta_frac, data
):
    i = data.draw(st.integers(0, len(thetas) - 1))
    t, arr = thetas[i], np.array(thetas)
    wz = WZParams(gamma, gamma_p)
    bh = BHParams(xi, eta_frac * eta_schwarz_max(xi))
    ref, perp = wz.reference(), wz.reference_perp()

    rows = superpose_batch(ref, perp, arr, zeta)
    assert _bits(superpose(ref, perp, t, zeta).amps) == _bits(rows[i])
    rows = superpose_batch(ref, perp, zeta, arr)
    assert _bits(superpose(ref, perp, zeta, t).amps) == _bits(rows[i])
    assert _bits(wz_output_magic(wz, t)) == _bits(wz_output_magic(wz, arr)[i])
    for f in (bh_magic, m_ratio):
        assert _bits(f(bh, zeta, t)) == _bits(f(bh, zeta, arr)[i])
        assert _bits(f(bh, t, zeta)) == _bits(f(bh, arr, zeta)[i])
    assert _bits(bh_input_state(zeta, t).amps) == _bits(bh_input_amps(zeta, arr)[i])


# ---------------------------------------------------------------------------
# sweep loops: the scalar code the array sweeps replaced, kept verbatim as
# their reference (with the scalar formulas it called)
# ---------------------------------------------------------------------------

def _loop_superpose(psi, psi_perp, theta, zeta):
    amps = (
        math.cos(theta / 2.0) * psi.amps
        + np.exp(1j * zeta) * math.sin(theta / 2.0) * psi_perp.amps
    )
    return PureState(amps / np.linalg.norm(amps))


def _loop_wz_output_magic(p, theta):
    return max(1.0, abs(math.cos(theta)) * p.reference_magic())


def _loop_bh_input_state(theta, zeta):
    return PureState(
        [
            math.cos(theta / 2.0),
            np.exp(-1j * zeta) * math.sin(theta / 2.0),
        ]
    )


def _loop_bh_magic_unclipped(p, theta, zeta):
    return (1.0 - 2.0 * p.xi) * abs(math.cos(theta)) + p.eta * abs(
        math.sin(theta)
    ) * (abs(math.cos(zeta)) + abs(math.sin(zeta)))


def _loop_m_ratio(p, theta, zeta):
    numer = _loop_bh_magic_unclipped(p, theta, zeta)
    denom = abs(math.cos(theta)) + abs(math.sin(theta)) * (
        abs(math.cos(zeta)) + abs(math.sin(zeta))
    )
    return numer / denom


def _loop_sweep_robustness(inputs):
    amps = np.array([psi.amps for psi in inputs])
    return rom_batch(bloch_batch(amps[:, :, None] * amps[:, None, :].conj()))


def _loop_wz_rows(params, zeta, points):
    thetas = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    ref, perp = params.reference(), params.reference_perp()
    inputs = [_loop_superpose(ref, perp, float(t), zeta) for t in thetas]
    rows = []
    for theta, input_magic in zip(thetas, _loop_sweep_robustness(inputs)):
        output_magic = _loop_wz_output_magic(params, float(theta))
        rows.append(
            (theta, input_magic, output_magic, output_magic / input_magic)
        )
    return rows


def _loop_bh_rows(params, theta, points):
    zetas = [float(z) for z in
             np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)]
    inputs = [_loop_bh_input_state(theta, zeta) for zeta in zetas]
    rows = []
    for zeta, input_magic in zip(zetas, _loop_sweep_robustness(inputs)):
        output_magic = max(1.0, _loop_bh_magic_unclipped(params, theta, zeta))
        rows.append(
            (zeta, input_magic, output_magic,
             _loop_m_ratio(params, theta, zeta))
        )
    return rows


def _csv(header, rows):
    lines = [header] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _wz_cases():
    """(argv, machine, zeta): the T and H references and 50 seeded machines."""
    cases = [
        (["--ref", "T"], WZParams(T_POLAR_ANGLE, math.pi / 4.0), 0.0),
        (["--ref", "H"], WZParams(math.pi / 4.0, 0.0), 0.0),
    ]
    rng = np.random.default_rng(19)
    for _ in range(50):
        gamma, gamma_p = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
        zeta = rng.uniform(-2 * math.pi, 2 * math.pi)
        argv = [f"--gamma={gamma!r}", f"--gamma-prime={gamma_p!r}", f"--zeta={zeta!r}"]
        cases.append((argv, WZParams(gamma, gamma_p), zeta))
    return cases


def _bh_cases():
    """(argv, machine, theta): 50 seeded machines and the edge values."""
    cases = [([], BHParams(1.0 / 6.0, eta_schwarz_max(1.0 / 6.0)), T_POLAR_ANGLE)]
    rng = np.random.default_rng(91)
    thetas = [0.0, math.pi / 2.0, math.pi]
    for k in range(50):
        xi = (0.0, 0.5)[k] if k < 2 else rng.uniform(0.0, 0.5)
        eta_max = eta_schwarz_max(xi)
        eta = eta_max if k % 3 == 0 else rng.uniform(0.0, eta_max)
        theta = thetas[k % 3] if k < 9 else rng.uniform(0.0, math.pi)
        argv = [f"--xi={xi!r}", f"--theta={theta!r}"]
        if k % 6 != 0:               # else eta takes its Schwarz default
            argv.append(f"--eta={eta!r}")
        cases.append((argv, BHParams(xi, eta), theta))
    return cases


@pytest.mark.parametrize("points", [1, 2, 3, 7, 100, 1000])
def test_wz_sweep_matches_the_scalar_loop_bit_for_bit(capsys, points):
    for argv, params, zeta in _wz_cases():
        assert main(["clone", "wz", *argv, "--sweep-points", str(points)]) == 0
        out = capsys.readouterr().out
        expected = _csv("theta,input_magic,output_magic,ratio",
                        _loop_wz_rows(params, zeta, points))
        assert out == expected, argv


@pytest.mark.parametrize("points", [1, 2, 3, 7, 100, 1000])
def test_bh_sweep_matches_the_scalar_loop_bit_for_bit(capsys, points):
    for argv, params, theta in _bh_cases():
        assert main(["clone", "bh", *argv, "--sweep-points", str(points)]) == 0
        out = capsys.readouterr().out
        expected = _csv("zeta,input_magic,output_magic,ratio",
                        _loop_bh_rows(params, theta, points))
        assert out == expected, argv

def _loop_bh_low_magic_interval(theta=0.1, xi_max=0.02, zeta_points=720,
                                xi_points=101):
    # the scalar double loop the array call replaced, kept verbatim
    zetas = np.linspace(0.0, 2.0 * math.pi, zeta_points, endpoint=False)
    xis = np.linspace(0.0, xi_max, xi_points)
    lo, hi = math.inf, -math.inf
    for xi in xis:
        p = BHParams(xi, eta_schwarz_max(xi))
        for zeta in zetas:
            value = _loop_m_ratio(p, theta, zeta)
            lo = min(lo, value)
            hi = max(hi, value)
    return lo, hi


@pytest.mark.parametrize("kwargs", [
    {},
    {"theta": 0.5, "zeta_points": 90, "xi_points": 13},
    {"theta": 1.3, "xi_max": 0.5, "zeta_points": 60, "xi_points": 11},
    {"theta": math.pi, "xi_max": 0.25, "zeta_points": 7, "xi_points": 2},
])
def test_bh_low_magic_interval_matches_the_loop(kwargs):
    low, high = bh_low_magic_interval(**kwargs)
    assert type(low) is float and type(high) is float
    assert (low, high) == _loop_bh_low_magic_interval(**kwargs)


def test_bh_params_check_every_machine_of_a_family():
    xis = np.array([0.0, 0.1, 0.2])
    etas = np.array([eta_schwarz_max(x) for x in xis])
    BHParams(xis, etas)
    for bad_eta in (etas + [0.0, 0.0, 0.01], etas * [1.0, np.nan, 1.0]):
        with pytest.raises(InvalidMachineError):
            BHParams(xis, bad_eta)
    with pytest.raises(InvalidMachineError):
        BHParams(np.array([0.1, 0.6]), 0.0)


def sweep_lp_gaps(machine_argv) -> tuple:
    """Largest |reported - LP oracle| of one `clone` sweep's magic columns.

    Input magic is compared with the LP robustness of the input state the
    package builds for the row (`superpose` / `bh_input_state`), output
    magic with that of its output clone (`wz_output` / `bh_output`).
    """
    argv = ["clone", *machine_argv, "--json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    rows = np.array(json.loads(buf.getvalue())["rows"])
    args = build_parser().parse_args(argv)
    if args.machine == "wz":
        p = _wz_params(args)
        inputs = [superpose(p.reference(), p.reference_perp(), t, args.zeta)
                  for t in rows[:, 0]]
        outputs = [wz_output(p, t) for t in rows[:, 0]]
    else:
        eta = args.eta if args.eta is not None else eta_schwarz_max(args.xi)
        p = BHParams(args.xi, eta)
        inputs = [bh_input_state(args.theta, z) for z in rows[:, 0]]
        outputs = [bh_output(p, args.theta, z) for z in rows[:, 0]]

    def lp(rhos):
        return rom_lp_batch(np.array([bloch_from_density(r).as_array()
                                      for r in rhos]))

    return (float(np.max(np.abs(rows[:, 1] - lp(s.density() for s in inputs)))),
            float(np.max(np.abs(rows[:, 2] - lp(outputs)))))


SWEEP_CASES = (
    ["wz", "--ref", "T"],
    ["wz", "--ref", "H", "--zeta", "0.7"],
    ["wz", "--gamma", "1.1", "--gamma-prime", "2.3", "--zeta", "-0.4"],
    ["bh"],                 # every machine here makes outputs above R = 1
    ["bh", "--xi", "0.2", "--theta", "1.0"],
    ["bh", "--xi", "0.12", "--eta", "0.6", "--theta", "2.0"],
)


@pytest.mark.parametrize("machine_argv", SWEEP_CASES)
def test_sweep_magic_columns_match_the_lp_oracle(machine_argv):
    input_gap, output_gap = sweep_lp_gaps(machine_argv)
    assert input_gap <= 1e-9
    assert output_gap <= 1e-9
