import contextlib
import io
import json
import math
import warnings

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
    unrestricted_broadcast_batch,
    wz_output,
    wz_output_magic,
    wz_state_check,
)
from magicbroadcast.errors import InvalidInputError, InvalidMachineError, InvalidSpecError
from magicbroadcast.measures import rom_batch, rom_lp_batch, rom_qubit
from magicbroadcast.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    T_POLAR_ANGLE,
    DensityMatrix,
    PureState,
    bloch_batch,
    bloch_from_density,
    bloch_vector,
    h_state,
    superpose,
    superpose_batch,
    t_perp_state,
    t_state,
)

T_REF = WZParams(T_POLAR_ANGLE, math.pi / 4.0)
angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


def _density(m) -> DensityMatrix:
    """rho = (I + m . sigma) / 2, the inverse of `bloch_from_density`."""
    x, y, z = m
    return DensityMatrix(0.5 * (np.eye(2) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z))


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
                PureState(bh_input_amps(float(theta), float(zeta))).density()
            )
            b_out = bloch_from_density(bh_output(params, float(theta), float(zeta)))
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
    sys_out, aux_out = unrestricted_broadcast_batch(
        1.0, 0.0, *spec.outputs
    )
    assert rom_batch(sys_out) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert rom_batch(aux_out) == pytest.approx(math.sqrt(3.0), abs=1e-12)


@settings(max_examples=60)
@given(angles, angles)
def test_superposition_closed_form_matches_direct_robustness(theta, zeta):
    psi = superpose(t_state(), t_perp_state(), theta, zeta)
    direct = rom_qubit(psi.density())
    assert superposition_magic(theta, zeta) == pytest.approx(
        direct, abs=1e-9
    )
    bloch = superposition_bloch(theta, zeta)
    assert np.allclose(
        bloch, bloch_from_density(psi.density()), atol=1e-9
    )


def test_theorem2_sweep_finds_large_gap():
    grid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    report = theorem2_falsify(math.pi / 4.0, grid)
    assert report.max_gap > 0.1
    assert report.closed_form_max_err <= 1e-9
    assert report.output_spread <= 1e-12


# the scalar loop the array pass replaced, kept verbatim as its reference,
# with the scalar closed form it called and the broadcaster wrapper inlined

def _loop_superposition_bloch(theta, zeta):
    ct, st = math.cos(theta), math.sin(theta)
    cz, sz = math.cos(zeta), math.sin(zeta)
    m1 = ct / math.sqrt(3.0) - st * cz / math.sqrt(6.0) + st * sz / math.sqrt(2.0)
    m2 = ct / math.sqrt(3.0) - st * cz / math.sqrt(6.0) - st * sz / math.sqrt(2.0)
    m3 = (ct + math.sqrt(2.0) * st * cz) / math.sqrt(3.0)
    return bloch_vector([m1, m2, m3])


def _loop_superposition_magic(theta, zeta):
    return float(rom_batch(_loop_superposition_bloch(theta, zeta)))


def _loop_unrestricted_broadcast(spec, alpha, beta):
    outputs = unrestricted_broadcast_batch(alpha, beta, *spec.outputs)
    return tuple(_density(m) for m in outputs)


def _loop_theorem2_falsify(theta, zeta_grid):
    spec = maximal_magic_spec()
    max_gap, worst_zeta = -1.0, float("nan")
    closed_err = 0.0
    outputs = []
    for zeta in zeta_grid:
        alpha = math.cos(theta / 2.0)
        beta = np.exp(1j * zeta) * math.sin(theta / 2.0)
        _, aux = _loop_unrestricted_broadcast(spec, alpha, beta)
        out_magic = rom_qubit(aux)
        outputs.append(out_magic)
        closed = _loop_superposition_magic(theta, zeta)
        direct = rom_qubit(
            superpose(spec.ref_in[0], spec.ref_in[1], theta, zeta).density()
        )
        closed_err = max(closed_err, abs(closed - direct))
        gap = abs(closed - out_magic)
        if gap > max_gap:
            max_gap, worst_zeta = gap, zeta
    outputs = np.array(outputs)
    return dict(
        theta=theta,
        max_gap=max_gap,
        worst_zeta=worst_zeta,
        output_magic=float(outputs.mean()),
        output_spread=float(outputs.max() - outputs.min()),
        closed_form_max_err=closed_err,
    )


_T2_THETAS = [0.0, math.pi / 4.0, math.pi / 2.0, math.pi, 1e-9] + list(
    np.random.default_rng(25).uniform(0.0, 2.0 * math.pi, 40)
)


@pytest.mark.parametrize("points", [1, 4, 72, 90, 720])
def test_theorem2_sweep_matches_the_loop(points):
    grid = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    for theta in _T2_THETAS:
        report = theorem2_falsify(theta, grid)
        want = _loop_theorem2_falsify(theta, grid)
        for field, value in vars(report).items():
            assert type(value) is float, field
            if field in ("theta", "worst_zeta", "closed_form_max_err"):
                assert value == want[field], (theta, field)
            else:
                assert abs(value - want[field]) <= 1e-15, (theta, field)


@pytest.mark.parametrize("theta, grid", [
    (0.5, []),
    (0.5, np.zeros((2, 3))),
    (0.5, 0.3),
    (math.nan, [0.0, 1.0]),
    (math.inf, [0.0, 1.0]),
    (0.5, [0.0, math.nan]),
    (0.5, [-math.inf, 1.0]),
])
def test_theorem2_rejects_bad_grids_and_angles(theta, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            theorem2_falsify(theta, grid)


@pytest.mark.parametrize("theta, zeta", [
    (math.inf, 0.3), (0.3, math.nan), (0.3, np.array([0.0, -math.inf])),
])
def test_superposition_closed_form_rejects_non_finite_angles(theta, zeta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="angles must be finite"):
            superposition_magic(theta, zeta)


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@given(non_finite, angles, st.integers(0, 5))
def test_cloner_closed_forms_refuse_non_finite_input(bad, good, which):
    calls = [
        lambda: bh_magic(BHParams(0.1, 0.1), bad, good),
        lambda: bh_magic(BHParams(0.1, 0.1), np.array([good, bad]), good),
        lambda: m_ratio(BHParams(0.1, 0.1), good, bad),
        lambda: wz_output_magic(T_REF, bad),
        lambda: WZParams(bad, good),
        lambda: WZParams(good, bad).reference_magic(),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite"):
            calls[which]()


def test_broadcaster_spec_requires_matching_output_magic():
    spec = maximal_magic_spec()
    outputs = spec.outputs.copy()
    outputs[1, 0] = bloch_from_density(h_state().density())  # sqrt(2) != sqrt(3)
    with pytest.raises(InvalidSpecError, match="magic"):
        BroadcasterSpec(ref_in=spec.ref_in, outputs=outputs)


def _t_spec_outputs_with(value) -> np.ndarray:
    outputs = maximal_magic_spec().outputs.copy()
    outputs[1, 1] = value
    return outputs


@pytest.mark.parametrize("outputs, match", [
    (np.zeros((2, 3)), "shape"),
    (np.zeros((2, 2, 2, 3)), "shape"),
    (_t_spec_outputs_with([math.sqrt(3.0), 0.0, 0.0]), "Bloch ball"),   # level sqrt(3)
    (_t_spec_outputs_with(math.nan), "Bloch ball"),
])
def test_broadcaster_spec_refuses_bad_outputs(outputs, match):
    with pytest.raises(InvalidSpecError, match=match):
        BroadcasterSpec(ref_in=(t_state(), t_perp_state()), outputs=outputs)


@pytest.mark.parametrize("ref_in", [
    (t_state(), h_state()),
    (PureState([1, 0, 0]), PureState([0, 1, 0])),
])
def test_broadcaster_spec_refuses_a_bad_reference_pair(ref_in):
    outputs = np.zeros((2, 2, 3))
    with pytest.raises(InvalidSpecError, match="orthogonal qubit"):
        BroadcasterSpec(ref_in=ref_in, outputs=outputs)


def test_broadcaster_spec_outputs_are_a_read_only_copy():
    refs = maximal_magic_spec().outputs.copy()
    spec = BroadcasterSpec(ref_in=(t_state(), t_perp_state()), outputs=refs)
    refs[0, 0] = 0.0
    assert not np.array_equal(spec.outputs, refs)
    with pytest.raises(ValueError):
        spec.outputs[0, 0, 0] = 0.0


@settings(max_examples=60)
@given(angles, angles, st.floats(0.01, 0.99))
def test_auxiliary_magic_never_exceeds_reference(theta, zeta, weight):
    spec = maximal_magic_spec()
    alpha = math.sqrt(weight) * np.exp(1j * zeta)
    beta = math.sqrt(1.0 - weight)
    _, aux = unrestricted_broadcast_batch(alpha, beta, *spec.outputs)
    assert rom_batch(aux) <= spec.reference_magic() + 1e-9


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


def _loop_bh_input(theta, zeta):
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
    inputs = [_loop_bh_input(theta, zeta) for zeta in zetas]
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
    package builds for the row (`superpose` / `bh_input_amps`), output
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
        inputs = [PureState(bh_input_amps(args.theta, z)) for z in rows[:, 0]]
        outputs = [bh_output(p, args.theta, z) for z in rows[:, 0]]

    def lp(rhos):
        return rom_lp_batch(np.array([bloch_from_density(r) for r in rhos]))

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
