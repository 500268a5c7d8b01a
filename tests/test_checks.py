import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbroadcast import checks, measures
from magicbroadcast import tolerances as tol
from magicbroadcast.checks import (
    VerificationReport,
    random_qubit_bloch,
    run_suite,
    sample_bloch_on_levels,
    suite_names,
)
from magicbroadcast.cli import main
from magicbroadcast.errors import InvalidInputError, MagicBroadcastError
from magicbroadcast.measures import rom_lp_batch, rom_qubit, sre2_pure
from magicbroadcast.stabilizers import clifford_group_1q
from magicbroadcast.states import PureState, bloch_batch, haar_amps
from test_planted_faults import _plant


def test_suite_names_are_sorted_and_complete():
    names = suite_names()
    assert names == sorted(names)
    assert set(names) == {
        "additivity", "clifford", "convexity", "geometry",
        "lemma1", "monotone", "theorem2", "theorem3",
    }


def test_run_suite_rejects_unknown_name():
    with pytest.raises(InvalidInputError):
        run_suite("nonsense")


@pytest.mark.parametrize("name", ["lemma1", "clifford", "additivity",
                                  "convexity", "monotone", "theorem3"])
def test_reduced_sample_suites_pass(name):
    report = run_suite(name, n_samples=200, seed=1)
    assert report.passed
    assert report.samples == 200
    assert report.runtime_ms >= 0


def test_theorem2_suite_runs_its_zeta_grid():
    report = run_suite("theorem2", n_samples=90, seed=0)
    assert report.passed
    assert report.samples == 90


@pytest.mark.parametrize("n_samples", range(1, 10))
def test_theorem2_suite_passes_on_every_small_grid(n_samples):
    # the gap is also scored at zeta = pi, its peak, which the 1- and
    # 3-point grids miss
    assert run_suite("theorem2", n_samples).passed


def test_geometry_suite_small():
    report = run_suite("geometry", n_samples=25, seed=2)
    assert report.passed


def test_report_pass_property_and_json():
    report = VerificationReport(
        check_name="demo", samples=10, max_violation=2.0,
        tolerance=1.0, seed=0, runtime_ms=1,
    )
    assert not report.passed
    payload = report.to_json()
    assert payload["pass"] is False
    assert payload["schema"] == 1


def test_suites_are_deterministic_per_seed():
    a = run_suite("clifford", n_samples=100, seed=3)
    b = run_suite("clifford", n_samples=100, seed=3)
    assert a.max_violation == b.max_violation


@pytest.mark.parametrize("seed", range(5))
def test_batched_convexity_matches_the_per_sample_loop(seed):
    rng = np.random.default_rng(seed)
    bloch = random_qubit_bloch(rng, 400)
    worst = 0.0
    for k in range(200):
        lam = rng.random()
        b1, b2 = bloch[2 * k], bloch[2 * k + 1]
        mixed = max(1.0, np.abs(lam * b1 + (1.0 - lam) * b2).sum())
        bound = lam * max(1.0, np.abs(b1).sum()) + (1.0 - lam) * max(
            1.0, np.abs(b2).sum()
        )
        worst = max(worst, mixed - bound)
    assert run_suite("convexity", n_samples=200, seed=seed).max_violation == worst


def _loop_clifford(amps, indices) -> np.ndarray:
    """The per-sample Clifford-invariance loop through the object API."""
    group = clifford_group_1q()
    out = []
    for a, k in zip(amps, indices):
        psi = PureState(a)
        rotated = PureState(group[k] @ psi.amps)
        out.append(max(
            abs(sre2_pure(rotated) - sre2_pure(psi)),
            abs(rom_qubit(rotated.density()) - rom_qubit(psi.density())),
        ))
    return np.array(out)


def _loop_additivity(psis, phis) -> np.ndarray:
    """The per-sample M2-additivity loop through the object API."""
    out = []
    for a, b in zip(psis, phis):
        psi, phi = PureState(a), PureState(b)
        joint = sre2_pure(PureState(np.kron(psi.amps, phi.amps)))
        out.append(abs(joint - sre2_pure(psi) - sre2_pure(phi)))
    return np.array(out)


@pytest.mark.parametrize("seed", range(3))
def test_batched_clifford_matches_the_per_sample_loop(seed):
    rng = np.random.default_rng(seed)
    amps = haar_amps(rng, 200, 2)                   # the suite's own draws
    indices = rng.integers(len(clifford_group_1q()), size=200)
    batched = checks._clifford(np.random.default_rng(seed), 200)
    np.testing.assert_allclose(
        batched, _loop_clifford(amps, indices), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("seed", range(3))
def test_batched_additivity_matches_the_per_sample_loop(seed):
    rng = np.random.default_rng(seed)
    psis, phis = haar_amps(rng, 200, 2), haar_amps(rng, 200, 2)
    batched = checks._additivity(np.random.default_rng(seed), 200)
    np.testing.assert_allclose(
        batched, _loop_additivity(psis, phis), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("name", ["clifford", "additivity", "monotone"])
def test_a_nan_from_the_sre2_core_fails_the_suite(monkeypatch, name):
    def nan(amps):
        return np.full(amps.shape[:-1], np.nan)

    _plant(monkeypatch, measures.sre2_pure_batch, nan)
    report = run_suite(name, n_samples=50)
    assert math.isnan(report.max_violation)
    assert not report.passed


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_nan_verdict_prints_valid_json(monkeypatch, capsys):
    def nan(amps):
        return np.full(amps.shape[:-1], np.nan)

    _plant(monkeypatch, measures.sre2_pure_batch, nan)
    assert main(["verify", "clifford", "--json", "--samples", "5"]) == 1
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["pass"] is False
    assert report["max_violation"] is None


# ---------------------------------------------------------------------------
# lemma1's optimality certificate
# ---------------------------------------------------------------------------

_T_DIRECTIONS = np.array(list(itertools.product([1.0, -1.0], repeat=3))) / math.sqrt(3.0)
# stabilizer points, T directions at level sqrt(3), the origin, rows exactly
# on level 1, and signed zeros
_CERTIFICATE_EDGES = np.vstack([
    np.eye(3), -np.eye(3),
    _T_DIRECTIONS,
    np.zeros((1, 3)),
    [[0.5, 0.25, -0.25], [-0.5, 0.5, 0.0], [0.25, -0.25, -0.5]],
    [[-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, 0.5, 0.5]],
])


@pytest.mark.parametrize("rows", ["criterion 1", "edges"])
def test_lemma1_certificate_matches_the_lp_oracle(rows):
    if rows == "edges":
        bloch = _CERTIFICATE_EDGES
    else:                       # acceptance criterion 1's exact draw
        bloch = random_qubit_bloch(np.random.default_rng(0), 100_000)
    value, defect = checks._lemma1_certificate(bloch)
    assert np.max(np.abs(value - rom_lp_batch(bloch))) <= 1e-12
    assert np.max(defect) <= 1e-12


def test_lemma1_certificate_shares_no_code_with_what_it_checks(monkeypatch):
    bloch = np.vstack([random_qubit_bloch(np.random.default_rng(3), 500),
                       _CERTIFICATE_EDGES])
    expected = checks._lemma1_certificate(bloch)

    def tripwire(*args, **kwargs):
        raise AssertionError("the certificate called the code it checks")

    for original in (measures.rom_batch, measures.rom_lp_batch, bloch_batch):
        _plant(monkeypatch, original, tripwire)
    checks._stabilizer_points.cache_clear()     # rebuild the table planted
    for got, want in zip(checks._lemma1_certificate(bloch), expected):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# level sampler
# ---------------------------------------------------------------------------

def _loop_sampler(level: float, rng) -> np.ndarray:
    """Reference law by rejection: a uniform direction, scaled onto the level,
    redrawn until it lies inside the Bloch ball.  No bound on the draws."""
    while True:
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        m = w * (level / np.abs(w).sum())
        if m @ m <= 1.0:
            return m


def _loop_draws(level: float, seed: int, k: int) -> np.ndarray:
    """The first k draws of `_loop_sampler` from `seed`, on blocks of normals.

    A generator gives the same normals in one block as in calls of 3, so
    this replays the loop at array speed (the loop needs ~36 directions per
    draw at level 1.72).
    """
    rng = np.random.default_rng(seed)
    kept = []
    while sum(len(block) for block in kept) < k:
        w = rng.standard_normal((8 * k, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        m = w * (level / np.abs(w).sum(axis=1, keepdims=True))
        kept.append(m[np.einsum("ij,ij->i", m, m) <= 1.0])
    return np.concatenate(kept)[:k]


def _ks_statistic(a, b) -> float:
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


KS_LEVELS = (1.0, 1.2, 1.5, 1.65, 1.72)


@pytest.mark.parametrize("level", KS_LEVELS)
def test_loop_replay_draws_what_the_loop_draws(level):
    rng = np.random.default_rng(11)
    loop = np.array([_loop_sampler(level, rng) for _ in range(200)])
    np.testing.assert_allclose(_loop_draws(level, 11, 200), loop, rtol=0, atol=1e-15)


@pytest.mark.parametrize("level", KS_LEVELS)
def test_level_sampler_has_the_rejection_loops_law(level):
    k = 20_000
    bound = 1.63 * math.sqrt(2.0 / k)        # two-sample KS, 1 % level
    seed = int(level * 100)
    ref = _loop_draws(level, seed, k)
    new = sample_bloch_on_levels(np.full(k, level), np.random.default_rng(seed))
    for stat in (lambda m: np.linalg.norm(m, axis=1), lambda m: m[:, 0],
                 lambda m: np.abs(m).min(axis=1)):
        assert _ks_statistic(stat(ref), stat(new)) < bound


def test_level_sampler_at_the_boundary_levels():
    rng = np.random.default_rng(0)
    top = sample_bloch_on_levels(np.full(500, math.sqrt(3.0)), rng)
    np.testing.assert_allclose(np.abs(top), 1.0 / math.sqrt(3.0), rtol=0, atol=1e-12)
    assert {tuple(row) for row in np.sign(top)} == {
        (a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)
    }
    unit = sample_bloch_on_levels(np.full(500, 1.0), rng)
    assert np.all(np.einsum("ij,ij->i", unit, unit) <= 1.0 + tol.BLOCH_BALL)
    np.testing.assert_allclose(np.abs(unit).sum(axis=1), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=200)
@given(st.floats(0.0, math.sqrt(3.0)), st.integers(0, 2 ** 32 - 1))
def test_level_sampler_lands_on_the_level_in_the_ball(level, seed):
    m = sample_bloch_on_levels(np.full(16, level), np.random.default_rng(seed))
    assert m.shape == (16, 3)
    np.testing.assert_allclose(np.abs(m).sum(axis=1), level, rtol=0, atol=1e-12)
    assert np.all(np.einsum("ij,ij->i", m, m) <= 1.0 + tol.BLOCH_BALL)


@pytest.mark.parametrize("level", [math.nan, -1e-9, -1.0, math.sqrt(3.0) + 1e-6, 2.0])
def test_level_sampler_rejects_bad_levels(level):
    with pytest.raises(InvalidInputError):
        sample_bloch_on_levels(np.array([1.2, level]), np.random.default_rng(0))


def test_level_sampler_raises_when_its_rounds_run_out(monkeypatch):
    monkeypatch.setattr(checks, "_MAX_ROUNDS", 0)
    with pytest.raises(MagicBroadcastError, match="rounds"):
        sample_bloch_on_levels(np.array([1.0]), np.random.default_rng(0))
