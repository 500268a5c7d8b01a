import numpy as np
import pytest

from magicbroadcast.checks import (
    VerificationReport,
    check_convexity,
    random_qubit_bloch,
    run_suite,
    suite_names,
)
from magicbroadcast.errors import InvalidInputError


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
    assert check_convexity(n_samples=200, seed=seed).max_violation == worst
