"""Planted faults: a suite that checks the shipped code must fail on a mutant.

Each test rebinds a shipped function to a small mutant in every package
module that holds it (the suites call the functions by imported name), runs
a suite at a small sample count, and requires a FAIL verdict; the last one
requires the sweep/LP-oracle consistency measure to exceed its tolerance.

Broadcast weights |alpha|, |beta| left unsquared are caught by theorem3 only:
on the maximal-magic broadcaster the output then stays independent of zeta
and the closed form is untouched, so theorem2 still passes.
"""
import sys

import numpy as np
import pytest

from magicbroadcast import checks, cloners, measures, polytope, stabilizers, states
from magicbroadcast.checks import run_suite


def _plant(monkeypatch, original, mutant):
    for name, module in list(sys.modules.items()):
        if name == "magicbroadcast" or name.startswith("magicbroadcast."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, mutant)


def test_lemma1_catches_rom_without_its_clip(monkeypatch):
    def unclipped(bloch):
        return np.abs(bloch).sum(axis=-1)

    assert run_suite("lemma1", n_samples=2000).passed
    _plant(monkeypatch, measures.rom_batch, unclipped)
    report = run_suite("lemma1", n_samples=2000)
    assert not report.passed
    assert report.max_violation > 0.1


def test_lemma1_catches_rom_as_sqrt3_times_the_bloch_length(monkeypatch):
    def euclidean(bloch):
        return np.maximum(1.0, np.sqrt(3.0) * np.linalg.norm(bloch, axis=-1))

    assert run_suite("lemma1", n_samples=200).passed
    _plant(monkeypatch, measures.rom_batch, euclidean)
    report = run_suite("lemma1", n_samples=200)
    assert not report.passed
    assert report.max_violation > 0.1


def test_lemma1_catches_a_primal_with_the_sign_of_q_flipped(monkeypatch):
    original = checks._lemma1_primal

    def flipped(size, level):
        p, q = original(size, level)
        return p, -q

    assert run_suite("lemma1", n_samples=200).passed
    _plant(monkeypatch, original, flipped)
    report = run_suite("lemma1", n_samples=200)
    assert not report.passed
    assert report.max_violation > 0.1


def test_geometry_catches_shifted_exact_roots(monkeypatch):
    original = polytope.line_polytope_intersections

    def shifted(b0, b1, r):
        return [t + 1e-3 for t in original(b0, b1, r)]

    assert run_suite("geometry", n_samples=50).passed
    _plant(monkeypatch, original, shifted)
    report = run_suite("geometry", n_samples=50)
    assert not report.passed
    assert report.max_violation > 5e-4


def test_theorem3_catches_unsquared_weights(monkeypatch):
    def unsquared(alpha, beta, sys_bloch, aux_bloch):
        wa, wb = np.abs(alpha)[:, None], np.abs(beta)[:, None]
        return (wa * sys_bloch[:, 0] + wb * sys_bloch[:, 1],
                wa * aux_bloch[:, 0] + wb * aux_bloch[:, 1])

    assert run_suite("theorem3", n_samples=200).passed
    _plant(monkeypatch, cloners.unrestricted_broadcast_batch, unsquared)
    report = run_suite("theorem3", n_samples=200)
    assert not report.passed
    assert report.max_violation > 0.1


def test_theorem3_catches_a_sampler_off_the_level(monkeypatch):
    original = checks.sample_bloch_on_levels

    def off_level(levels, rng):
        m = original(levels, rng)
        return m * (1.0 + 1e-3 / np.abs(m).sum(axis=1, keepdims=True))

    assert run_suite("theorem3", n_samples=200).passed
    _plant(monkeypatch, original, off_level)
    report = run_suite("theorem3", n_samples=200)
    assert not report.passed
    assert report.max_violation > 5e-4


@pytest.mark.parametrize("n_samples", [4, 72])
def test_theorem2_catches_a_flipped_sin_zeta_term_in_the_closed_form(
    monkeypatch, n_samples
):
    original = cloners.superposition_bloch

    def flipped(theta, zeta):
        m = original(theta, zeta)
        m[..., 0] -= 2.0 * np.sin(theta) * np.sin(zeta) / np.sqrt(2.0)
        return m

    assert run_suite("theorem2", n_samples=n_samples).passed
    _plant(monkeypatch, original, flipped)
    report = run_suite("theorem2", n_samples=n_samples)
    assert not report.passed
    assert report.max_violation > 0.1


def test_theorem2_catches_superpose_batch_without_its_phase(monkeypatch):
    original = states.superpose_batch

    def no_phase(psi, psi_perp, thetas, zetas):
        return original(psi, psi_perp, thetas, 0.0 * np.asarray(zetas))

    assert run_suite("theorem2", n_samples=72).passed
    _plant(monkeypatch, original, no_phase)
    report = run_suite("theorem2", n_samples=72)
    assert not report.passed
    assert report.max_violation > 0.1


def test_monotone_catches_sre2_extended_without_purity_normalisation(
    monkeypatch,
):
    def unnormalised(rho, n):
        return measures._m2(measures._pauli_traces(rho, n), 2 ** n)

    assert run_suite("monotone", n_samples=200).passed
    _plant(monkeypatch, measures.sre2_extended_batch, unnormalised)
    report = run_suite("monotone", n_samples=200)
    assert not report.passed
    assert report.max_violation > 0.1


def _expectations(amps, n):
    """<psi|P|psi> for every Pauli string P, computed as the shipped core does."""
    return np.einsum(
        "pij,...i,...j->...p", stabilizers.pauli_matrices(n), amps.conj(), amps
    ).real


def test_clifford_catches_sre2_without_the_y_paulis(monkeypatch):
    def no_y(amps, n):
        keep = [p for p in range(4 ** n) if "2" not in np.base_repr(p, 4)]
        return measures._m2(_expectations(amps, n)[..., keep], 2 ** n)

    assert run_suite("clifford", n_samples=200).passed
    _plant(monkeypatch, measures.sre2_pure_batch, no_y)
    report = run_suite("clifford", n_samples=200)
    assert not report.passed
    assert report.max_violation > 0.1


def test_additivity_catches_sre2_normalised_by_two_not_two_to_the_n(monkeypatch):
    def by_two(amps, n):
        return measures._m2(_expectations(amps, n), 2)

    assert run_suite("additivity", n_samples=200).passed
    _plant(monkeypatch, measures.sre2_pure_batch, by_two)
    report = run_suite("additivity", n_samples=200)
    assert not report.passed
    assert report.max_violation > 0.1


def test_convexity_catches_rom_under_a_square_root(monkeypatch):
    def rooted(bloch):
        return np.sqrt(np.maximum(1.0, np.abs(bloch).sum(axis=-1)))

    assert run_suite("convexity", n_samples=200).passed
    _plant(monkeypatch, measures.rom_batch, rooted)
    report = run_suite("convexity", n_samples=200)
    assert not report.passed
    assert report.max_violation > 1e-3


def test_sweep_lp_consistency_catches_bh_without_abs_on_sin_zeta(monkeypatch):
    # not a suite: the LP-oracle consistency test of the `clone bh` sweep
    from test_cloners import sweep_lp_gaps

    def no_abs(p, theta, zeta):
        return (1.0 - 2.0 * p.xi) * np.abs(np.cos(theta)) + p.eta * np.abs(
            np.sin(theta)
        ) * (np.abs(np.cos(zeta)) + np.sin(zeta))

    assert max(sweep_lp_gaps(["bh"])) <= 1e-9
    _plant(monkeypatch, cloners.bh_magic_unclipped, no_abs)
    input_gap, output_gap = sweep_lp_gaps(["bh"])
    assert input_gap <= 1e-9
    assert output_gap > 0.1
