"""Planted faults: a suite that checks the shipped code must fail on a mutant.

Each test rebinds a shipped function to a small mutant in every package
module that holds it (the suites call the functions by imported name), runs
a suite at a small sample count, and requires a FAIL verdict; the last one
requires the sweep/LP-oracle consistency measure to exceed its tolerance.
"""
import sys

import numpy as np

from magicbroadcast import checks, cloners, measures, polytope
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
