"""Planted faults: a suite that checks the shipped code must fail on a mutant.

Each test rebinds a shipped function to a small mutant in every package
module that holds it (the suites call the functions by imported name), runs
a suite at a small sample count, and requires a FAIL verdict.
"""
import sys

import numpy as np

from magicbroadcast import measures, polytope
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
