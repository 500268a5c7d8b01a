"""Golden outputs of the command line, pinned file by file.

Each group below re-runs fixed CLI invocations and compares their output
with the files in `tests/golden/`.  `MANIFEST.json` records the numpy
version and CPU dispatch level the files were written with.  When both
match the running interpreter, every file must be byte-identical.  On any
other numpy or CPU the outputs are parsed and compared field by field:
ints, bools and strings exactly, floats to within `FLOAT_SLACK` (numpy's
SIMD code paths change the last bits of some sums).

Regenerate with `PYTHONPATH=src python tests/test_golden.py [group ...]`,
and give the reason for every changed file in CHANGES.md.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from magicbroadcast.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_SLACK = 2e-14

NAMED = ("T", "Tperp", "H", "zero", "one", "plus", "minus", "plus_i", "minus_i")
# one valid spec per grammar form, plus a two-qubit state (JSON only)
SPECS = ("0.955,0.785", "1.1,0.4,basis=T", "amps=0.6,0.8", "0.6+0j,0.8j",
         "amps=0.5,0.5,0.5,0.5")
# four endpoints on the common level 1.2 (up to rounding of the sum)
ENDPOINTS = ("0.5,0.4,0.3", "-0.2,0.6,-0.4", "0.3,-0.5,0.4", "0.6,0.0,-0.6")
VERIFY_SAMPLES = {
    "additivity": 100, "clifford": 100, "convexity": 100, "geometry": 10,
    "lemma1": 2000, "monotone": 500, "theorem2": 72, "theorem3": 200,
}


def manifest() -> dict:
    return {
        "numpy": np.__version__,
        "cpu_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
    }


def _run(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def _magic():
    lines = [_run("magic", spec, "--json") for spec in NAMED + SPECS]
    return {"magic.jsonl": "".join(lines)}


def _clone():
    points = ("--sweep-points", "100")
    return {
        "clone_wz_T.csv": _run("clone", "wz", "--ref", "T", *points),
        "clone_wz_H.csv": _run("clone", "wz", "--ref", "H", *points),
        "clone_bh.csv": _run("clone", "bh", *points),
    }


def _geometry():
    lines = [_run("geometry", "--json", "--level", level, "--", *ENDPOINTS)
             for level in ("1", "1.2")]
    return {"geometry.jsonl": "".join(lines)}


def _verify():
    lines = []
    for suite, samples in sorted(VERIFY_SAMPLES.items()):
        report = json.loads(_run("verify", suite, "--json", "--samples", str(samples)))
        del report["runtime_ms"]
        lines.append(json.dumps(report) + "\n")
    return {"verify.jsonl": "".join(lines)}


def _experiment(objective):
    def produce():
        with tempfile.TemporaryDirectory() as tmp:
            _run("experiment", objective, "--samples", "8", "--out", tmp)
            return {
                f"experiment_{objective}.jsonl":
                    (Path(tmp) / f"{objective}_outcomes.jsonl").read_text(),
                f"experiment_{objective}_summary.json":
                    (Path(tmp) / f"{objective}_summary.json").read_text(),
            }
    return produce


GROUPS = {
    "magic": _magic,
    "clone": _clone,
    "geometry": _geometry,
    "verify": _verify,
    "experiment_magic": _experiment("magic"),
    "experiment_state": _experiment("state"),
}


def _parsed(name: str, text: str):
    if name.endswith(".csv"):
        rows = [line.split(",") for line in text.splitlines()]
        return [rows[0]] + [[float(v) for v in row] for row in rows[1:]]
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def _mismatches(want, got, path="") -> list:
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(want - got) <= FLOAT_SLACK else [f"{path}: {want!r} != {got!r}"]
    if isinstance(want, (list, dict)) and type(want) is type(got) and len(want) == len(got):
        keys = want if isinstance(want, dict) else range(len(want))
        if isinstance(want, dict) and set(want) != set(got):
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in keys for m in _mismatches(want[k], got[k], f"{path}/{k}")]
    return [] if type(want) is type(got) and want == got else [f"{path}: {want!r} != {got!r}"]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_outputs(group):
    exact = json.loads((GOLDEN / "MANIFEST.json").read_text()) == manifest()
    for name, text in GROUPS[group]().items():
        stored = (GOLDEN / name).read_text()
        if exact:
            assert text == stored, f"{name} differs from its golden file"
        else:
            bad = _mismatches(_parsed(name, stored), _parsed(name, text))
            assert not bad, f"{name}: " + "; ".join(bad[:5])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    stored = GOLDEN / "MANIFEST.json"
    if sys.argv[1:] and stored.exists() and json.loads(stored.read_text()) != manifest():
        sys.exit("numpy or CPU dispatch differs from MANIFEST.json: regenerate every group")
    for group in sys.argv[1:] or sorted(GROUPS):
        for name, text in GROUPS[group]().items():
            (GOLDEN / name).write_text(text)
            print("wrote", name)
    (GOLDEN / "MANIFEST.json").write_text(json.dumps(manifest(), indent=2) + "\n")
