"""Command-line front end.

Subcommands: magic, clone, verify, experiment, geometry.  Every command is
deterministic under a fixed --seed, and machine-readable outputs carry a
versioned "schema" field.  Exit codes: 0 success, 1 check failure, 2 usage
error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cloners import (
    BHParams,
    WZParams,
    bh_input_amps,
    bh_magic,
    eta_schwarz_max,
    m_ratio,
    wz_output_magic,
    wz_state_check,
)
from .errors import InvalidInputError, MagicBroadcastError, UnsupportedError
from .measures import magic_report, rom_batch
from .optimize import (
    OptimizerConfig,
    batch_experiment,
    outcome_from_json,
)
from .polytope import broadcast_geometry_certificate
from .states import (
    T_POLAR_ANGLE,
    PureState,
    h_state,
    pure_bloch_batch,
    superpose,
    superpose_batch,
    t_perp_state,
    t_state,
)

STATE_SPEC_HELP = (
    "state spec: a name (T, Tperp, H, zero, one, plus, minus, plus_i, "
    "minus_i); or 'theta,zeta[,basis=computational|T]' for "
    "cos(theta/2)|0> + e^{i zeta} sin(theta/2)|1> (basis=T superposes "
    "|T>/|Tperp> instead); or amplitudes 'amps=a0,a1' (complex literals "
    "like 0.6+0j allowed)"
)

_NAMED_STATES = {
    "t": t_state,
    "tperp": t_perp_state,
    "h": h_state,
    "zero": lambda: PureState([1, 0]),
    "one": lambda: PureState([0, 1]),
    "plus": lambda: PureState([1 / math.sqrt(2), 1 / math.sqrt(2)]),
    "minus": lambda: PureState([1 / math.sqrt(2), -1 / math.sqrt(2)]),
    "plus_i": lambda: PureState([1 / math.sqrt(2), 1j / math.sqrt(2)]),
    "minus_i": lambda: PureState([1 / math.sqrt(2), -1j / math.sqrt(2)]),
}


def parse_state_spec(spec: str) -> PureState:
    """Parse the state mini-grammar; raises ValueError on bad input."""
    text = spec.strip()
    key = text.lower().replace("-", "_")
    if key in _NAMED_STATES:
        return _NAMED_STATES[key]()

    if text.lower().startswith("amps="):
        parts = text[5:].split(",")
        amps = [complex(p.strip().replace(" ", "")) for p in parts]
        return PureState(amps)

    parts = [p.strip() for p in text.split(",")]
    if any("j" in p for p in parts):
        return PureState([complex(p.replace(" ", "")) for p in parts])

    basis = "computational"
    if parts and parts[-1].lower().startswith("basis="):
        basis = parts.pop()[6:].lower()
        if basis not in ("computational", "t"):
            raise ValueError(f"unknown basis {basis!r}")
    if len(parts) != 2:
        raise ValueError(f"cannot parse state spec {spec!r}")
    theta, zeta = float(parts[0]), float(parts[1])
    if basis == "t":
        return superpose(t_state(), t_perp_state(), theta, zeta)
    return superpose(PureState([1, 0]), PureState([0, 1]), theta, zeta)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_magic(args) -> int:
    state = parse_state_spec(args.state)
    if state.dim != 2 and not args.json:
        raise UnsupportedError(
            "text output covers one-qubit states only; use --json"
        )
    report = magic_report(state)
    if args.json:
        _emit(json.dumps(report.to_json()), args.out)
    else:
        _emit(
            "witness_d   = {}\nrom         = {}\nsre2        = {}\n"
            "extended_sre2 = {}".format(
                _fmt(report.witness_d),
                _fmt(report.rom),
                _fmt(report.sre2),
                _fmt(report.extended_sre2),
            ),
            args.out,
        )
    return 0


def _wz_params(args) -> WZParams:
    if args.ref is not None:
        return {
            "T": WZParams(T_POLAR_ANGLE, math.pi / 4.0),
            "H": WZParams(math.pi / 4.0, 0.0),
            "zero": WZParams(0.0, 0.0),
            "plus": WZParams(math.pi / 2.0, 0.0),
        }[args.ref]
    if args.gamma is None:
        raise ValueError("wz needs --ref or --gamma/--gamma-prime")
    return WZParams(args.gamma, args.gamma_prime)


def _rows_to_output(header, rows, args) -> int:
    if args.json:
        payload = {
            "schema": 1,
            "columns": list(header),
            "rows": [[float(v) for v in row] for row in rows],
        }
        _emit(json.dumps(payload), args.out)
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _emit("\n".join(lines), args.out)
    return 0


def _sweep_rows(columns) -> list:
    """Rows of Python floats (they format faster than numpy scalars)."""
    return np.column_stack(columns).tolist()


def _sweep_grid(points: int) -> np.ndarray:
    """`points` equally spaced angles in [0, 2 pi); an empty sweep is refused."""
    if points < 1:
        raise InvalidInputError(f"--sweep-points must be >= 1, got {points}")
    return np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)


def _check_machine_flags(args):
    """Refuse a non-finite machine parameter by its flag, before any formula."""
    for name in ("gamma", "gamma_prime", "zeta", "xi", "eta", "theta"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            flag = "--" + name.replace("_", "-")
            raise InvalidInputError(f"{flag} must be finite, got {value!r}")


def cmd_clone(args) -> int:
    _check_machine_flags(args)
    if args.machine == "wz":
        params = _wz_params(args)
        if args.input is not None:
            if not args.input:
                raise InvalidInputError("--input needs at least one state")
            rows = []
            for spec in args.input:
                check = wz_state_check(params, parse_state_spec(spec))
                rows.append(
                    (check.theta, check.input_magic, check.output_magic,
                     check.output_magic / check.input_magic)
                )
            return _rows_to_output(
                ("theta", "input_magic", "output_magic", "ratio"), rows, args
            )
        thetas = _sweep_grid(args.sweep_points)
        amps = superpose_batch(
            params.reference(), params.reference_perp(), thetas, args.zeta
        )
        input_magic = rom_batch(pure_bloch_batch(amps))
        output_magic = wz_output_magic(params, thetas)
        columns = (thetas, input_magic, output_magic, output_magic / input_magic)
        return _rows_to_output(
            ("theta", "input_magic", "output_magic", "ratio"),
            _sweep_rows(columns), args,
        )

    eta = args.eta if args.eta is not None else eta_schwarz_max(args.xi)
    params = BHParams(args.xi, eta)
    zetas = _sweep_grid(args.sweep_points)
    columns = (
        zetas,
        rom_batch(pure_bloch_batch(bh_input_amps(args.theta, zetas))),
        bh_magic(params, args.theta, zetas),
        m_ratio(params, args.theta, zetas),
    )
    return _rows_to_output(
        ("zeta", "input_magic", "output_magic", "ratio"),
        _sweep_rows(columns), args,
    )


def cmd_verify(args) -> int:
    from .checks import run_suite

    seed = args.seed if args.seed is not None else 0
    report = run_suite(args.suite, n_samples=args.samples, seed=seed)
    if args.json:
        _emit(json.dumps(report.to_json()), args.out)
    else:
        _emit(
            "{}: {} over {} samples; max violation {} (tolerance {}), "
            "{} ms".format(
                report.check_name,
                "PASS" if report.passed else "FAIL",
                report.samples,
                _fmt(report.max_violation),
                _fmt(report.tolerance),
                report.runtime_ms,
            ),
            args.out,
        )
    return 0 if report.passed else 1


def _load_outcomes(path: Path) -> dict:
    """Stored outcomes by sample index, for a resume.

    A run stopped mid-write leaves a torn last line, or a last line without
    its newline.  The torn line is dropped with a warning, and the file is
    rewritten so that the next append starts a fresh line.  An unparsable
    line before the last is an error.
    """
    if not path.exists():
        return {}
    text = path.read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    rewrite = bool(text) and not text.endswith("\n")
    outcomes = {}
    for k, line in enumerate(lines):
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            if k < len(lines) - 1:
                raise
            print(f"warning: dropped the unparsable last line of {path}",
                  file=sys.stderr)
            lines.pop()
            rewrite = True
            break
        outcomes[data["index"]] = outcome_from_json(data)
    if rewrite:
        path.write_text("".join(line + "\n" for line in lines))
    return outcomes


def cmd_experiment(args) -> int:
    cfg_data = {}
    if args.config:
        cfg_data = json.loads(Path(args.config).read_text())
        if not isinstance(cfg_data, dict):
            raise InvalidInputError("--config must hold a JSON object")
    if args.seed is not None:
        cfg_data["seed"] = args.seed
    cfg = OptimizerConfig.from_json(cfg_data)
    n_samples = args.samples
    if n_samples is None:
        n_samples = cfg_data.get("n_samples", 200)
    if not (isinstance(n_samples, int) and n_samples >= 1):   # before any write
        raise InvalidInputError(
            f"n_samples must be an integer >= 1, got {n_samples!r}"
        )

    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    outcomes_path = out_dir / f"{args.objective}_outcomes.jsonl"
    summary_path = out_dir / f"{args.objective}_summary.json"

    precomputed = _load_outcomes(outcomes_path)
    with outcomes_path.open("a") as fh:
        def sink(index, outcome):
            fh.write(json.dumps({"index": index, **outcome.to_json()}) + "\n")
            fh.flush()

        summary = batch_experiment(
            n_samples, args.objective, cfg,
            outcome_sink=sink, precomputed=precomputed,
        )

    summary_path.write_text(json.dumps(summary.to_json(), indent=2) + "\n")
    print(json.dumps(summary.to_json()))
    return 0


def _bloch(text: str) -> list:
    """The comma-separated floats of one endpoint; the certificate checks them."""
    return [float(p) for p in text.split(",")]


def cmd_geometry(args) -> int:
    cert = broadcast_geometry_certificate(
        _bloch(args.sys0), _bloch(args.sys1),
        _bloch(args.aux0), _bloch(args.aux1), args.level,
    )
    if args.json:
        _emit(json.dumps(cert.to_json()), args.out)
    else:
        _emit(
            "broadcastable = {}\ncommon_t = {}".format(
                cert.broadcastable, [round(t, 12) for t in cert.common_t]
            ),
            args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magicbroadcast",
        description=(
            "Magic measures, cloning machines, broadcast geometry, and "
            "broadcasting-unitary optimization experiments."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: command-specific)")
    common.add_argument("--json", action="store_true",
                        help="emit JSON instead of text/CSV")
    common.add_argument("--out", default=None, help="write output to a path")
    common.add_argument("--config", default=None,
                        help="JSON config file path")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("magic", parents=[common],
                       help="magic measures of a single state",
                       epilog=STATE_SPEC_HELP)
    p.add_argument("state", help=STATE_SPEC_HELP)
    p.set_defaults(func=cmd_magic)

    p = sub.add_parser(
        "clone", parents=[common],
        help="cloning-machine sweeps (CSV: theta|zeta,input_magic,"
             "output_magic,ratio)",
    )
    p.add_argument("machine", choices=["wz", "bh"])
    p.add_argument("--ref", choices=["T", "H", "zero", "plus"],
                   help="named reference state for the wz machine")
    p.add_argument("--gamma", type=float, default=None,
                   help="wz reference polar angle")
    p.add_argument("--gamma-prime", type=float, default=0.0,
                   help="wz reference phase")
    p.add_argument("--xi", type=float, default=1.0 / 6.0,
                   help="bh machine parameter xi")
    p.add_argument("--eta", type=float, default=None,
                   help="bh machine parameter eta (default: Schwarz maximum)")
    p.add_argument("--theta", type=float, default=T_POLAR_ANGLE,
                   help="bh input polar angle")
    p.add_argument("--zeta", type=float, default=0.0,
                   help="fixed phase for wz theta sweeps")
    p.add_argument("--input", nargs="*", default=None,
                   help=f"wz input state(s); {STATE_SPEC_HELP}")
    p.add_argument("--sweep-points", type=int, default=100,
                   help="number of sweep grid points")
    p.set_defaults(func=cmd_clone)

    from .checks import suite_names

    p = sub.add_parser("verify", parents=[common],
                       help="run a property-verification suite")
    p.add_argument("suite", choices=suite_names())
    p.add_argument("--samples", type=int, default=None,
                   help="sample count (default: suite-specific)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", parents=[common],
                       help="batch broadcasting-unitary optimization")
    p.add_argument("objective", choices=["magic", "state"])
    p.add_argument("--samples", type=int, default=None,
                   help="number of Haar samples (default 200)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("geometry", parents=[common],
                       help="equal-ratio line/polytope broadcast certificate")
    p.add_argument("sys0", help="system line start, 'mx,my,mz'")
    p.add_argument("sys1", help="system line end")
    p.add_argument("aux0", help="auxiliary line start")
    p.add_argument("aux1", help="auxiliary line end")
    p.add_argument("--level", type=float, required=True,
                   help="polytope level r >= 1")
    p.set_defaults(func=cmd_geometry)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MagicBroadcastError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
