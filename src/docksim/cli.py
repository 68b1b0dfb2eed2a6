"""Command-line front end.

Subcommands: simulate, stability, boundary, linearize, energy. Inputs are
JSON scenario files, strictly checked: each section (the document, body,
contact, each spring, sim, sim.initial and analysis) is read by _section
through one table from its keys to their kinds (a number, a whole number, a
length-3 vector, a 3x3 matrix, the springs list, an object, or a raw
value), which rejects unknown keys and missing required keys. Each check
raises its own ValidationError where it is made; a section that is not a
JSON object, or springs that are not a JSON list, is a "malformed scenario
value". Four pairs of keys are either-or, read by one rule (_either) that
takes exactly one of them: J or J_x, a_B or a, alpha or alpha_deg, theta or
theta_deg (the *_deg keys take degrees). A key left out takes the default
of the core type it fills, an analysis key that of ANALYSIS_DEFAULTS;
sim.dt, which has neither, defaults to 1e-4 s. Bulk numeric outputs are CSV
with fixed formatting so repeated runs are byte-identical. Run metadata
goes to a separate .meta.json sidecar, never into the data files.

stability judges one second-order delay system mu s^2 + e^(-s h)
(beta s + kappa): given by --mu, --beta and --kappa, or defaulted with
--from-scenario to the scenario's penetration mode (m_a, b_v, k), the one
contact mode of its planar linearization. Both ways print the same text
and JSON, and --out writes the JSON to a file with or without --json;
--set paths may step into lists by index (contact.springs.0.k), and --set
without --from-scenario is an input error.

Exit codes: 0 success, 1 invalid input (a ValidationError, an OSError
for a file that cannot be read or written, or a usage error), 2 numerical
divergence, 3 an internal fault (any other exception, an internal
ValueError, TypeError or AttributeError included, reported on one line). A
reader that closes stdout early (docksim ... | head) is not bad input: the
run ends with 0 and no error line.

Three policies here are public so that the experiment scripts under
scripts/ share them rather than copy them: exit_code (the exception to exit
code map above, which ends main and every script), Parser (argparse with
usage errors remapped to 1) and write_run (the .traj.csv and .events.json
pair that simulate writes).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis as _analysis
from . import dynamics as _dynamics
from . import linear as _linear
from . import stability as _stability
from .core import (
    BodyParams,
    ChaserState2D,
    ChaserState3D,
    ContactParams,
    SimConfig,
    ValidationError,
    allocate,
    nonnegative_problem,
    require,
    validate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DIVERGED = 2
EXIT_INTERNAL = 3

ANALYSIS_DEFAULTS = {
    "neutrality_band": _stability.DEFAULT_NEUTRAL_BAND,
    "averaging_window": _dynamics.DEFAULT_EVENT_WINDOW,
}


def _malformed(where: str, value, kind: type, expected: str):
    """value unchanged if it is of the JSON kind (dict for an object, list
    for an array), else a ValidationError: a malformed scenario value."""
    if not isinstance(value, kind):
        raise ValidationError(f"malformed scenario value ({where} must be {expected}, got {json.dumps(value)})")
    return value


def _object(where: str, value) -> dict:
    """value unchanged if it is a JSON object, else a :func:`_malformed`
    error."""
    return _malformed(where, value, dict, "an object")


def _section(name: str, data, kinds: dict, required: tuple[str, ...] = ()) -> dict:
    """Read one scenario section: {key: kinds[key](f"{name}.{key}", value)}
    for the keys present. Data that is not a JSON object is an
    :func:`_object` error; an unknown key, named with JSON's escapes so that
    the message stays on one line, or a missing required key is a
    ValidationError."""
    _object(name, data)
    unknown = sorted(data.keys() - kinds.keys())
    if unknown:
        names = ", ".join(json.dumps(key, ensure_ascii=False)[1:-1] for key in unknown)
        raise ValidationError(f"unknown key(s) in {name}: {names}")
    for key in required:
        if key not in data:
            raise ValidationError(f"{name}: missing {key}")
    return {key: kinds[key](f"{name}.{key}", value) for key, value in data.items()}


def _leaf(where: str, x, expected: str):
    """x if it is a JSON number that fits a float, the one rule of every
    scenario number, else ValidationError naming where: not true/false
    (float() reads them as 1 and 0), a string such as "50", null (numpy
    reads it as nan) or an integer beyond the float range (JSON integers
    are unbounded; float() and numpy overflow on them)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValidationError(f"{where} must {expected}, got {json.dumps(x)}")
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        raise ValidationError(f"{where} must fit a float, got an integer of {len(str(abs(x)))} digits")
    return x


def _raw(where: str, value):
    """value unchanged: a key that its section, or the type it builds, checks."""
    return value


def _number(where: str, value) -> float:
    """A :func:`_leaf` number as a float."""
    return float(_leaf(where, value, "be a number"))


def _whole(where: str, value) -> int:
    """A :func:`_leaf` number that is whole, as an int: not 2.9, NaN or
    Infinity."""
    value = _leaf(where, value, "be a number")
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{where} must be a whole number, got {json.dumps(value)}")
    return int(value)


def _vector(where: str, value, matrix: bool = False):
    """value unchanged: a length-3 vector, or with matrix a 3x3 matrix, of
    :func:`_leaf` numbers. Any other nesting, ragged or not, is rejected,
    and so is any other leaf."""
    def wrong_shape():
        shape = "3x3 matrix" if matrix else "length-3 vector"
        return ValidationError(f"{where} must be a {shape}, got {json.dumps(value)}")

    items = [value]
    for _ in range(1 + matrix):
        if not all(isinstance(item, (list, tuple)) and len(item) == 3 for item in items):
            raise wrong_shape()
        items = [x for item in items for x in item]
    for item in items:
        if isinstance(item, (list, tuple)):
            raise wrong_shape()
        _leaf(where, item, "hold numbers")
    return value


def _matrix(where: str, value):
    """value unchanged: a :func:`_vector` 3x3 matrix."""
    return _vector(where, value, matrix=True)


def _springs(where: str, value) -> tuple:
    """The compliance-device springs, a JSON list (else a
    :func:`_malformed` error), as (k, l_hat) pairs, each spring an object of
    both keys."""
    springs = [_section(f"{where}[{i}]", spring, {"k": _number, "l_hat": _vector}, ("k", "l_hat"))
               for i, spring in enumerate(_malformed(where, value, list, "a list"))]
    return tuple((spring["k"], spring["l_hat"]) for spring in springs)


def _either(section: str, values: dict, key: str, other: str, convert):
    """Take one value out of a section's read values, the one rule of the
    either-or keys: values[key] as given, or convert(values[other]). Both
    or neither is a ValidationError."""
    if (key in values) == (other in values):
        raise ValidationError(f"{section}: give exactly one of {key} or {other}")
    return values.pop(key) if key in values else convert(values.pop(other))


def scenario_path(name: str) -> Path:
    """Resolve a scenario reference: an existing path that is not a
    directory wins (a file, or a pipe such as <(cat table1.json)),
    otherwise the bundled scenario of that name (with or without .json)."""
    p = Path(name)
    if p.exists() and not p.is_dir():
        return p
    base = resources.files("docksim") / "scenarios"
    for candidate in (name, name + ".json"):
        bundled = base / candidate
        if bundled.is_file():
            return Path(str(bundled))
    raise ValidationError(f"scenario not found: {name}")


def load_scenario(path: Path, overrides: list[str] | None = None):
    """Parse, override and validate a scenario file.

    Returns (body, contact, sim, analysis_options). Overrides are
    dotted-path assignments like contact.b_v=60 applied to the raw document
    before parsing; values are parsed as JSON. Values of the wrong kind
    (null for a number, a number for a section) raise ValidationError where
    they are read; any other exception is a fault of the program.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON, text that is not UTF-8, an integer too long to read
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    body, contact, sim, options = _parse_scenario(doc, overrides or [])
    body, contact, sim = validate(body, contact, sim)
    return body, contact, sim, options


def _parse_scenario(doc, overrides: list[str]):
    """Apply the overrides to the raw document and build the unvalidated
    (body, contact, sim, analysis_options)."""
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except ValueError as exc:  # an integer of more digits than Python converts
            raise ValidationError(f"override {dotted!r}: {exc}") from None
        # a path steps into a dict by key and into a list by a non-negative
        # index; its last key may name a new dict entry
        node = doc
        for key in dotted.strip().split("."):
            parent = node
            # float() reads a digit string of any length, int() none beyond 4 300 digits
            if isinstance(node, list) and key.isascii() and key.isdigit() and float(key) < len(node):
                key = int(float(key))
                node = node[key]
            elif isinstance(node, dict):
                node = node.get(key)
            else:
                raise ValidationError(f"override path {dotted!r} does not lead into the document")
        parent[key] = value

    doc = _section("scenario", doc, dict.fromkeys(("description", "body", "contact", "sim", "analysis"), _raw),
                   ("body", "contact", "sim"))

    body = _section("body", doc["body"],
                    {"m": _number, "J": _matrix, "J_x": _number, "a": _number, "a_B": _vector}, ("m",))
    body = BodyParams(m=body["m"], J=_either("body", body, "J", "J_x", lambda J_x: np.diag([J_x] * 3)),
                      a_B=_either("body", body, "a_B", "a", lambda a: [0.0, 0.0, a]))

    contact = _section("contact", doc["contact"],
                       {"k_v": _number, "b_v": _number, "alpha": _number, "alpha_deg": _number,
                        "springs": _springs, "n_hat": _vector, "activation": _raw}, ("k_v", "b_v"))
    alpha = _either("contact", contact, "alpha", "alpha_deg", math.radians)
    contact = ContactParams(alpha=alpha, **contact)

    sim = _section("sim", doc["sim"], {"h": _number, "dt": _number, "t_end": _number,
                                       "record_every": _whole, "initial": _object}, ("h", "t_end", "initial"))
    mode = sim["initial"].get("mode")
    if mode == "2d":
        initial = _section("sim.initial", sim["initial"],
                           {"mode": _raw, "z": _number, "v_z": _number, "theta": _number, "theta_deg": _number,
                            "omega": _number, "y": _number, "v_y": _number}, ("z", "v_z", "omega"))
        initial["theta"] = _either("sim.initial", initial, "theta", "theta_deg", math.radians)
    elif mode == "3d":
        keys = ("r", "v", "d_c3", "omega")
        initial = _section("sim.initial", sim["initial"], {"mode": _raw, **dict.fromkeys(keys, _vector)}, keys)
    else:
        raise ValidationError("sim.initial: mode must be '2d' or '3d'")
    del initial["mode"]
    initial = (ChaserState2D if mode == "2d" else ChaserState3D)(**initial)
    sim = SimConfig(**{"dt": 1e-4, **sim, "initial": initial})

    options = {**ANALYSIS_DEFAULTS,
               **_section("analysis", doc.get("analysis", {}), dict.fromkeys(ANALYSIS_DEFAULTS, _number))}
    require(*(nonnegative_problem(f"analysis.{key}", value) for key, value in options.items()))
    return body, contact, sim, options


class Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI and the scripts
    reserve 2 for numerical divergence, so remap command-line problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _grid(text: str) -> list[float]:
    """Parse a grid argument: 'start:stop:count' (inclusive linspace) or a
    comma-separated value list; any other text is a ValidationError that
    quotes it."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValidationError(f"grid must be start:stop:count, got {text!r}")
    try:
        if len(parts) == 1:
            return [float(x) for x in text.split(",") if x.strip()]
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"grid must be start:stop:count (a whole count) or a comma list "
                              f"of numbers, got {text!r}") from None
    if count < 1:
        raise ValidationError("grid count must be >= 1")
    return [float(x) for x in allocate(f"grid count {count}", np.linspace, start, stop, count)]


def _write_json(obj, out: str | None) -> None:
    """Standard JSON: a nan or inf value raises ValueError, never written."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def write_run(prefix: str, traj, events, band: float) -> list:
    """Write a run's data files, <prefix>.traj.csv and <prefix>.events.json
    (the events judged against the neutrality band), and return the events
    payload."""
    _dynamics.write_trajectory_csv(traj, f"{prefix}.traj.csv")
    payload = _analysis.events_payload(events, band)
    _write_json({"events": payload}, f"{prefix}.events.json")
    return payload


def cmd_simulate(args) -> int:
    path = scenario_path(args.scenario)
    body, contact, sim, options = load_scenario(path, args.set)
    traj, events = _dynamics.simulate(sim, body, contact, mode=args.mode,
                                      event_window=options["averaging_window"])
    prefix = args.out
    write_run(prefix, traj, events, options["neutrality_band"])
    meta = {
        "command": "simulate",
        "scenario": str(path),
        "overrides": list(args.set or []),
        "mode": traj.mode,
        "samples": int(len(traj.times)),
        "events": len(events),
        "docksim_version": __version__,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(meta, f"{prefix}.meta.json")
    print(f"wrote {prefix}.traj.csv ({len(traj.times)} samples), "
          f"{prefix}.events.json ({len(events)} events)")
    return EXIT_OK


def cmd_stability(args) -> int:
    """Pole-location summary of one delay system. --from-scenario only
    supplies defaults: mu, beta and kappa of the scenario's penetration mode
    (m_a, b_v, k), its delay sim.h and its analysis.neutrality_band; each of
    --mu, --beta, --kappa, --h and --band given overrides its default."""
    values = {"h": None, "band": _stability.DEFAULT_NEUTRAL_BAND}
    if args.set and not args.from_scenario:
        raise ValidationError("--set overrides a scenario entry; give it with --from-scenario")
    if args.from_scenario:
        path = scenario_path(args.from_scenario)
        body, contact, sim, options = load_scenario(path, args.set)
        mu, beta, kappa = _linear.penetration_dde_coeffs(body, contact)
        values = {"mu": mu, "beta": beta, "kappa": kappa, "h": sim.h, "band": options["neutrality_band"]}
    for key in ("mu", "beta", "kappa", "h", "band"):
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    if not {"mu", "beta", "kappa"} <= set(values):
        raise ValidationError("stability needs --mu, --beta and --kappa (or --from-scenario)")
    result = _stability.analyze(**values, n_delays=args.n_delays)
    if args.json or args.out:
        payload = result.as_dict()
        if args.from_scenario:
            payload["scenario"] = str(path)
        _write_json(payload, args.out)
    else:
        print(f"omega_c = {result.omega_c:.9g} rad/s")
        print(f"h_c     = {result.h_c:.9g} s")
        print("h_n     = " + ", ".join(f"{h:.9g}" for h in result.h_n) + " s")
        print(f"sigma   = {result.sigma:.9g}")
        if result.verdict is not None:
            print(f"verdict at h = {result.h:.9g} s: {result.verdict}")
    return EXIT_OK


def cmd_boundary(args) -> int:
    points = _stability.stability_boundary(
        args.axis, _grid(args.grid), mu=args.mu, beta=args.beta, kappa=args.kappa,
    )
    _stability.write_boundary_csv(points, args.out)
    failures = [p for p in points if p.error]
    print(f"wrote {args.out} ({len(points)} points, {len(failures)} failed)")
    for p in failures:
        print(f"  x = {p.x:.9g}: {p.error}", file=sys.stderr)
    return EXIT_OK


def cmd_linearize(args) -> int:
    path = scenario_path(args.scenario)
    body, contact, sim, _ = load_scenario(path, args.set)
    model = _linear.linearize_2d(body, contact, k=args.k, b=args.b)
    nominal = model.nominal
    _write_json(
        {
            "F_x": model.F_x.tolist(),
            "T": model.T.tolist(),
            "F_y": model.F_y.tolist(),
            "m_a": model.m_a,
            "k": model.k,
            "b": model.b,
            "nominal": {
                "z": nominal.z, "v_z": nominal.v_z,
                "theta": nominal.theta, "omega": nominal.omega,
            },
        },
        args.out,
    )
    return EXIT_OK


def cmd_energy(args) -> int:
    """Observed-energy monitor over a measured/commanded trajectory pair,
    resampled to the monitor sample time. A 3D trajectory CSV holds only
    the force intensity f, so the force is taken along the wall normal
    (0, 0, 1): for a scenario with another contact.n_hat the power is
    wrong, with no warning. For those, call
    docksim.analysis.streams_from_trajectories(measured, commanded,
    n_hat=...) from Python."""
    measured = _dynamics.read_trajectory_csv(args.measured)
    commanded = _dynamics.read_trajectory_csv(args.commanded)
    if len(measured.times) != len(commanded.times):
        raise ValidationError(
            f"row count mismatch: {args.measured} has {len(measured.times)} rows, "
            f"{args.commanded} has {len(commanded.times)}"
        )
    streams = _analysis.streams_from_trajectories(measured, commanded, dt=args.dt)
    record = _analysis.observed_energy(streams, dt=args.dt, tolerance=args.tolerance)
    _analysis.write_energy_csv(record, args.out)
    print(f"wrote {args.out} ({len(record.total)} samples, final dE = {record.total[-1]:.9g} J, "
          f"{record.classification[-1]})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="docksim",
        description="Delayed contact-dynamics docking simulator and stability analysis. "
                    "Units are SI (kg, m, s, N, rad); scenario keys suffixed _deg take degrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a scenario, write trajectory CSV + events JSON")
    p.add_argument("scenario", help="scenario file path or bundled name (e.g. table1.json)")
    p.add_argument("--mode", choices=["2d", "3d"], default=None,
                   help="integration model (default: the initial state's mode)")
    p.add_argument("--out", required=True, help="output prefix for .traj.csv/.events.json/.meta.json")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="override a scenario entry, e.g. contact.b_v=60 (repeatable)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stability", help="pole-location analysis of the delay system")
    p.add_argument("--mu", type=float, help="mass coefficient [kg]")
    p.add_argument("--beta", type=float, help="damping coefficient [N*s/m]")
    p.add_argument("--kappa", type=float, help="stiffness coefficient [N/m]")
    p.add_argument("--h", type=float, default=None, help="delay to judge [s]")
    p.add_argument("--from-scenario", default=None,
                   help="take the defaults of --mu, --beta, --kappa (the penetration mode), "
                        "--h and --band from a scenario file")
    p.add_argument("--set", action="append", metavar="PATH=VALUE", help="scenario override")
    p.add_argument("--n-delays", type=int, default=5, help="number of crossing delays to list")
    p.add_argument("--band", type=float, default=None,
                   help=f"relative neutrality band around h_c (default {_stability.DEFAULT_NEUTRAL_BAND})")
    p.add_argument("--json", action="store_true", help="emit the result as JSON")
    p.add_argument("--out", default=None, help="write the JSON result here (with or without --json)")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("boundary", help="neutral-stability curve along one parameter axis")
    p.add_argument("--axis", required=True, choices=["beta", "kappa", "mu"])
    p.add_argument("--mu", type=float, default=None, help="fixed mass [kg]")
    p.add_argument("--beta", type=float, default=None, help="fixed damping [N*s/m]")
    p.add_argument("--kappa", type=float, default=None, help="fixed stiffness [N/m]")
    p.add_argument("--grid", required=True, help="start:stop:count or comma list")
    p.add_argument("--out", required=True, help="curve CSV path")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("linearize", help="dump F_x, T, F_y and m_a for a scenario")
    p.add_argument("scenario")
    p.add_argument("--k", type=float, default=None,
                   help="analysis stiffness override [N/m] (default: k_v plus the "
                        "compliance-device upper bound)")
    p.add_argument("--b", type=float, default=None, help="analysis damping override [N*s/m]")
    p.add_argument("--set", action="append", metavar="PATH=VALUE", help="scenario override")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("energy", help="observed-energy monitor over a measured/commanded pair",
                       description=cmd_energy.__doc__)
    p.add_argument("--measured", required=True, help="measured trajectory CSV")
    p.add_argument("--commanded", required=True, help="commanded trajectory CSV")
    p.add_argument("--dt", type=float, default=_analysis.DEFAULT_SAMPLE_TIME,
                   help="monitor sample time [s]")
    p.add_argument("--tolerance", type=float, default=_analysis.DEFAULT_LOSSLESS_TOL,
                   help="lossless band [J]")
    p.add_argument("--out", required=True, help="energy CSV path")
    p.set_defaults(func=cmd_energy)
    return parser


def exit_code(command) -> int:
    """Run command(), which takes no arguments and returns an exit code,
    and map its outcome to the exit code: the one place that turns an
    exception into a status and a stderr line, for main and the scripts."""
    try:
        code = command()
        sys.stdout.flush()
        return code
    except SystemExit as exc:
        # argparse's own exit: --help (0) or a usage error (Parser.error)
        return exc.code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush finds no broken pipe either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except _dynamics.DivergenceError as exc:
        print(f"divergence guard: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    """Run one docksim command under :func:`exit_code`."""
    def command():
        args = build_parser().parse_args(argv)
        return args.func(args)

    return exit_code(command)
