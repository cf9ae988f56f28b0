"""Command-line front end: certification suites, horseshoe exports, orbits.

Subcommands
-----------
certify    run the chaos certification suite, one JSON certificate per check
horseshoe  export hyperbolic and conjugacy reports (JSON), and as --format
           selects, level rectangles (CSV, default) and an SVG rendering
           of the unit square
orbit      tabulate a symbolic or planar orbit as CSV

A top-level ``--verify FILE`` mode re-verifies any emitted certificate or
report with `certify.verify_certificate`.

Configuration is a flat ``key = value`` text file (``--config``); explicit
flags win over file values.  Identical config plus seed reproduces output
files byte for byte.

Each subcommand imports the layers it runs when it runs: a symbolic orbit
loads neither `certify` nor `horseshoe`, `certify` does not load
`horseshoe`, and `horseshoe` does not load `certify`.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from .metric import MetricParams, check_tolerance, orbit_distances
from .schema import (
    MAX_CONJUGACY_DEPTH,
    MAX_CONJUGACY_SAMPLES,
    MAX_METRIC_DEPTH,
    MAX_STEPS,
    MAX_WINDOW,
    RECTANGLE_CAP,
    SCHEMA_VERSION,
    parse_number,
)
from .sequences import (
    Alphabet,
    BiSequence,
    FrozenValue,
    UniversalSeq,
    periodic,
    splice,
    window_padded,
)


class ConfigError(ValueError):
    pass


class RunConfig(FrozenValue):
    """One run's settings.  The defaults are class attributes, so
    `RunConfig.r` reads the default weight base."""

    _fields = ("m", "r", "lam", "mu", "k", "n", "horizon", "tol", "out", "formats", "seed",
               "sets", "targets", "recurrence_depth", "metric_depth", "conjugacy_depth",
               "conjugacy_samples")
    m: int = 2
    r: float = 0.5
    lam: object = Fraction(1, 3)
    mu: object = Fraction(3)
    k: int = 3
    n: int = 3
    horizon: int = 100
    tol: float = 1e-12
    out: Path = Path("out")
    formats: tuple[str, ...] = ("json", "csv")
    seed: int = 0
    sets: int = 3
    targets: int = 3
    recurrence_depth: int = 10
    metric_depth: int = 12
    conjugacy_depth: int = 20
    conjugacy_samples: int = 25

    def __init__(self, m=m, r=r, lam=lam, mu=mu, k=k, n=n, horizon=horizon, tol=tol, out=out,
                 formats=formats, seed=seed, sets=sets, targets=targets,
                 recurrence_depth=recurrence_depth, metric_depth=metric_depth,
                 conjugacy_depth=conjugacy_depth, conjugacy_samples=conjugacy_samples) -> None:
        for name, value in zip(self._fields, (m, r, lam, mu, k, n, horizon, tol, out, formats,
                                              seed, sets, targets, recurrence_depth, metric_depth,
                                              conjugacy_depth, conjugacy_samples)):
            object.__setattr__(self, name, value)

    def validate(self, command: str | None = None) -> None:
        try:
            Alphabet(self.m)
            p = MetricParams(self.r)
            if (self.lam, self.mu) != (RunConfig.lam, RunConfig.mu):  # the defaults are valid
                from .horseshoe import HorseshoeParams

                HorseshoeParams(self.lam, self.mu)
            if not 0 < self.tol < math.inf:
                raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
            check_tolerance(self.r, self.tol)
            if self.k < 0 or self.n < 1:
                raise ValueError("need k >= 0 and n >= 1")
            if 2 ** (self.k + 1 + self.n) > RECTANGLE_CAP:
                raise ValueError("rectangle cap exceeded: k + n too deep")
            if not (0 <= self.seed < 1 << 64):
                raise ValueError("seed must fit in 64 bits")
            for name, lo, hi in (
                ("horizon", 10, MAX_WINDOW),
                ("recurrence_depth", 1, MAX_STEPS),
                ("metric_depth", 1, MAX_METRIC_DEPTH),
                ("conjugacy_depth", 2, MAX_CONJUGACY_DEPTH),
                ("conjugacy_samples", 0, MAX_CONJUGACY_SAMPLES),
            ):
                if not lo <= getattr(self, name) <= hi:
                    raise ValueError(f"{name} must lie in [{lo}, {hi}]")
            bad = [f for f in self.formats if f not in ("json", "csv", "svg")]
            if bad:
                raise ValueError(f"unknown output formats: {bad}")
            if command != "certify":
                return
            from . import certify as cert

            if self.m > cert.MAX_SCAN_ALPHABET:
                raise ValueError(f"certify needs m <= {cert.MAX_SCAN_ALPHABET}: its Poisson scan "
                                 "stores symbols as bytes")
            # its files stay within their caps, and every witness passes its check
            cert.check_steps("recurrence_depth", self.recurrence_depth, p, self.tol)
            cert.check_n_max(_CONVERGENCE_STEPS, p, self.tol)
            cert.check_horizon(p, self.horizon)
            cert.check_witness_room(p, self.tol, self.recurrence_depth, _DELTAS, _EPSILONS)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc


_CONFIG_KEYS = {
    "m": int,
    "r": lambda s: float(Fraction(s)) if "/" in s else float(s),
    "lambda": parse_number,
    "mu": parse_number,
    "k": int,
    "n": int,
    "horizon": int,
    "tol": float,
    "out": Path,
    "formats": lambda s: tuple(f.strip() for f in s.split(",") if f.strip()),
    "seed": int,
    "sets": int,
    "targets": int,
    "recurrence_depth": int,
    "metric_depth": int,
    "conjugacy_depth": int,
    "conjugacy_samples": int,
}

_KEY_TO_FIELD = {"lambda": "lam"}


def _parse_value(key: str, text: str, where: str):
    try:
        return _CONFIG_KEYS[key](text)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def load_config(path: Path | None, overrides: dict, command: str | None = None) -> RunConfig:
    """The run configuration: `path` (a config file), then `overrides` (a
    config key to a value; text is parsed as in the file, None is unset),
    validated for `command`."""
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[_KEY_TO_FIELD.get(key, key)] = _parse_value(key, val, f"{path}:{lineno}")
    for key, val in overrides.items():
        if isinstance(val, str):
            val = _parse_value(key, val, "command line")
        if val is not None:
            values[_KEY_TO_FIELD.get(key, key)] = val
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate(command)
    return config


# ---------------------------------------------------------------------------
# Deterministic writers
# ---------------------------------------------------------------------------


def _write_json(path: Path, kind: str, data: dict) -> None:
    import json

    payload = {"schema": SCHEMA_VERSION, "kind": kind, "data": data}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _float_str(v) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


_CONVERGENCE_STEPS = 20  # n_max of the two convergence certificates
_DELTAS = (0.1, 1e-2, 1e-3)  # of the periodic-density certificates
_EPSILONS = (0.25, 1e-2)  # of the sensitivity certificates


def cmd_certify(config: RunConfig) -> int:
    from . import certify as cert

    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    a = Alphabet(config.m)
    p = MetricParams(config.r)
    rng = random.Random(config.seed)
    files: list[tuple[str, str, dict]] = []  # (filename, kind, data)

    files.append(("diameter_condition.json", "diameter_condition",
                  cert.diameter_payload(config.m, config.r, config.metric_depth)))
    for degree in (1, 2, 3):
        files.append((f"separation_n{degree}.json", "separation",
                      cert.separation_payload(config.m, config.r, degree)))

    for i in range(config.sets):
        u_set = cert.random_unstable_set(rng, a)
        member = cert.universal_member(u_set)
        for t in range(config.targets):
            target = cert.random_two_sided_target(rng, a, 2, 3)
            c = cert.transitivity_witness(u_set, target)
            files.append((f"transitivity_s{i}_t{t}.json", c.kind, c.data))
        for d_i, delta in enumerate(_DELTAS):
            c = cert.periodic_density_witness(member, delta, p, config.tol)
            files.append((f"periodic_density_s{i}_d{d_i}.json", c.kind, c.data))
        for e_i, eps in enumerate(_EPSILONS):
            c = cert.sensitivity_witness(member, eps, a, p, config.tol)
            files.append((f"sensitivity_s{i}_e{e_i}.json", c.kind, c.data))
        if i == 0:
            c = cert.poisson_recurrence_witness(u_set, config.recurrence_depth, p, tol=config.tol)
            files.append(("poisson_recurrence.json", c.kind, c.data))
            c = cert.li_yorke_pair(u_set, config.horizon, p, config.tol)
            files.append(("li_yorke.json", c.kind, c.data))
            shared_future = window_padded((2, 1, 2))
            s_conv = cert.member_with_future(u_set, shared_future)
            t_conv = splice(periodic((2,)), shared_future)
            c = cert.stable_set_convergence(s_conv, t_conv, _CONVERGENCE_STEPS, p, config.tol)
            files.append(("stable_convergence.json", c.kind, c.data))
            u1 = cert.member_with_future(u_set, window_padded((1, 2)))
            u2 = cert.member_with_future(u_set, window_padded((2, 1)))
            c = cert.unstable_set_convergence(u1, u2, _CONVERGENCE_STEPS, p, config.tol)
            files.append(("unstable_convergence.json", c.kind, c.data))

    status = 0
    failed_name = None
    print(f"{'check':40s} {'status':8s}")
    for name, kind, data in files:
        _write_json(out / name, kind, data)
        result = verify_file(out / name, quiet=True)
        ok = result == 0
        print(f"{name:40s} {'ok' if ok else 'FAIL':8s}")
        if not ok and status == 0:
            status = 1
            failed_name = name
    if failed_name:
        print(f"certificate failed verification: {failed_name}", file=sys.stderr)
    return status


# ---------------------------------------------------------------------------
# horseshoe
# ---------------------------------------------------------------------------


def _digits(digits) -> str:
    return "".join(str(s) for s in digits)


def _bounds_text(interval) -> str:
    return f",{_float_str(interval.lo)},{_float_str(interval.hi)}"


def _write_rectangles_csv(path: Path, pasts, futures) -> None:
    """One row per rectangle, past outermost.  Each word half and bound pair
    is formatted once per factor; rows go out one past at a time."""
    x_cols = [(_digits(p.digits) + ".", _bounds_text(p)) for p in pasts]
    y_cols = [(_digits(f.digits), _bounds_text(f)) for f in futures]
    with open(path, "w") as fh:
        fh.write("word,x_lo,x_hi,y_lo,y_hi\n")
        for past, x_text in x_cols:
            fh.write("".join(f"{past}{future}{x_text}{y_text}\n" for future, y_text in y_cols))


def _write_svg(path: Path, pasts, futures) -> None:
    """The unit square in a 1000x1000 viewBox, y flipped to mathematical
    orientation, each rectangle colored by its first future symbol."""
    colors = {1: "#3465a4", 2: "#cc0000"}
    x_parts = []
    for p in pasts:
        x = float(p.lo) * 1000
        w = (float(p.hi) - float(p.lo)) * 1000
        x_parts.append((f'<rect x="{x:.6f}"', f' width="{w:.6f}"'))
    y_parts = []
    for f in futures:
        y = (1 - float(f.hi)) * 1000
        h = (float(f.hi) - float(f.lo)) * 1000
        fill = colors[f.digits[0]]
        y_parts.append((f' y="{y:.6f}"', f' height="{h:.6f}" fill="{fill}" fill-opacity="0.8"/>'))
    with open(path, "w") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        fh.write('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n')
        for x_text, w_text in x_parts:
            fh.write("".join(f"{x_text}{y_text}{w_text}{h_text}\n" for y_text, h_text in y_parts))
        fh.write("</svg>\n")


def cmd_horseshoe(config: RunConfig) -> int:
    from .horseshoe import HorseshoeParams, conjugacy_payload, hyperbolic_payload, rectangle_lattice

    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    hp = HorseshoeParams(config.lam, config.mu)
    try:
        pasts, futures = rectangle_lattice(hp, config.k, config.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if "csv" in config.formats:
        _write_rectangles_csv(out / "rectangles.csv", pasts, futures)

    hyperbolic = hyperbolic_payload(hp, max(1, min(config.k + config.n, 8)))
    _write_json(out / "hyperbolic_report.json", "hyperbolic_conditions", hyperbolic)
    conjugacy = conjugacy_payload(
        hp, config.conjugacy_depth, config.seed, config.conjugacy_samples
    )
    _write_json(out / "conjugacy_report.json", "conjugacy", conjugacy)

    if "svg" in config.formats:
        _write_svg(out / "horseshoe.svg", pasts, futures)

    print(f"rectangles: {len(pasts) * len(futures)}")
    passed = hyperbolic["passed"] and conjugacy["passed"]
    print(f"hyperbolic conditions: {'ok' if hyperbolic['passed'] else 'FAIL'}")
    print(f"conjugacy samples: {'ok' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def parse_descriptor(text: str, m: int = 2):
    """Parse an orbit start: a representable sequence or a plane point.

    periodic:1,2[@phase]   window:1,2,2@-1[:pad]   universal[:seed]
    point:0.25,0.5

    Sequences live over the alphabet {1..m}: symbols and pads above m are
    rejected, and a universal start enumerates words over m symbols.
    """
    kind, _, rest = text.partition(":")
    try:
        alphabet = Alphabet(m)
        if kind == "periodic":
            block, _, phase = rest.partition("@")
            seq = periodic(tuple(int(s) for s in block.split(",")), int(phase) if phase else 0)
            seq.validate(alphabet)
            return seq
        if kind == "window":
            body, _, pad_text = rest.partition(":")
            syms_text, _, start = body.partition("@")
            syms = tuple(int(s) for s in syms_text.split(",")) if syms_text else ()
            pad = int(pad_text) if pad_text else 1
            seq = window_padded(syms, int(start) if start else 1, pad)
            seq.validate(alphabet)
            return seq
        if kind == "universal":
            seed = int(rest) if rest else 0
            return UniversalSeq(m, seed)
        if kind == "point":
            from .horseshoe import PlanePoint

            x_text, _, y_text = rest.partition(",")
            return PlanePoint(parse_number(x_text), parse_number(y_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad orbit descriptor {text!r}: {exc}") from exc
    raise ConfigError(f"bad orbit descriptor {text!r}: unknown kind {kind!r}")


def cmd_orbit(config: RunConfig, descriptor: str, steps: int) -> int:
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    start = parse_descriptor(descriptor, config.m)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    path = out / "orbit.csv"
    if not isinstance(start, BiSequence):  # a plane point
        from .horseshoe import EscapeError, HorseshoeParams, branch_of, horseshoe_map

        hp = HorseshoeParams(config.lam, config.mu)
        rows = ["n,x,y,symbol"]
        pt = start
        status = 0
        for n in range(steps + 1):
            try:
                symbol = branch_of(pt, hp, n)
            except EscapeError:
                rows.append(f"{n},{_float_str(pt.x)},{_float_str(pt.y)},escape")
                status = 1
                break
            rows.append(f"{n},{_float_str(pt.x)},{_float_str(pt.y)},{symbol}")
            if n < steps:
                pt = horseshoe_map(pt, hp, n)
        path.write_text("\n".join(rows) + "\n")
        print(f"wrote {path}")
        return status
    rows = orbit_distances(start, MetricParams(config.r), steps, config.tol)
    with open(path, "w") as fh:  # line by line: no second copy of the table
        fh.write("n,distance\n")
        for n, d in enumerate(rows):
            fh.write(f"{n},{_float_str(d.value)}\n")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# verify mode
# ---------------------------------------------------------------------------

def verify_file(path: Path, quiet: bool = False) -> int:
    try:
        return _verify_file(path, quiet)
    except RecursionError:
        if not quiet:
            print(f"error: cannot verify {path}: nested too deeply", file=sys.stderr)
        return 2


def _verify_file(path: Path, quiet: bool) -> int:
    import json

    from .certify import verify_certificate

    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        if not quiet:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
        return 2
    result = verify_certificate(payload)
    if not result.shaped:
        if not quiet:
            print(f"error: cannot verify {path}: {result.failures[0]}", file=sys.stderr)
        return 2
    if not quiet:
        print(f"{path}: {'ok' if result.ok else 'FAIL'}")
        for f in result.failures:
            print(f"  - {f}")
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# Flags that set a config key, as text for the key's config-file parser.
_FLAG_KEYS = ("out", "formats", "seed", "m", "r", "lambda", "mu", "k", "n", "horizon", "tol")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None)
    sub.add_argument("--out")
    sub.add_argument("--format", dest="formats", help="comma list from json,csv,svg")
    sub.add_argument("--lam", "--lambda", dest="lambda")
    for key in ("seed", "m", "r", "mu", "k", "n", "horizon", "tol"):
        sub.add_argument(f"--{key}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shiftchaos",
        description="Certify shift-space chaos and export horseshoe geometry.",
    )
    parser.add_argument("--verify", type=Path, default=None, metavar="FILE",
                        help="re-verify an emitted certificate or report file")
    subparsers = parser.add_subparsers(dest="command")
    for name in ("certify", "horseshoe"):
        _add_common(subparsers.add_parser(name))
    orbit = subparsers.add_parser("orbit")
    _add_common(orbit)
    orbit.add_argument("--start", required=True,
                       help="periodic:1,2 | window:2@0 | universal | point:0.1,0.2")
    orbit.add_argument("--steps", type=int, default=50)

    args = parser.parse_args(argv)
    if args.verify is not None:
        return verify_file(args.verify)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = load_config(args.config, {key: getattr(args, key) for key in _FLAG_KEYS},
                             args.command)
        if args.command == "certify":
            return cmd_certify(config)
        if args.command == "horseshoe":
            return cmd_horseshoe(config)
        return cmd_orbit(config, args.start, args.steps)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
