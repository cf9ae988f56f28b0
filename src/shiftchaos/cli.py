"""Command-line front end: certification suites, horseshoe exports, orbits.

Subcommands
-----------
certify    write and re-verify the chaos certification suite that
           `certify.suite` builds, one JSON certificate per check; the
           suite makes its refusals before any directory is made
horseshoe  export hyperbolic and conjugacy reports (JSON), and as --format
           selects, level rectangles (CSV, default) and an SVG rendering
           of the unit square
orbit      tabulate a symbolic or planar orbit as CSV

A top-level ``--verify FILE...`` mode re-verifies emitted certificates and
reports with `certify.verify_certificate`.

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
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

from .metric import MetricParams, check_tolerance, orbit_distances
from .schema import (
    MAX_CONJUGACY_DEPTH,
    MAX_CONJUGACY_SAMPLES,
    MAX_METRIC_DEPTH,
    MAX_STEPS,
    MAX_WINDOW,
    bounded,
    certificate,
    check_grid,
    parse_number,
)
from .sequences import (
    Alphabet,
    BiSequence,
    FrozenValue,
    UniversalSeq,
    periodic,
    window_padded,
)


class ConfigError(ValueError):
    pass


# One row per setting, keyed by its config key, in RunConfig's field order:
# the parser of its text (in a config file or a flag), its default and, for
# a size, the [lo, hi] cap `RunConfig.validate` holds it to.
_SETTINGS = {
    "m": (int, 2),
    "r": (lambda s: float(Fraction(s)) if "/" in s else float(s), 0.5),
    "lambda": (parse_number, Fraction(1, 3)),
    "mu": (parse_number, Fraction(3)),
    "k": (int, 3),
    "n": (int, 3),
    "horizon": (int, 100, 10, MAX_WINDOW),
    "tol": (float, 1e-12),
    "out": (Path, Path("out")),
    "formats": (lambda s: tuple(f.strip() for f in s.split(",") if f.strip()), ("json", "csv")),
    "seed": (int, 0),
    "sets": (int, 3),
    "targets": (int, 3),
    "recurrence_depth": (int, 10, 1, MAX_STEPS),
    "metric_depth": (int, 12, 1, MAX_METRIC_DEPTH),
    "conjugacy_depth": (int, 20, 2, MAX_CONJUGACY_DEPTH),
    "conjugacy_samples": (int, 25, 0, MAX_CONJUGACY_SAMPLES),
}


class RunConfig(FrozenValue):
    """One run's settings: a field per `_SETTINGS` row (`lambda` is `lam`),
    given by position or keyword.  The defaults are class attributes, so
    `RunConfig.r` reads the default weight base, and so does the `r` of a
    config that does not set it."""

    _fields = tuple("lam" if key == "lambda" else key for key in _SETTINGS)

    def __init__(self, *args, **kwargs) -> None:
        if len(args) > len(self._fields):
            raise TypeError(f"RunConfig takes at most {len(self._fields)} settings")
        for name, value in chain(zip(self._fields, args), kwargs.items()):
            if name not in self._fields or name in vars(self):
                raise TypeError(f"RunConfig got an unknown or repeated setting {name!r}")
            object.__setattr__(self, name, value)

    def validate(self) -> None:
        try:
            Alphabet(self.m)
            MetricParams(self.r)
            if (self.lam, self.mu) != (RunConfig.lam, RunConfig.mu):  # the defaults are valid
                from .horseshoe import HorseshoeParams

                HorseshoeParams(self.lam, self.mu)
            if not 0 < self.tol < math.inf:
                raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
            check_tolerance(self.r, self.tol)
            check_grid(self.k, self.n)
            if self.sets < 0 or self.targets < 0:
                raise ValueError("need sets >= 0 and targets >= 0")
            if not (0 <= self.seed < 1 << 64):
                raise ValueError("seed must fit in 64 bits")
            for key, (_, _, *cap) in _SETTINGS.items():
                if cap:
                    bounded(key, getattr(self, key), *cap)
            bad = [f for f in self.formats if f not in ("json", "csv", "svg")]
            if bad:
                raise ValueError(f"unknown output formats: {bad}")
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc


for _name, _row in zip(RunConfig._fields, _SETTINGS.values()):
    setattr(RunConfig, _name, _row[1])
del _name, _row


def _parse_value(key: str, text: str, where: str):
    try:
        return _SETTINGS[key][0](text)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def load_config(path: Path | None, overrides: dict) -> RunConfig:
    """The run configuration: `path` (a config file), then `overrides` (a
    config key to a value; text is parsed as in the file, None is unset),
    validated."""
    values = {key: row[1] for key, row in _SETTINGS.items()}  # in field order
    if path is not None:
        try:
            text = _read_utf8(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _SETTINGS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _parse_value(key, val, f"{path}:{lineno}")
    for key, val in overrides.items():
        if isinstance(val, str):
            val = _parse_value(key, val, "command line")
        if val is not None:
            values[key] = val
    config = RunConfig(*values.values())
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Deterministic readers and writers: UTF-8 with LF line ends, whatever the
# locale or platform
# ---------------------------------------------------------------------------


def _read_utf8(path: Path) -> str:
    """The text of a file, decoded strictly as UTF-8 (RFC 8259): a BOM stays
    in the text, and bytes of another encoding raise UnicodeDecodeError."""
    with open(path, "rb", buffering=0) as fh:  # unbuffered: one call reads it all
        return fh.read().decode("utf-8")


def _open_utf8(path: Path):
    """`path` opened for text written as UTF-8 with LF line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _make_out(out: Path) -> Path:
    """The output directory `out`, made if missing; ConfigError if it cannot be."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
    return out


def _write_json(path: Path, payload: dict) -> None:
    import json

    path.write_bytes((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def cmd_certify(config: RunConfig) -> int:
    from .certify import suite

    try:  # every refusal comes before any file is built or any directory made
        files = suite(config.m, config.r, config.tol, config.seed, config.sets, config.targets,
                      config.recurrence_depth, config.horizon, config.metric_depth)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _make_out(config.out)
    failed = []
    print(f"{'check':40s} {'status':8s}")
    for name, cert in files:
        _write_json(out / name, cert)
        ok = verify_file(out / name, quiet=True) == 0
        print(f"{name:40s} {'ok' if ok else 'FAIL':8s}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"certificate failed verification: {failed[0]}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# horseshoe
# ---------------------------------------------------------------------------


def _digits(digits) -> str:
    return "".join(str(s) for s in digits)


def _bounds_text(interval) -> str:
    return f",{interval.lo / interval.den!r},{interval.hi / interval.den!r}"


def _write_product(path: Path, head: str, outer, inner, tail: str) -> None:
    """head, the row o0 i0 o1 i1 of each (o0, o1) in outer and (i0, i1) in
    inner, outer outermost, then tail.  Per outer pair, slice assignment fills
    a template of the inner texts and one join writes the block."""
    row = [""] * (4 * len(inner))
    row[1::4] = [i0 for i0, _ in inner]
    row[3::4] = [i1 for _, i1 in inner]
    with _open_utf8(path) as fh:
        fh.write(head)
        for o0, o1 in outer:
            row[0::4] = [o0] * len(inner)
            row[2::4] = [o1] * len(inner)
            fh.write("".join(row))
        fh.write(tail)


def _write_rectangles_csv(path: Path, pasts, futures) -> None:
    """One row per rectangle, past outermost.  Each word half and bound pair
    is formatted once per factor; rows go out one past at a time."""
    _write_product(path, "word,x_lo,x_hi,y_lo,y_hi\n",
                   [(_digits(p.digits) + ".", _bounds_text(p)) for p in pasts],
                   [(_digits(f.digits), _bounds_text(f) + "\n") for f in futures], "")


def _write_svg(path: Path, pasts, futures) -> None:
    """The unit square in a 1000x1000 viewBox, y flipped to mathematical
    orientation, each rectangle colored by its first future symbol."""
    colors = {1: "#3465a4", 2: "#cc0000"}
    x_parts = []
    for p in pasts:
        lo, hi = p.lo / p.den, p.hi / p.den
        x_parts.append((f'<rect x="{lo * 1000:.6f}"', f' width="{(hi - lo) * 1000:.6f}"'))
    y_parts = []
    for f in futures:
        lo, hi = f.lo / f.den, f.hi / f.den
        fill = colors[f.digits[0]]
        y_parts.append((f' y="{(1 - hi) * 1000:.6f}"',
                        f' height="{(hi - lo) * 1000:.6f}" fill="{fill}" fill-opacity="0.8"/>\n'))
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n')
    _write_product(path, head, x_parts, y_parts, "</svg>\n")


def cmd_horseshoe(config: RunConfig) -> int:
    from .horseshoe import HorseshoeParams, conjugacy_payload, hyperbolic_payload, rectangle_lattice

    out = _make_out(config.out)
    hp = HorseshoeParams(config.lam, config.mu)
    pasts, futures = rectangle_lattice(hp, config.k, config.n)  # validate checked k and n
    if "csv" in config.formats:
        _write_rectangles_csv(out / "rectangles.csv", pasts, futures)

    hyperbolic = hyperbolic_payload(hp, max(1, min(config.k + config.n, 8)))
    _write_json(out / "hyperbolic_report.json", certificate("hyperbolic_conditions", hyperbolic))
    conjugacy = conjugacy_payload(
        hp, config.conjugacy_depth, config.seed, config.conjugacy_samples
    )
    _write_json(out / "conjugacy_report.json", certificate("conjugacy", conjugacy))

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
    if not 0 <= steps <= MAX_WINDOW:
        raise ConfigError(f"steps must lie in [0, {MAX_WINDOW}]")
    start = parse_descriptor(descriptor, config.m)
    out = _make_out(config.out)
    path = out / "orbit.csv"
    if not isinstance(start, BiSequence):  # a plane point
        from .horseshoe import HorseshoeParams, orbit_rows

        rows = orbit_rows(start, HorseshoeParams(config.lam, config.mu), steps)
        with _open_utf8(path) as fh:  # each row as it is made: no table is held
            fh.write("n,x,y,symbol\n")
            for n, (x, y, branch) in enumerate(rows):
                fh.write(f"{n},{x!r},{y!r},{branch or 'escape'}\n")
        print(f"wrote {path}")
        return 0 if branch else 1
    rows = orbit_distances(start, MetricParams(config.r), steps, config.tol)
    with _open_utf8(path) as fh:  # each row as the sweep yields it: no table is held
        fh.write("n,distance\n")
        for n, d in enumerate(rows):
            fh.write(f"{n},{d.value!r}\n")
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

    try:  # not json.loads(bytes), which would also take UTF-16, UTF-32 and a BOM
        payload = json.loads(_read_utf8(path))
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
    parser.add_argument("--verify", type=Path, nargs="+", default=None, metavar="FILE",
                        help="re-verify emitted certificate or report files; "
                             "the exit code is the worst: 2 over 1 over 0")
    subparsers = parser.add_subparsers(dest="command")
    for name in ("certify", "horseshoe"):
        _add_common(subparsers.add_parser(name))
    orbit = subparsers.add_parser("orbit")
    _add_common(orbit)
    orbit.add_argument("--start", required=True,
                       help="periodic:1,2 | window:2@0 | universal | point:0.1,0.2")
    orbit.add_argument("--steps", type=int, default=50)

    args = parser.parse_args(argv)
    if args.verify is not None:  # every file, whatever the ones before it gave
        return max(map(verify_file, args.verify))
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        # each flag that sets a config key passes its text to the key's parser
        flags = {key: val for key, val in vars(args).items() if key in _SETTINGS}
        config = load_config(args.config, flags)
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
