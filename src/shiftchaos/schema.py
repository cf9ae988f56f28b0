"""What a certificate or report file may hold, shared by every layer.

The shape of the files the CLI writes and verifies, with its one writer
(`certificate`) and its one reader (`shape_error`), the size caps on the
inputs and witnesses they store, and the number syntax of stored and
configured horseshoe parameters.  A payload function refuses a size past its
cap with ValueError, so verifying any file ends with a verdict in bounded
time.  The CLI validates its configuration against the same caps.  The
module imports no other part of the package, so reading a cap loads no
other layer.
"""

from __future__ import annotations

from fractions import Fraction

SCHEMA_VERSION = 1  # of the certificate files the CLI writes and verifies

MAX_WINDOW = 1 << 20  # k (periodic_density, sensitivity) and li_yorke's horizon
MAX_STEPS = 2048  # convergence n_max and Poisson depths: one distance per step
# Report sizes: the largest report they allow verifies in about 1 s.
# Diameter rows cost O(depth) each; conjugacy rows take exact powers of
# lambda and mu.
MAX_METRIC_DEPTH = 2048
MAX_CONJUGACY_DEPTH = 512
MAX_CONJUGACY_SAMPLES = 50
RECTANGLE_CAP = 1 << 20  # rectangles of one horseshoe level grid


def certificate(kind: str, data: dict) -> dict:
    """The file object of a certificate or report: what a builder returns,
    the CLI writes as JSON, and `verify_certificate` reads."""
    return {"schema": SCHEMA_VERSION, "kind": kind, "data": data}


def shape_error(payload) -> str | None:
    """Why a decoded payload cannot be a certificate, if it cannot."""
    if not isinstance(payload, dict):
        return f"expected a JSON object, got {type(payload).__name__}"
    schema = payload.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # not true, 1.0 or "1"
        return f"schema {schema!r} is not {SCHEMA_VERSION}"
    if not isinstance(payload.get("kind"), (str, type(None))):
        return f"unknown certificate kind {payload['kind']!r}: not a string"
    if not isinstance(payload.get("data"), dict):
        return "'data' is missing or not a JSON object"
    return None


def bounded(name: str, value, lo: int, hi: int) -> int:
    """`value`, if it is an integer in [lo, hi]; ValueError otherwise."""
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def check_grid(k: int, n: int) -> None:
    """ValueError unless k >= 0, n >= 1 and the 2**(k + 1 + n) rectangles
    of the level-(k, n) grid fit `RECTANGLE_CAP`, by exponent: no power."""
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    if k + 1 + n > RECTANGLE_CAP.bit_length() - 1:
        raise ValueError(f"rectangle cap exceeded: 2**{k + 1 + n} > {RECTANGLE_CAP}")


def parse_number(text: str):
    """Accept ints, floats, and exact fractions like 1/3."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)
