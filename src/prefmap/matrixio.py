"""Reading and writing matrices as plain CSV.

Format: m lines with m comma-separated values each, no header.  Rationals
are serialized as ``p/q`` (plain ``p`` for integers), so a file written by
this module reads back with no precision loss.  Reading goes straight to
integer counts over one common denominator; it builds no ``Fraction``.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .core import FrequencyMatrix, PositionMatrix, _frequency, _line_total

Matrix = Union[PositionMatrix, FrequencyMatrix]

# a sign, digits, then "/digits" or ".digits"; no exponent, so the size of
# a number is bounded by the length of its token
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _split(token: str) -> tuple[int, int]:
    """Numerator and positive denominator as written: "2/4" gives (2, 4)."""
    # Fast path for "p" and "p/q" in plain ASCII digits, as this module
    # writes them; int() alone would also take "1_0", " 1" and non-ASCII
    # digits.  Any other token, q = 0 and numbers too long for int() take
    # the regex below, with its messages.
    if token.isascii():
        try:
            if token.isdigit():
                return int(token), 1
            num, _, den = token.partition("/")
            if num.isdigit() and den.isdigit() and int(den):
                return int(num), int(den)
        except ValueError:
            pass
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ValueError(f"bad rational {token!r}: expected p, p/q or a decimal")
    num, den, decimals = match.groups()
    try:
        p, q = (int(num + decimals), 10**len(decimals)) if decimals else (int(num), int(den or 1))
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"bad rational {token!r}: {exc}") from None
    if q == 0:
        raise ValueError(f"bad rational {token!r}: Fraction({p}, 0)")
    return p, q


def parse_rational(token: str) -> Fraction:
    return Fraction(*_split(token))


def _ratio(c: int, d: int) -> str:
    """c/d as str of a Fraction prints it: "p", or "p/q" in lowest terms."""
    g = gcd(c, d)
    return str(c // g) if g == d else f"{c // g}/{d // g}"


def write_matrix_csv(matrix: Matrix, path: str | os.PathLike[str]) -> None:
    if isinstance(matrix, FrequencyMatrix):
        rows, d = matrix.counts, matrix.denominator
    else:
        rows, d = matrix.entries, 1
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(_ratio(c, d) for c in row) + "\n")


def read_matrix_csv(path: str | os.PathLike[str]) -> Matrix:
    """Parse a matrix CSV, auto-detecting its kind by row sums.

    Rows summing to 1 give a FrequencyMatrix; integer entries with larger
    equal row sums give a PositionMatrix.  Anything else is rejected.  A 0/1
    permutation matrix is both; it reads as a FrequencyMatrix with
    denominator 1.
    """
    rows: list[list[tuple[int, int]]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([_split(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    m = len(rows)
    for row in rows:
        if len(row) != m:
            raise ValueError(f"{path}: expected a square {m}x{m} matrix")

    # over the common denominator d, a row summing to 1 sums to d and an
    # integer entry is a multiple of d
    d = lcm(*(q for row in rows for _, q in row))
    counts = [[p * (d // q) for p, q in row] for row in rows]
    if all(sum(row) == d for row in counts):
        return _frequency(_line_total(counts, "frequency matrix", d)[0], d)
    if all(c % d == 0 for row in counts for c in row):
        return PositionMatrix(tuple(tuple(c // d for c in row) for row in counts))
    raise ValueError(
        f"{path}: rows neither sum to 1 (frequency) nor hold integers (position)"
    )
