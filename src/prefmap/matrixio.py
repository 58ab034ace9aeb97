"""Reading and writing matrices as plain CSV.

Format: m lines with m comma-separated values each, no header.  Rationals
are serialized as ``p/q`` (plain ``p`` for integers), so a file written by
this module reads back with no precision loss.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from typing import Union

from .core import FrequencyMatrix, PositionMatrix

Matrix = Union[PositionMatrix, FrequencyMatrix]

# a sign, digits, then "/digits" or ".digits"; no exponent, so the size of
# a number is bounded by the length of its token
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def format_rational(value: Fraction) -> str:
    # str(Fraction) already yields "p" or "p/q" in lowest terms
    return str(Fraction(value))


def parse_rational(token: str) -> Fraction:
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ValueError(f"bad rational {token!r}: expected p, p/q or a decimal")
    num, den, decimals = match.groups()
    try:
        if decimals is not None:
            return Fraction(int(num + decimals), 10 ** len(decimals))
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {token!r}: {exc}") from None


def write_matrix_csv(matrix: Matrix, path: str | os.PathLike[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix.entries:
            fh.write(",".join(format_rational(x) for x in row))
            fh.write("\n")


def read_matrix_csv(path: str | os.PathLike[str]) -> Matrix:
    """Parse a matrix CSV, auto-detecting its kind by row sums.

    Rows summing to 1 give a FrequencyMatrix; integer entries with larger
    equal row sums give a PositionMatrix.  Anything else is rejected.  A 0/1
    permutation matrix is both; it reads as a FrequencyMatrix with
    denominator 1.
    """
    rows: list[list[Fraction]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([parse_rational(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    m = len(rows)
    for row in rows:
        if len(row) != m:
            raise ValueError(f"{path}: expected a square {m}x{m} matrix")

    if all(sum(row) == 1 for row in rows):
        return FrequencyMatrix(tuple(tuple(row) for row in rows))
    if all(x.denominator == 1 for row in rows for x in row):
        return PositionMatrix(
            tuple(tuple(x.numerator for x in row) for row in rows)
        )
    raise ValueError(
        f"{path}: rows neither sum to 1 (frequency) nor hold integers (position)"
    )
