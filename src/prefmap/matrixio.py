"""Reading and writing matrices as plain CSV.

Format: m lines with m comma-separated values each, no header.  Rationals
are serialized as ``p/q`` (plain ``p`` for integers), so a file written by
this module reads back with no precision loss.  Reading goes straight to
integer counts over one common denominator; it builds no ``Fraction``.

Both directions go through a table of the distinct values, so a matrix of
m*m cells costs one parse or one format per distinct value, not per cell.
The reader builds its table in order of first appearance, so the first bad
token of a file is the one its message names, and scales every count to
the common denominator through that table; its one token parser, a
regular expression, runs once per distinct token.  The writer formats each
distinct count once and joins every row through its table.
"""

from __future__ import annotations

import os
import re
from itertools import chain
from math import gcd, lcm
from typing import Union

from .core import FrequencyMatrix, PositionMatrix, _frequency, _in_file, _line_total

Matrix = Union[PositionMatrix, FrequencyMatrix]

# a sign, digits, then "/digits" or ".digits"; no exponent, so the size of
# a number is bounded by the length of its token
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _split(token: str) -> tuple[int, int]:
    """Numerator and positive denominator as written: "2/4" gives (2, 4)."""
    match = _RATIONAL.fullmatch(token.strip())
    if match is None:
        raise ValueError(f"bad rational {token!r}: expected p, p/q or a decimal")
    num, den, decimals = match.groups()
    try:
        p, q = (int(num + decimals), 10**len(decimals)) if decimals else (int(num), int(den or 1))
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"bad rational {token!r}: {exc}") from None
    if q == 0:
        raise ValueError(f"bad rational {token!r}: zero denominator")
    return p, q


def _ratio(c: int, d: int) -> str:
    """c/d as str of a Fraction prints it: "p", or "p/q" in lowest terms."""
    g = gcd(c, d)
    return str(c // g) if g == d else f"{c // g}/{d // g}"


def write_matrix_csv(matrix: Matrix, path: str | os.PathLike[str]) -> None:
    if isinstance(matrix, FrequencyMatrix):
        rows, d = matrix.counts, matrix.denominator
    else:
        rows, d = matrix.entries, 1
    text = {c: _ratio(c, d) for c in set(chain.from_iterable(rows))}.__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(text, row)) + "\n" for row in rows)


def read_matrix_csv(path: str | os.PathLike[str]) -> Matrix:
    """Parse a matrix CSV, auto-detecting its kind by row sums.

    Rows summing to 1 give a FrequencyMatrix; integer entries with larger
    equal row sums give a PositionMatrix.  Anything else is rejected with a
    message that starts with the path.  A 0/1 permutation matrix is both;
    it reads as a FrequencyMatrix with denominator 1.
    """
    with _in_file(path), open(path, "r", encoding="utf-8") as fh:
        rows = [ln.split(",") for ln in map(str.strip, fh) if ln and ln[0] != "#"]
        parsed = {tok: _split(tok) for tok in dict.fromkeys(chain.from_iterable(rows))}
        if not rows:
            raise ValueError("no matrix rows found")
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise ValueError(f"expected a square {m}x{m} matrix")

        # over the common denominator d, a row summing to 1 sums to d and an
        # integer entry is a multiple of d
        d = lcm(*(q for _, q in parsed.values()))
        scaled = {tok: p * (d // q) for tok, (p, q) in parsed.items()}
        counts = [list(map(scaled.__getitem__, row)) for row in rows]
        if all(sum(row) == d for row in counts):
            _line_total(counts, "frequency matrix", d)
            return _frequency(counts, d)
        whole = {tok: c // d for tok, c in scaled.items() if c % d == 0}
        if len(whole) == len(scaled):
            return PositionMatrix([list(map(whole.__getitem__, row)) for row in rows])
        raise ValueError("rows neither sum to 1 (frequency) nor hold integers (position)")
