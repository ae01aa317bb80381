"""Exact scalars: arbitrary-precision rationals and their "p/q" string form.

Every number in the library is a ``fractions.Fraction`` (or a plain ``int``,
which Fraction arithmetic absorbs).  JSON never carries floats; rationals are
serialized as strings ``"p"`` or ``"p/q"`` with q > 0 and gcd(p, q) = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

Scalar = Fraction


def parse_rational(text) -> Fraction:
    """Parse "p" or "p/q" (also accepts ints for convenience, but not bools)."""
    if isinstance(text, bool):
        raise ParseError(f"expected rational string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ParseError(f"expected rational string, got {type(text).__name__}")
    if "e" in text or "E" in text:
        # Fraction reads exponents too: "1e999999999", eleven characters,
        # would build a billion-digit integer.
        raise ParseError(f"not a rational (no exponents): {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_rational(value) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


_CHUNK_DIGITS = 1000
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(n: int) -> str:
    """``str(n)`` past Python's int-to-str digit limit (4300 digits by
    default), without changing the limit: 1000 digits at a time by ``divmod``."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))
