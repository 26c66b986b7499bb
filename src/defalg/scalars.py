"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

Plain rationals are `int` where a table stores an integral coefficient
(`core.int_first`) and `fractions.Fraction` (always lowest terms, positive
denominator) otherwise; both print through `format_rational`.
GaussianScalar adjoins a formal square root of -1; it is needed only by the
Hermitian exterior-algebra module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

Q0 = Fraction(0)
Q1 = Fraction(1)


def parse_rational(text) -> Fraction:
    """Parse a rational literal: "p/q" or "p" (also accepts ints, not bools)."""
    if isinstance(text, bool):
        raise InputError(f"rational literal must be a string or int, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise InputError(f"rational literal must be a string or int, got {text!r}")
    body = text.strip()
    try:
        if "/" in body:
            num, den = body.split("/")
            d = int(den)
            if d == 0:
                raise InputError(f"zero denominator in rational literal {text!r}")
            return Fraction(int(num), d)
        return Fraction(int(body))
    except ValueError as exc:
        raise InputError(f"malformed rational literal {text!r}") from exc


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class GaussianScalar:
    """Exact element of Q(i): re + im*i with i^2 = -1."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "GaussianScalar":
        return GaussianScalar(Fraction(re), Fraction(im))

    @staticmethod
    def i_power(k: int) -> "GaussianScalar":
        k %= 4
        if k == 0:
            return GaussianScalar(Q1, Q0)
        if k == 1:
            return GaussianScalar(Q0, Q1)
        if k == 2:
            return GaussianScalar(-Q1, Q0)
        return GaussianScalar(Q0, -Q1)

    def __add__(self, other):
        other = _coerce(other)
        return GaussianScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianScalar(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        norm = Fraction(other.re * other.re + other.im * other.im)
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianScalar")
        conj = GaussianScalar(other.re, -other.im)
        prod = self * conj
        return GaussianScalar(prod.re / norm, prod.im / norm)

    def conjugate(self) -> "GaussianScalar":
        return GaussianScalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"


def _coerce(value) -> GaussianScalar:
    if isinstance(value, GaussianScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianScalar(Fraction(value), Q0)
    raise TypeError(f"cannot coerce {value!r} to GaussianScalar")


GAUSS_ZERO = GaussianScalar(Q0, Q0)
GAUSS_ONE = GaussianScalar(Q1, Q0)
GAUSS_I = GaussianScalar(Q0, Q1)
