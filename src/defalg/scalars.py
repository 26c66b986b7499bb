"""Exact scalars: arbitrary-precision rationals and Gaussian rationals.

Plain rationals are `int` where a table stores an integral coefficient
(`core.int_first`) and `fractions.Fraction` (always lowest terms, positive
denominator) otherwise; both print through `format_rational`.
GaussianScalar adjoins a formal square root of -1; it is needed only by the
Hermitian exterior-algebra module, whose operators have a power of i as
every coefficient (sign ledger X1).  Its parts follow the same integer-first
rule: `of`, `_coerce` and the constants store an integral part as an `int`,
so the Lefschetz layer computes in the Gaussian integers Z[i] and builds a
Fraction only where a value is not integral or a division happens.
"""

from __future__ import annotations

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


def _part(value):
    """`value` as a part: an int when it is integral, else a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class GaussianScalar:
    """Exact element of Q(i): re + im*i with i^2 = -1.

    Immutable; each part is an int or a Fraction.  Equality and hashing go
    by value, so an int part equals and hashes like the Fraction of the same
    value, and the repr prints both parts as Fractions whatever they are
    stored as."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        _set_re(self, re)
        _set_im(self, im)

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianScalar is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianScalar is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return GaussianScalar, (self.re, self.im)

    def __eq__(self, other):
        if type(other) is not GaussianScalar:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianScalar(re={Fraction(self.re)!r}, im={Fraction(self.im)!r})"

    @staticmethod
    def of(re=0, im=0) -> "GaussianScalar":
        return GaussianScalar(_part(re), _part(im))

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
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"


# the slot setters, which bypass the refusing __setattr__
_set_re = GaussianScalar.__dict__["re"].__set__
_set_im = GaussianScalar.__dict__["im"].__set__


def _coerce(value) -> GaussianScalar:
    if isinstance(value, GaussianScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianScalar(_part(value), 0)
    raise TypeError(f"cannot coerce {value!r} to GaussianScalar")


GAUSS_ZERO = GaussianScalar(0, 0)
GAUSS_ONE = GaussianScalar(1, 0)
GAUSS_I = GaussianScalar(0, 1)
