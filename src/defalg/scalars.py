"""Exact scalars: arbitrary-precision rationals, and the Gaussian rationals
a covector term is given in.

Every coefficient is an `int` where it is integral, in tables
(`core.int_first`) and in polyvectors (`gbv.Polyvector`), and a
`fractions.Fraction` (always lowest terms, positive denominator) otherwise;
both print through `format_rational`.  `int_first_value` is that one rule,
applied wherever a coefficient enters a table, a polyvector or a Gaussian
part.  Only the Hermitian exterior-algebra module has coefficients in Q(i),
and it stores each as two such rational parts (sign ledger X1):
`GaussianScalar` is only the (re, im) value a covector term is given as, and
`format_gaussian` prints a pair of parts.
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


def int_first_value(c):
    """An integral Fraction as its int; an int or any other Fraction as
    itself.  An int equals, hashes and prints like the Fraction of the same
    value, and int arithmetic is several times faster."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class GaussianScalar:
    """re + im*i, the value a covector term is given as; `of` takes each
    part as an int or a Fraction and stores it int-first.
    `lefschetz.CovectorElement.add_term` splits it into its parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def of(re=0, im=0) -> "GaussianScalar":
        return GaussianScalar(int_first_value(re), int_first_value(im))


def format_gaussian(re, im) -> str:
    """re + im*i printed as "a", "b*i", "a+b*i" or "a-b*i"."""
    if im == 0:
        return format_rational(re)
    if re == 0:
        return f"{format_rational(im)}*i"
    sign = "+" if im > 0 else "-"
    return f"{format_rational(re)}{sign}{format_rational(abs(im))}*i"
