"""Truncated formal power series with exact rational coefficients.

A :class:`Series` stores its coefficients c0 .. c_order as a tuple of
``Fraction``s and nothing else: its order is the length of that tuple
less one, and it is immutable.  No floating point or bool is accepted
anywhere, nor a string in exponent notation or with a zero denominator.
Binary operations truncate to the smaller operand order, which the
length of the result's coefficients then carries; nothing ever extends
an order.

>>> f = Series.x(5) + Series([0, 0, 1], order=5)
>>> f.reversion().coeffs
(Fraction(0, 1), Fraction(1, 1), Fraction(-1, 1), Fraction(2, 1), Fraction(-5, 1), Fraction(14, 1))
"""

import re
from collections.abc import Mapping, Set
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .partition import _integer, _Record

_ZERO = Fraction(0)
# Text that Fraction reads as a decimal with an exponent: its grammar
# with the exponent made compulsory.  1e999999999 builds 10^999999999.
# re compiles it on first use, so an import does not pay for it.
_EXPONENT = r"\s*[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?e[-+]?\d+(?:_\d+)*\s*"


def _to_fraction(value, name="coefficient") -> Fraction:
    """``value`` as an exact ``Fraction``; ``name`` says what it is in
    the errors.  A float or bool raises ``TypeError``; a string in
    exponent notation or with a zero denominator raises ``ValueError``,
    and other text Fraction cannot read raises Fraction's own error."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"float and bool {name}s are not allowed; use Fraction or str")
    if isinstance(value, str) and re.fullmatch(_EXPONENT, value, re.I):
        raise ValueError(f"{name} {value!r} uses exponent notation; write an integer or p/q")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{name} {value!r} has a zero denominator") from None


class Series(_Record):
    """A power series known through ``x**order``, coefficients exact.

    ``coeffs`` is the one field; ``order`` is read off its length.  The
    ``order`` argument pads the given coefficients with zeros through
    ``x**order``; it goes through the package's one integer check.  No
    attribute can be set or deleted once the slot is filled.
    """

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs, order=None):
        # Text and buffers iterate to characters or byte values, mappings
        # to keys, sets in an order of their own.
        if isinstance(coeffs, (str, bytes, bytearray, memoryview, Mapping, Set)):
            raise TypeError(f"series coefficients come as a sequence, not {type(coeffs).__name__}")
        # A Fraction is immutable, so one given is kept rather than copied.
        vals = [c if type(c) is Fraction else _to_fraction(c) for c in coeffs]
        if order is not None:
            _integer(order, "order", 0)
            if len(vals) > order + 1:
                raise ValueError(f"{len(vals)} coefficients exceed order {order}")
            vals.extend([_ZERO] * (order + 1 - len(vals)))
        elif not vals:
            raise ValueError("need coefficients or an explicit order")
        _set_coeffs(self, tuple(vals))

    @property
    def order(self) -> int:
        """The highest power known: the number of coefficients less one."""
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order=order)

    @classmethod
    def x(cls, order: int) -> "Series":
        return cls([0, 1], order=_integer(order, "order", 1))

    def __getitem__(self, k: int) -> Fraction:
        if type(k) is not int:  # a bool is no index, nor a float
            raise TypeError(f"series index {k!r} is not an integer")
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs  # equal tuples have equal orders

    def __repr__(self) -> str:
        return f"Series({[str(c) for c in self.coeffs]}, order={self.order})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):  # zip stops at the smaller order
            return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])
        scalar = _to_fraction(other)
        return Series((self.coeffs[0] + scalar,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __sub__(self, other) -> "Series":
        return self + (-other if isinstance(other, Series) else -_to_fraction(other))

    def __rsub__(self, other) -> "Series":
        return (-self) + _to_fraction(other)

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            m = min(self.order, other.order)
            a, a_den = _integral(self.coeffs[: m + 1])
            b, b_den = _integral(other.coeffs[: m + 1])
            den = a_den * b_den
            return Series([Fraction(v, den) for v in _mul(a, b, m + 1)])
        scalar = _to_fraction(other)
        return Series([scalar * c for c in self.coeffs])

    __rmul__ = __mul__

    # -- order bookkeeping --------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Forget coefficients beyond ``order`` (which must not exceed the
        current order)."""
        if _integer(order, "order", 0) > self.order:
            raise ValueError(f"cannot truncate order {self.order} up to {order}")
        return Series(self.coeffs[: order + 1])

    def shift_down(self) -> "Series":
        """Divide by x; requires a zero constant term, order drops by one."""
        if self.coeffs[0] != 0:
            raise ValueError("cannot shift down with a nonzero constant term")
        if self.order < 1:
            raise ValueError("cannot shift down an order-0 series")
        return Series(self.coeffs[1:])

    # -- composition and inverses -------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """``self(inner)``; the inner series must kill its constant term.

        Horner's rule on integers: with F = M * self and G = L * inner
        integral (M, L the lcms of the denominators), r <- r * G + F_k L^(m-k)
        for k = m-1 .. 0 gives M L^m self(inner), divided out once at the end.
        Each step is one truncated product :func:`_mul`; G_0 = 0 leaves the
        constant term free for F_k L^(m-k).
        """
        if not isinstance(inner, Series):
            raise TypeError("compose expects a Series")
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must have zero constant term")
        m = min(self.order, inner.order)
        f, f_den = _integral(self.coeffs[: m + 1])
        g, g_den = _integral(inner.coeffs[: m + 1])
        r = [f[m]] + [0] * m
        scale = 1
        for k in range(m - 1, -1, -1):
            scale *= g_den
            r = _mul(r, g, m + 1)
            r[0] = f[k] * scale
        den = f_den * scale
        return Series([Fraction(v, den) for v in r])

    def inverse(self) -> "Series":
        """Reciprocal series 1 / self; needs an invertible constant term.

        With self = a * phi and f = phi(L t) integral (see :func:`_monic`),
        1 / self has k-th coefficient [t^k] f^-1 / (a L^k), and f^-1 is
        Miller's recurrence :func:`_power` at exponent -1, on integers.
        """
        if self.coeffs[0] == 0:
            raise ValueError("cannot invert a series with zero constant term")
        f, scale, a = _monic(self.coeffs)
        p = _power(f, -1, self.order + 1)
        return Series([Fraction(v, scale**k) / a for k, v in enumerate(p)])

    def reversion(self) -> "Series":
        """Compositional inverse g with self(g) = g(self) = x.

        Requires a zero constant term and a nonzero linear coefficient.
        Since g = x * psi(g)^-1 with psi = self / x, Lagrange inversion gives
        g_n = [t^(n-1)] psi^-n / n in one pass of O(order^3) operations.
        """
        c = self.coeffs
        if c[0] != 0:
            raise ValueError("reversion needs a zero constant term")
        if self.order < 1 or c[1] == 0:
            raise ValueError("reversion needs a nonzero linear coefficient")
        return Series([_ZERO] + _lagrange(self.shift_down(), self.order, -1))


_set_coeffs = Series.coeffs.__set__


def _integral(coeffs) -> tuple[list, int]:
    """Integers z and their common denominator den with coeffs = z / den."""
    den = lcm(*(q.denominator for q in coeffs))
    return [q.numerator * (den // q.denominator) for q in coeffs], den


def _monic(coeffs) -> tuple[list, int, Fraction]:
    """(f, L, a) for rational coeffs with a = coeffs[0] != 0: with
    phi = coeffs / a and L the lcm of the denominators of phi, f is the
    integer row of phi(L t), f_k = phi_k L^k, so f_0 = 1."""
    z, _ = _integral(coeffs)  # phi = z / z_0
    z0 = z[0]
    scale = lcm(*(abs(z0) // gcd(z0, v) for v in z))
    return [v * scale**k // z0 for k, v in enumerate(z)], scale, coeffs[0]


def _mul(a, b, count) -> list:
    """[t^i] a * b for i < count, on integer rows.  b needs count terms:
    b[i::-1] is b_i .. b_0, so map pairs it with a_0 .. a_i and stops
    there, and a may be shorter."""
    return [sum(map(mul, a, b[i::-1])) for i in range(count)]


def _power(f, e, count) -> list:
    """[t^k] f^e for k < count, f an integer row with f_0 = 1 and count
    terms, by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
    p_0 = 1 and p_k = sum_{j=1..k} ((e + 1) j - k) f_j p_{k-j} / k, which
    holds for negative e too.  Every p_k is an integer, and each division
    is checked."""
    p = [1]
    for k in range(1, count):
        acc = sum(((e + 1) * j - k) * f[j] * p[k - j] for j in range(1, k + 1))
        p.append(_exact(acc, k))
    return p


def _exact(num: int, den: int) -> int:
    """num / den for integers known to divide; anything else is a bug."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return quotient


def _lagrange(psi: Series, count: int, sign: int) -> list:
    """[w^n] G for n = 1 .. count, where G = x * psi(G)^sign, sign = +-1.
    By Lagrange inversion, [w^n] G = [t^(n-1)] psi(t)^(sign n) / n, and
    each power is one :func:`_power` call: O(count^3) in all.

    With psi = a * phi and f = phi(L t) from :func:`_monic`, every
    [t^(n-1)] f^(sign n) / n is an integer, divided exactly and checked;
    the result is a^(sign n) times that over L^(n-1).  ``psi`` needs
    psi_0 != 0 and terms through t^(count - 1).
    """
    f, scale, a = _monic(psi.coeffs[:count])
    lead = a**sign
    out = []
    for n in range(1, count + 1):
        total = _exact(_power(f, sign * n, n)[n - 1], n)
        out.append(Fraction(lead.numerator**n * total, lead.denominator**n * scale ** (n - 1)))
    return out


def solve_fixpoint(c: Series) -> Series:
    """The unique series d with constant term 1 and d = 1 + c(x * d).

    F = x * d solves F = x * (1 + c(F)), the free moment-cumulant relation,
    so d_k = F_{k+1} = [t^k] (1 + c)^(k+1) / (k + 1): O(order^3).
    """
    if not isinstance(c, Series):
        raise TypeError("solve_fixpoint expects a Series")
    if c.coeffs[0] != 0:
        raise ValueError("the composed series must have zero constant term")
    return Series(_lagrange(c + 1, c.order + 1, 1))


def render_text(f: Series) -> str:
    """Human form ``c0 + c1*x + c2*x^2 + ...``, fractions as ``p/q``."""
    parts = []
    for k, c in enumerate(f.coeffs):
        mag = c if (not parts or c >= 0) else -c
        term = str(mag) if k == 0 else (f"{mag}*x" if k == 1 else f"{mag}*x^{k}")
        if not parts:
            parts.append(term)
        else:
            parts.append(f"- {term}" if c < 0 else f"+ {term}")
    return " ".join(parts)
