"""Truncated formal power series with exact rational coefficients.

A :class:`Series` holds coefficients c0 .. c_order as ``Fraction``s; no
floating point or bool is accepted anywhere, nor a string in exponent
notation or with a zero denominator.  Binary operations
truncate to the smaller operand order and record it on the result;
nothing ever extends an order.

>>> f = Series.x(5) + Series([0, 0, 1], order=5)
>>> f.reversion().coeffs
(Fraction(0, 1), Fraction(1, 1), Fraction(-1, 1), Fraction(2, 1), Fraction(-5, 1), Fraction(14, 1))
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _to_fraction(value, name="coefficient") -> Fraction:
    """``value`` as an exact ``Fraction``; ``name`` says what it is in
    the errors.  A float or bool raises ``TypeError``; a string in
    exponent notation or with a zero denominator raises ``ValueError``."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"float and bool {name}s are not allowed; use Fraction or str")
    if isinstance(value, str) and "e" in value.lower():  # 1e999999999 builds 10^999999999
        raise ValueError(f"{name} {value!r} uses exponent notation; write an integer or p/q")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{name} {value!r} has a zero denominator") from None


class Series:
    """A power series known through ``x**order``, coefficients exact."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order=None):
        # A Fraction is immutable, so one given is kept rather than copied.
        vals = [c if type(c) is Fraction else _to_fraction(c) for c in coeffs]
        if order is None:
            if not vals:
                raise ValueError("need coefficients or an explicit order")
            order = len(vals) - 1
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise ValueError(f"order must be a nonnegative integer, got {order!r}")
        if len(vals) > order + 1:
            raise ValueError(f"{len(vals)} coefficients exceed order {order}")
        vals.extend([_ZERO] * (order + 1 - len(vals)))
        self.order = order
        self.coeffs = tuple(vals)

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order=order)

    @classmethod
    def x(cls, order: int) -> "Series":
        if order < 1:
            raise ValueError("Series.x needs order >= 1")
        return cls([0, 1], order=order)

    def __getitem__(self, k: int) -> Fraction:
        if type(k) is not int:  # a bool is no index, nor a float
            raise TypeError(f"series index {k!r} is not an integer")
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Series({[str(c) for c in self.coeffs]}, order={self.order})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            m = min(self.order, other.order)
            return Series(
                [a + b for a, b in zip(self.coeffs, other.coeffs)][: m + 1], order=m
            )
        scalar = _to_fraction(other)
        return Series((self.coeffs[0] + scalar,) + self.coeffs[1:], order=self.order)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs], order=self.order)

    def __sub__(self, other) -> "Series":
        return self + (-other if isinstance(other, Series) else -_to_fraction(other))

    def __rsub__(self, other) -> "Series":
        return (-self) + _to_fraction(other)

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            m = min(self.order, other.order)
            a, b = self.coeffs, other.coeffs
            out = [_ZERO] * (m + 1)
            for i in range(m + 1):
                ai = a[i]
                if ai:
                    for j in range(m + 1 - i):
                        out[i + j] += ai * b[j]
            return Series(out, order=m)
        scalar = _to_fraction(other)
        return Series([scalar * c for c in self.coeffs], order=self.order)

    __rmul__ = __mul__

    # -- order bookkeeping --------------------------------------------

    def truncate(self, order: int) -> "Series":
        """Forget coefficients beyond ``order`` (which must not exceed the
        current order)."""
        if order > self.order:
            raise ValueError(f"cannot truncate order {self.order} up to {order}")
        return Series(self.coeffs[: order + 1], order=order)

    def shift_down(self) -> "Series":
        """Divide by x; requires a zero constant term, order drops by one."""
        if self.coeffs[0] != 0:
            raise ValueError("cannot shift down with a nonzero constant term")
        if self.order < 1:
            raise ValueError("cannot shift down an order-0 series")
        return Series(self.coeffs[1:], order=self.order - 1)

    # -- composition and inverses -------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """``self(inner)``; the inner series must kill its constant term.

        Horner's rule on integers: with F = M * self and G = L * inner
        integral (M, L the lcms of the denominators), r <- r * G + F_k L^(m-k)
        for k = m-1 .. 0 gives M L^m self(inner), divided out once at the end.
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
            nxt = [f[k] * scale] + [0] * m
            for i in range(m):
                ri = r[i]
                if ri:
                    for j in range(1, m + 1 - i):
                        nxt[i + j] += ri * g[j]
            r = nxt
        den = f_den * scale
        return Series([Fraction(v, den) for v in r], order=m)

    def inverse(self) -> "Series":
        """Reciprocal series 1 / self; needs an invertible constant term."""
        c = self.coeffs
        if c[0] == 0:
            raise ValueError("cannot invert a series with zero constant term")
        inv0 = _ONE / c[0]
        out = [inv0] + [_ZERO] * self.order
        for k in range(1, self.order + 1):
            acc = _ZERO
            for i in range(1, k + 1):
                if c[i]:
                    acc += c[i] * out[k - i]
            out[k] = -inv0 * acc
        return Series(out, order=self.order)

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
        return Series([_ZERO] + _lagrange(self.shift_down(), self.order, -1), order=self.order)


def _integral(coeffs) -> tuple[list, int]:
    """Integers z and their common denominator den with coeffs = z / den."""
    den = lcm(*(q.denominator for q in coeffs))
    return [q.numerator * (den // q.denominator) for q in coeffs], den


def _exact(num: int, den: int) -> int:
    """num / den for integers known to divide; anything else is a bug."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return quotient


def _lagrange(psi: Series, count: int, sign: int) -> list:
    """[w^n] G for n = 1 .. count, where G = x * psi(G)^sign, sign = +-1.
    By Lagrange inversion, [w^n] G = [t^(n-1)] psi(t)^(sign n) / n.  Each
    p = phi^e comes from J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2,
    4.7), p_0 = 1 and p_k = sum_{j=1..k} ((e + 1) j - k) phi_j p_{k-j} / k,
    which holds for negative e too: O(count^3) in all.

    The loop runs on ints only, with exact divisions, checked.  With
    a = psi_0, phi = psi / a and L the lcm of the denominators of phi,
    the series phi(L t) is integral with constant term 1, so every p and
    every p_(n-1) / n is an integer; the result is a^(sign n) times that
    over L^(n-1).  ``psi`` needs psi_0 != 0 and terms through
    t^(count - 1).
    """
    z, _ = _integral(psi.coeffs[: count + 1])  # phi = z / z_0
    z0 = z[0]
    scale = lcm(*(abs(z0) // gcd(z0, v) for v in z))
    f = [v * scale**k // z0 for k, v in enumerate(z)]
    lead = psi.coeffs[0] ** sign  # a^sign
    out = []
    for n in range(1, count + 1):
        e = sign * n
        p = [1]
        for k in range(1, n):
            acc = sum(((e + 1) * j - k) * f[j] * p[k - j] for j in range(1, k + 1))
            p.append(_exact(acc, k))
        total = _exact(p[n - 1], n)
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
    return Series(_lagrange(c + 1, c.order + 1, 1), order=c.order)


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
