"""Generating-function pipelines tying the families together.

Writing A, B, C, D for the weighted counting series of the purely
crossing, no-neighbor connected, connected, and arbitrary families, the
decompositions in :mod:`purecross.bijections` force

* ``B = x + (1 + x) * A``        (adjoin-last-atom split),
* ``C = B(x / (1 - x))``        (run inflation; a binomial transform, O(m^2)),
* ``D = 1 + C(x * D)``          (gap decomposition; Lagrange inversion, O(m^3)).

The forward direction turns a weight series A into B, C, D.  The
backward direction starts from the Bell-number series D of unweighted
counts and recovers C, B, A exactly; :func:`counts_table` tabulates the
four integer columns that fall out and can cross-check them against
brute-force enumeration.  At order m every step is a closed form.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bijections import (
    WeightAssignment,
    connected_weight,
    partition_weight,
    pc_plus_weight,
)
from .enumeration import PartitionClass, count, iterate
from .series import Series, solve_fixpoint

_ZERO = Fraction(0)


def bell_series(order: int) -> Series:
    """1 + x + 2 x^2 + 5 x^3 + ...: sizes of the full partition lattices,
    by the Bell triangle recurrence."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    bells = [1]
    row = [1]
    for _ in range(order):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        bells.append(row[0])
    return Series(bells, order=order)


def _binomial(s: Series, sign: int) -> Series:
    """s(x / (1 - sign x)): [x^n] = sum_k C(n-1, k-1) sign^(n-k) s_k, n >= 1."""
    c = s.coeffs
    out = [c[0]]
    for n in range(1, s.order + 1):
        out.append(sum(comb(n - 1, k - 1) * sign ** (n - k) * c[k] for k in range(1, n + 1)))
    return Series(out, order=s.order)


def derive_c_from_d(d: Series) -> Series:
    """Invert the gap relation: with F = x * d and G its reversion,
    C(w) = w / G(w) - 1.  The result order drops by one; coefficient
    c_M would need one more coefficient of d than the input carries."""
    if d.order < 1:
        raise ValueError("need order >= 1")
    if d[0] != 1:
        raise ValueError("constant term must be 1")
    g = d.shift_up().reversion()
    return g.shift_down().inverse() - 1


def derive_b_from_c(c: Series) -> Series:
    """Invert the inflation relation: B = C(x / (1 + x))."""
    if c[0] != 0:
        raise ValueError("constant term must be 0")
    return _binomial(c, -1)


def derive_a_from_b(b: Series) -> Series:
    """Invert the adjoining relation: A = (B - x) / (1 + x)."""
    if b.order < 1 or b[1] != 1:
        raise ValueError("linear coefficient must be 1")
    if b[0] != 0:
        raise ValueError("constant term must be 0")
    one_plus_x = Series([1, 1], order=b.order)
    return (b - Series.x(b.order)) * one_plus_x.inverse()


def forward_weighted(a: Series) -> tuple[Series, Series, Series]:
    """From a weight series A, produce (B, C, D) at the same order."""
    if a[0] != 0:
        raise ValueError("constant term must be 0")
    order = a.order
    if order < 1:
        raise ValueError("need order >= 1")
    b = Series.x(order) + Series([1, 1], order=order) * a
    c = _binomial(b, 1)
    d = solve_fixpoint(c)
    return b, c, d


# Tuples of every family member are kept for the sizes the weighted
# brute-force sums revisit; larger ground sets stream fresh.
_MEMBER_CACHE: dict = {}
_MEMBER_CACHE_MAX_N = 10


def _members(n: int, cls: PartitionClass):
    if n > _MEMBER_CACHE_MAX_N:
        return iterate(n, cls)
    key = (n, cls)
    if key not in _MEMBER_CACHE:
        _MEMBER_CACHE[key] = tuple(iterate(n, cls))
    return _MEMBER_CACHE[key]


def weighted_brute_coeffs(
    n: int, w: WeightAssignment
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The degree-n coefficients of A, B, C, D computed the slow, direct
    way: sum the transported weight of every member of each family."""
    if n < 1:
        raise ValueError("n must be at least 1")
    a = sum((w[pi] for pi in _members(n, PartitionClass.PURELY_CROSSING)), _ZERO)
    b = sum((pc_plus_weight(pi, w) for pi in _members(n, PartitionClass.PC_PLUS)), _ZERO)
    c = sum((connected_weight(pi, w) for pi in _members(n, PartitionClass.CONNECTED)), _ZERO)
    d = sum((partition_weight(pi, w) for pi in _members(n, PartitionClass.ALL)), _ZERO)
    return a, b, c, d


_COLUMNS = (
    PartitionClass.PURELY_CROSSING,
    PartitionClass.PC_PLUS,
    PartitionClass.CONNECTED,
    PartitionClass.ALL,
)


@dataclass(frozen=True)
class CountsTable:
    """Rows (n, |PC|, |PC+|, |CO|, |P|) for n = 1 .. max_n."""

    rows: tuple[tuple[int, int, int, int, int], ...]

    def row(self, n: int) -> tuple[int, int, int, int, int]:
        for r in self.rows:
            if r[0] == n:
                return r
        raise KeyError(n)

    def to_tsv(self) -> str:
        lines = ["n\tPC\tPC+\tCO\tP"]
        lines.extend("\t".join(str(v) for v in row) for row in self.rows)
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [
            {"n": n, "pc": pc, "pc_plus": pp, "co": co, "all": al}
            for n, pc, pp, co, al in self.rows
        ]


def _as_int(q: Fraction) -> int:
    if q.denominator != 1:
        raise RuntimeError(f"count coefficient {q} is not an integer")
    return int(q)


def counts_table(max_n: int, check_enum_up_to: int = 0, workers: int = 1) -> CountsTable:
    """Tabulate the four family sizes for n = 1 .. max_n via the backward
    series pipeline, optionally cross-checking the leading rows against
    enumeration.  A disagreement raises RuntimeError: it would mean the
    series identities and the enumerator contradict each other."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    d = bell_series(max_n + 1)
    c = derive_c_from_d(d)
    b = derive_b_from_c(c)
    a = derive_a_from_b(b)
    rows = tuple(
        (n, _as_int(a[n]), _as_int(b[n]), _as_int(c[n]), _as_int(d[n]))
        for n in range(1, max_n + 1)
    )
    table = CountsTable(rows)
    for n in range(1, min(check_enum_up_to, max_n) + 1):
        row = rows[n - 1]
        for col, cls in enumerate(_COLUMNS, start=1):
            got = count(n, cls, workers)
            if got != row[col]:
                raise RuntimeError(
                    f"enumeration disagrees with the series pipeline at "
                    f"n={n}, class={cls.value}: counted {got}, series says {row[col]}"
                )
    return table
