"""Generating-function pipelines tying the families together.

Writing A, B, C, D for the weighted counting series of the purely
crossing, no-neighbor connected, connected, and arbitrary families, the
decompositions in :mod:`purecross.bijections` force

* ``B = x + (1 + x) * A``        (adjoin-last-atom split; O(m) both ways,
  a running sum forward and a running difference backward),
* ``C = B(x / (1 - x))``        (run inflation; Horner's rule, O(m^2) additions),
* ``D = 1 + C(x * D)``          (gap decomposition; backward, a triangular solve
  on the powers of D, m^3 / 6 products; forward, Lagrange inversion).

The forward direction turns a weight series A into B, C, D.  The
backward direction starts from the Bell-number series D of unweighted
counts and recovers C, B, A exactly, and ``verify`` checks the leading
rows against brute-force enumeration.  Each step is one kernel on a row
of Python ints, where every division is exact; the public functions
scale rational input to integers, call it, and divide back once per
coefficient.  :func:`counts_table` chains the kernels on the Bell row,
Bell -> C -> B -> A, on integer rows with no ``Fraction`` between steps.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import add, itemgetter

from .bijections import WeightAssignment, _check_weights, _keys_from_roots
from .enumeration import _iter_rgs_no_singletons
from .partition import _integer, _Record, _rgs_roots
from .series import Series, _integral, _monic, _mul, solve_fixpoint

_ZERO = Fraction(0)


def _bell_row(order: int) -> list:
    """B_0 .. B_order by the Bell triangle: each row starts with the last
    entry of the one before, then adds that row's entries in turn."""
    bells, row = [1], [1]
    for _ in range(order):
        row = list(accumulate(row, initial=row[-1]))
        bells.append(row[0])
    return bells


def bell_series(order: int) -> Series:
    """1 + x + 2 x^2 + 5 x^3 + ...: sizes of the full partition lattices,
    by the Bell triangle recurrence."""
    return Series(_bell_row(_integer(order, "order", 0)))


def _binomial_row(z: list, sign: int) -> list:
    """z(x / (1 - sign x)) for an integer row z, by Horner's rule in
    y = x / (1 - x), r <- z_k + y r for k = m .. 0.  Multiplying by y is
    a shift and a running sum, and at step k only the terms through
    x^(m - k) reach the result: O(m^2) additions, no products.  For
    sign -1, substituting t = -x turns z(x / (1 + x)) into z(-y) at t, so
    the odd coefficients change sign on the way in and on the way out."""
    if sign < 0:
        z = [-v if k % 2 else v for k, v in enumerate(z)]
    r = []
    for v in reversed(z):
        r = [v, *accumulate(r)]
    if sign < 0:
        r[1::2] = [-v for v in r[1::2]]
    return r


def _binomial(s: Series, sign: int) -> Series:
    """s(x / (1 - sign x)) from den * s, den the lcm of its denominators."""
    z, den = _integral(s.coeffs)
    return Series([Fraction(v, den) for v in _binomial_row(z, sign)])


def _gap_row(d: list) -> list:
    """c_0 .. c_m with D = 1 + C(x D), for an integer row d_0 .. d_m with
    d_0 = 1.  As d_n = sum_{k=1..n} c_k [x^(n-k)] D^k and the k = n term
    is c_n, c_n = d_n - sum_{k<n} c_k [x^(n-k)] D^k: one power row D^k,
    cut to degree m - k and multiplied by D once per k (a :func:`_mul`),
    and one accumulator row of the sums; about m^3 / 6 products."""
    m = len(d) - 1
    acc = [0] * (m + 1)
    p = d[:m]  # D^k through x^(m-k), for k = 1
    out = [0]
    for k in range(1, m + 1):
        ck = d[k] - acc[k]
        out.append(ck)
        acc[k + 1 :] = [a + ck * v for a, v in zip(acc[k + 1 :], p[1:])]
        p = _mul(p, d, m - k)
    return out


def derive_c_from_d(d: Series) -> Series:
    """Invert the gap relation D = 1 + C(x D), order d.order - 1.  With L
    the lcm of the denominators of d, D(L x) (:func:`series._monic`) is
    integral and solves it with C(L x): c_n is entry n of its
    :func:`_gap_row` over L^n."""
    if d.order < 1:
        raise ValueError("need order >= 1")
    if d[0] != 1:
        raise ValueError("constant term must be 1")
    dt, scale, _ = _monic(d.coeffs[: d.order])  # d_k L^k
    return Series([Fraction(v, scale**k) for k, v in enumerate(_gap_row(dt))])


def derive_b_from_c(c: Series) -> Series:
    """Invert the inflation relation: B = C(x / (1 + x))."""
    if c[0] != 0:
        raise ValueError("constant term must be 0")
    return _binomial(c, -1)


def _difference_row(b) -> list:
    """A = (B - x) / (1 + x): a_n = b_n - [n = 1] - a_(n-1), for b of two
    terms at least.  It divides nothing, so it takes ints or Fractions."""
    a = [b[0], b[1] - 1 - b[0]]
    for v in b[2:]:
        a.append(v - a[-1])
    return a


def derive_a_from_b(b: Series) -> Series:
    """Invert the adjoining relation: A = (B - x) / (1 + x)."""
    if b.order < 1 or b[1] != 1:
        raise ValueError("linear coefficient must be 1")
    if b[0] != 0:
        raise ValueError("constant term must be 0")
    return Series(_difference_row(b.coeffs))


def forward_weighted(a: Series) -> tuple[Series, Series, Series]:
    """From a weight series A, produce (B, C, D) at the same order.
    B = x + (1 + x) A is the running sum b_n = a_n + a_(n-1) + [n = 1],
    the mirror of :func:`derive_a_from_b`, O(m)."""
    if a[0] != 0:
        raise ValueError("constant term must be 0")
    if a.order < 1:
        raise ValueError("need order >= 1")
    coeffs = a.coeffs
    b = Series([_ZERO, coeffs[1] + 1, *map(add, coeffs[2:], coeffs[1:])])
    c = _binomial(b, 1)
    d = solve_fixpoint(c)
    return b, c, d


# Walks of singleton-free strings of this many lengths are kept, the
# most recently used.
_ROWS_KEPT = 16


@lru_cache(maxsize=_ROWS_KEPT)
def _singleton_free_rows(m: int):
    """The singleton-free partitions of m atoms as rows (keys, (a, b, c,
    d)), one per distinct tuple of purely crossing keys: d counts them
    all, c the connected ones among them, b and a the no-neighbor
    connected and purely crossing ones.  Each string is walked once per
    process, whichever sizes need it, and counted by its collapsed form,
    the string with each run of one block cut to one entry: its crossing
    components and keys are those of the string, so each form is
    classified once (lengths 0 to 9 have 4,361 strings and 1,174 forms).

    Every form goes through :func:`_keys_from_roots`, the key kernel of
    single partitions, and the family flags are read off its answer and
    the form: a string is connected when the cover is whole (the empty
    partition counts in d only), no-neighbor when it is also its own
    form (the form has length m), and purely crossing when moreover its
    last atom is outside atom 1's block."""
    forms = Counter(map(itemgetter(1), _iter_rgs_no_singletons(m)))
    rows = defaultdict(lambda: [0, 0, 0, 0])
    for flat, strings in forms.items():
        keys, whole = _keys_from_roots(flat, _rgs_roots(flat))
        row = rows[keys]
        row[3] += strings
        if whole and flat:
            row[2] += strings
            if len(flat) == m:
                row[1] += strings
                if flat[-1] != 0:
                    row[0] += strings
    return tuple((keys, tuple(counts)) for keys, counts in rows.items())


def weighted_brute_coeffs(
    n: int, w: WeightAssignment
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The degree-n coefficients of A, B, C, D computed the slow, direct
    way: sum the transported weight of every member of each family, the
    product of ``w[key]`` over its purely crossing keys.  A key is the
    rgs tuple of its partition, as the weight table is keyed, so no key
    is ever built into a :class:`Partition`.

    A singleton crosses nothing and contracts to the single atom, so it
    has no key, and removing the singletons of a partition leaves its
    cover pieces and keys unchanged.  The members of D with exactly m
    atoms in non-singleton blocks are the pairs (m-subset of [n],
    singleton-free partition of [m]), so D sums C(n, m) times the rows of
    length m (:func:`_singleton_free_rows`, walked once per length and
    classified once per collapsed form by the key kernel of single
    partitions).  A connected partition with n >= 2 has no
    singleton, so A, B and C are the rows of length n; the single atom
    is connected, no-neighbor and keyless.

    The sum is taken on ints, on the integer weights the assignment
    computed when it was built: with L its scale, an assigned key weighs
    L w[key] and an unassigned one L.  Keys are purely crossing
    partitions of at least 4 atoms, on disjoint atoms, so a row has at
    most depth = n // 4 of them; a row of k keys is scaled by
    L^(depth - k) more, and each coefficient divided by L^depth once.
    The rows of length m < n add to D alone; one pass over the rows of
    length n gives A, B, C and the last term of D."""
    _integer(n, "n", 1)
    _check_weights(w)
    scale = w._scale
    weight = w._scaled.get  # keys and table are both rgs tuples
    depth = n // 4
    powers = [scale**j for j in range(depth + 1)]  # L^j, j = 0 .. depth
    # The row value is computed inline in both loops: a generator shared
    # by them cost about a fifth of a trial after the first.
    d = 0
    for m in range(n):
        d_m = 0
        for keys, counts in _singleton_free_rows(m):
            value = powers[depth - len(keys)]
            for key in keys:
                value *= weight(key, scale)
            d_m += counts[3] * value
        d += comb(n, m) * d_m
    a = b = c = 0
    for keys, (ka, kb, kc, kd) in _singleton_free_rows(n):
        value = powers[depth - len(keys)]
        for key in keys:
            value *= weight(key, scale)
        a += ka * value
        b += kb * value
        c += kc * value
        d += kd * value
    if n == 1:
        b = c = 1
    return tuple(Fraction(total, powers[depth]) for total in (a, b, c, d))


class CountsTable(_Record):
    """Rows (n, |PC|, |PC+|, |CO|, |P|) for n = 1 .. max_n."""

    __slots__ = __match_args__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, int, int, int, int], ...]):
        rows = tuple(map(tuple, rows))
        for k, row in enumerate(rows, 1):
            # A row of another length fails the type test below.
            n, pc, pp, co, al = row if len(row) == 5 else (None,) * 5
            if not (type(n) is type(pc) is type(pp) is type(co) is type(al) is int and n == k):
                raise ValueError(f"row {k} must be five ints starting with {k}, not {row!r}")
        self._fill(rows)

    def row(self, n: int) -> tuple[int, int, int, int, int]:
        """The row for size n; KeyError unless n is an int (not a bool)
        with a row."""
        if type(n) is int and 1 <= n <= len(self.rows):
            return self.rows[n - 1]
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


def counts_table(max_n: int) -> CountsTable:
    """Tabulate the four family sizes for n = 1 .. max_n via the backward
    kernels, enumerating nothing: the Bell row is integral with d_0 = 1,
    so L = 1 and each kernel takes the row before it as it stands.  An
    entry that is not an int raises RuntimeError: it would mean the
    series identities contradict themselves."""
    _integer(max_n, "max_n", 1)
    d = _bell_row(max_n)
    c = _gap_row(d)
    b = _binomial_row(c, -1)
    a = _difference_row(b)
    for v in (*a, *b, *c, *d):
        if type(v) is not int:
            raise RuntimeError(f"count coefficient {v} is not an integer")
    return CountsTable(tuple(zip(range(1, max_n + 1), a[1:], b[1:], c[1:], d[1:])))
