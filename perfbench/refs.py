"""References the benchmark checks against, computed without purecross.

Nothing here imports the package under test.  The published table is
frozen data; Bell and Catalan numbers come from their recurrences; the
series helpers are naive truncated products on lists of Fractions; the
purely crossing generator works from the definitions on plain lists.
"""

from fractions import Fraction
from math import comb

# Row n -> (purely crossing, no-neighbor connected, connected, all), as
# published.
PUBLISHED = {
    1: (0, 1, 1, 1),
    2: (0, 0, 1, 2),
    3: (0, 0, 1, 5),
    4: (1, 1, 2, 15),
    5: (0, 1, 6, 52),
    6: (5, 5, 21, 203),
    7: (14, 19, 85, 877),
    8: (62, 76, 385, 4140),
    9: (298, 360, 1907, 21147),
    10: (1494, 1792, 10205, 115975),
    11: (8140, 9634, 58455, 678570),
    12: (47146, 55286, 355884, 4213597),
    13: (289250, 336396, 2290536, 27644437),
    14: (1873304, 2162554, 15518391, 190899322),
    15: (12756416, 14629720, 110283179, 1382958545),
}


def bell(n_max):
    """Bell numbers B_0 .. B_n_max by B_{n+1} = sum_k C(n, k) B_k."""
    out = [1]
    for n in range(n_max):
        out.append(sum(comb(n, k) * out[k] for k in range(n + 1)))
    return out


def catalan(n_max):
    """Catalan numbers C_0 .. C_n_max by C_{n+1} = sum_k C_k C_{n-k}."""
    out = [1]
    for n in range(n_max):
        out.append(sum(out[k] * out[n - k] for k in range(n + 1)))
    return out


def b_from_a(a):
    """Coefficients of B = x + (1 + x) A, from A's coefficient list."""
    return [a[n] + (a[n - 1] if n else 0) + (1 if n == 1 else 0) for n in range(len(a))]


def c_from_b(b):
    """Coefficients of C = B(x / (1 - x)): c_n = sum_k b_k C(n-1, k-1)."""
    return [0] + [
        sum(b[k] * comb(n - 1, k - 1) for k in range(1, n + 1)) for n in range(1, len(b))
    ]


def mul(f, g, order):
    """Truncated product of two coefficient lists."""
    out = [Fraction(0)] * (order + 1)
    for i, fi in enumerate(f[: order + 1]):
        if fi:
            for j, gj in enumerate(g[: order + 1 - i]):
                out[i + j] += fi * gj
    return out


def compose(f, g, order):
    """f(g) truncated at ``order`` by summing f_k g^k; g[0] must be 0."""
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(f[0])
    power = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        power = mul(power, g, order)
        for i in range(order + 1):
            out[i] += f[k] * power[i]
    return out


def _splits(rgs, lo, hi):
    """True iff atoms lo..hi (0-based, inclusive) form a union of blocks."""
    inside = set(rgs[lo : hi + 1])
    return all(rgs[i] not in inside for i in range(len(rgs)) if not lo <= i <= hi)


def is_purely_crossing(rgs):
    """The definition: connected, no block holding adjacent atoms, and
    atoms 1 and n in different blocks."""
    n = len(rgs)
    if n <= 1 or rgs[0] == rgs[-1]:
        return False
    if any(rgs[i] == rgs[i + 1] for i in range(n - 1)):
        return False
    return not any(
        _splits(rgs, lo, lo + q - 1) for q in range(1, n) for lo in range(n - q + 1)
    )


def _all_rgs(n):
    if n == 0:
        yield ()
        return
    for head in _all_rgs(n - 1):
        for v in range(max(head, default=-1) + 2):
            yield head + (v,)


def purely_crossing_texts(n):
    """Text form ``"1,3|2,4"`` of every purely crossing partition of n."""
    out = []
    for rgs in _all_rgs(n):
        if is_purely_crossing(rgs):
            blocks = {}
            for atom, b in enumerate(rgs, start=1):
                blocks.setdefault(b, []).append(str(atom))
            out.append("|".join(",".join(blocks[b]) for b in sorted(blocks)))
    return sorted(out)
