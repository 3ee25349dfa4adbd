"""The four benchmark workloads: input generation, the timed call, checks.

Each workload has fixed input sizes (``full``) and a ``tiny`` variant
that only the self-test uses.  ``setup`` builds the inputs from the seed
and runs before the timed region; ``run`` is the timed region; ``check``
compares the outputs with references from :mod:`refs` afterwards.  The
program is reached through the package object passed in, so a traced
run sees the wrapped functions.
"""

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refs


class Checks:
    """Counts attempted and failed output checks.

    With ``corrupt`` set, the first reference compared is off by one, so
    the self-test can confirm that a wrong reference shows as a failure.
    """

    def __init__(self, corrupt=False):
        self.attempted = 0
        self.failures = []
        self._corrupt = corrupt

    def equal(self, label, got, want):
        if self._corrupt:
            self._corrupt = False
            want = [*want[:-1], want[-1] + 1] if isinstance(want, (list, tuple)) else want + 1
        self.attempted += 1
        if got != want:
            self.failures.append(f"{label}: got {str(got)[:200]}, want {str(want)[:200]}")


def _rational(rnd):
    return Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))


# -- backward-table: the paper's headline path through the CLI ----------


def _table_setup(pc, seed, size):
    return ["table", "--max-n", str(size["max_n"])]


def _table_run(pc, argv, span):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pc.cli.run(argv)
    return code, buf.getvalue()


def _table_check(argv, out, ck, size):
    code, text = out
    max_n = size["max_n"]
    ck.equal("exit code", code, 0)
    lines = text.splitlines()
    ck.equal("header", lines[:1], ["n\tPC\tPC+\tCO\tP"])
    rows = [tuple(int(v) for v in line.split("\t")) for line in lines[1:]]
    ck.equal("row count", len(rows), max_n)
    if len(rows) != max_n:
        return
    ck.equal("row labels", [r[0] for r in rows], list(range(1, max_n + 1)))
    for n in range(1, min(15, max_n) + 1):
        ck.equal(f"published row {n}", rows[n - 1][1:], refs.PUBLISHED[n])
    a = [0] + [r[1] for r in rows]
    b = [0] + [r[2] for r in rows]
    c = [0] + [r[3] for r in rows]
    b_ref = refs.b_from_a(a)
    c_ref = refs.c_from_b(b)
    bell = refs.bell(max_n)
    for n in range(1, max_n + 1):
        ck.equal(f"P = Bell at n={n}", rows[n - 1][4], bell[n])
        ck.equal(f"b = a + a' at n={n}", b[n], b_ref[n])
        ck.equal(f"c = binomial(b) at n={n}", c[n], c_ref[n])


# -- forward-rational: the series layer on non-integer coefficients ------


def _forward_setup(pc, seed, size):
    rnd = random.Random(seed)
    oa, of = size["order_a"], size["order_f"]
    a = pc.Series([0] + [_rational(rnd) for _ in range(oa)], order=oa)
    fs = [
        pc.Series([0, 1] + [_rational(rnd) for _ in range(of - 1)], order=of)
        for _ in range(size["reversions"])
    ]
    return a, fs


def _forward_run(pc, inputs, span):
    a, fs = inputs
    return pc.forward_weighted(a), [f.reversion() for f in fs]


def _check_forward(label, a, bcd, ck):
    """B, C from A by the closed relations; D by substitution into
    D = 1 + C(x D)."""
    b, c, d = (list(s.coeffs) for s in bcd)
    order = len(a) - 1
    ck.equal(f"{label} orders", [len(b), len(c), len(d)], [order + 1] * 3)
    b_ref = refs.b_from_a(a)
    ck.equal(f"{label} b = x + (1+x) a", b, b_ref)
    ck.equal(f"{label} c = b(x/(1-x))", c, refs.c_from_b(b_ref))
    d_sub = refs.compose(c, [0] + d[:-1], order)
    d_sub[0] += 1
    ck.equal(f"{label} d = 1 + c(x d)", d, d_sub)


def _forward_check(inputs, out, ck, size):
    a, fs = inputs
    bcd, gs = out
    _check_forward("forward", list(a.coeffs), bcd, ck)
    of = size["order_f"]
    x = [0, 1] + [0] * (of - 1)
    for i, (f, g) in enumerate(zip(fs, gs)):
        ck.equal(f"reversion {i} order", g.order, of)
        ck.equal(f"reversion {i}: f(g) = x", refs.compose(list(f.coeffs), list(g.coeffs), of), x)


# -- weighted-brute: weight transport over materialised partitions -------


def _weighted_setup(pc, seed, size):
    rnd = random.Random(seed)
    lo, hi, n_max = size["support_lo"], size["support_hi"], size["n_max"]
    texts = {n: refs.purely_crossing_texts(n) for n in range(lo, hi + 1)}
    trials = []
    for _ in range(size["trials"]):
        weights = {t: _rational(rnd) for n in texts for t in texts[n]}
        # a_n sums the weights of PC_n; unassigned members weigh 1.
        a = [Fraction(0)]
        for n in range(1, n_max + 1):
            assigned = [weights[t] for t in texts.get(n, ())]
            a.append(sum(assigned, Fraction(0)) + refs.PUBLISHED[n][0] - len(assigned))
        w = pc.WeightAssignment({pc.Partition.parse(t): v for t, v in weights.items()})
        trials.append((w, a, pc.Series(a, order=n_max)))
    return texts, trials


def _weighted_run(pc, inputs, span):
    _, trials = inputs
    out = []
    for w, _, a_series in trials:
        with span("bench.trial"):
            brute = [pc.weighted_brute_coeffs(n, w) for n in range(1, len(a_series.coeffs))]
            out.append((brute, pc.forward_weighted(a_series)))
    return out


def _weighted_check(inputs, out, ck, size):
    texts, trials = inputs
    for n, found in texts.items():
        ck.equal(f"|PC_{n}| generated", len(found), refs.PUBLISHED[n][0])
    for t, ((_, a, _), (brute, bcd)) in enumerate(zip(trials, out)):
        _check_forward(f"trial {t}", a, bcd, ck)
        for n, row in enumerate(brute, start=1):
            ck.equal(f"trial {t} n={n} brute a", row[0], a[n])
            ck.equal(f"trial {t} n={n} brute = forward", tuple(row[1:]), tuple(s[n] for s in bcd))


# -- enum-count: the rgs walkers and predicate kernels, counting only ----


def _count_setup(pc, seed, size):
    return size["n"], list(pc.PartitionClass)


def _count_run(pc, inputs, span):
    n, classes = inputs
    serial = {cls.value: pc.count(n, cls) for cls in classes}
    parallel = {cls.value: pc.count(n, cls, workers=2) for cls in classes}
    return serial, parallel


def _count_check(inputs, out, ck, size):
    n, _ = inputs
    serial, parallel = out
    pc_, pc_plus, co, all_ = refs.PUBLISHED[n]
    want = {"pc": pc_, "pc+": pc_plus, "co": co, "all": all_, "nc": refs.catalan(n)[n]}
    ck.equal(f"all = Bell({n})", serial["all"], refs.bell(n)[n])
    for cls, value in want.items():
        ck.equal(f"count({n}, {cls})", serial.get(cls), value)
        ck.equal(f"count({n}, {cls}, workers=2)", parallel.get(cls), serial.get(cls))


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    sizes: dict


WORKLOADS = {
    "backward-table": Workload(
        _table_setup, _table_run, _table_check, {"full": {"max_n": 40}, "tiny": {"max_n": 10}}
    ),
    "forward-rational": Workload(
        _forward_setup,
        _forward_run,
        _forward_check,
        {
            "full": {"order_a": 24, "order_f": 30, "reversions": 3},
            "tiny": {"order_a": 6, "order_f": 6, "reversions": 1},
        },
    ),
    "weighted-brute": Workload(
        _weighted_setup,
        _weighted_run,
        _weighted_check,
        {
            "full": {"support_lo": 4, "support_hi": 8, "n_max": 9, "trials": 10},
            "tiny": {"support_lo": 4, "support_hi": 5, "n_max": 6, "trials": 2},
        },
    ),
    "enum-count": Workload(
        _count_setup, _count_run, _count_check, {"full": {"n": 11}, "tiny": {"n": 8}}
    ),
}
