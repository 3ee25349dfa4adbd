"""Exact truncated power series: arithmetic, composition, inverses."""

import copy
import pickle
import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from purecross import PartitionError, Series, render_text, solve_fixpoint
from purecross.partition import _Record
from purecross.series import _exact

from oracles import _mul_trunc, _recip_trunc, catalan, compose_trunc, lagrange_reversion


class _Order(IntEnum):
    FOUR = 4


coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def series(order=6, nonzero_linear=False):
    def build(coeffs):
        if nonzero_linear:
            coeffs = [Fraction(0), Fraction(1)] + coeffs
        return Series(coeffs[: order + 1], order=order)

    size = order - 1 if nonzero_linear else order + 1
    return st.builds(build, st.lists(coefficients, max_size=size))


class TestConstruction:
    def test_padding(self):
        f = Series([1, 2], order=4)
        assert f.order == 4
        assert f.coeffs == (1, 2, 0, 0, 0)
        assert all(isinstance(c, Fraction) for c in f.coeffs)

    def test_order_defaults_to_length(self):
        assert Series([1, 2, 3]).order == 2

    def test_named_constructors(self):
        assert Series.zero(3).coeffs == (0, 0, 0, 0)
        assert Series.one(2).coeffs == (1, 0, 0)
        assert Series.x(2).coeffs == (0, 1, 0)
        with pytest.raises(ValueError):
            Series.x(0)

    def test_keeps_a_given_fraction(self):
        # A Fraction is immutable, so the series keeps the one it is
        # given; ints and strings are still converted, floats and bools
        # still refused.
        q = Fraction(7, 3)
        assert Series([q]).coeffs[0] is q
        assert Series([q, 2, "1/2"]).coeffs == (q, Fraction(2), Fraction(1, 2))
        assert all(type(c) is Fraction for c in Series([q, 2, "1/2"]).coeffs)
        for bad in (0.5, True, False):
            with pytest.raises(TypeError):
                Series([q, bad])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Series([0, 0.5])
        with pytest.raises(TypeError):
            Series([0, True])
        with pytest.raises(TypeError):
            Series([1]) + 0.5
        with pytest.raises(TypeError):
            Series([1]) * 0.5

    def test_rejects_excess_coefficients(self):
        with pytest.raises(ValueError):
            Series([1, 2, 3], order=1)
        with pytest.raises(ValueError):
            Series([], )
        with pytest.raises(ValueError):
            Series([1], order=-1)

    @pytest.mark.parametrize(
        "coeffs", ["123", b"12", bytearray(b"12"), {1: 5, 0: 2}], ids=["str", "bytes", "bytearray", "dict"]
    )
    def test_rejects_text_bytes_and_mappings(self, coeffs):
        # Each iterates to something that would read as coefficients:
        # digits, byte values or a mapping's keys.
        with pytest.raises(TypeError, match="series coefficients come as a sequence"):
            Series(coeffs)

    @pytest.mark.parametrize(
        "coeffs",
        [{3, 1, 2}, frozenset(), memoryview(b"12"), {1: 5, 0: 2}.keys()],
        ids=["set", "frozenset", "memoryview", "keys"],
    )
    def test_rejects_unordered_collections_and_buffers(self, coeffs):
        # A set iterates in its own order, not the caller's, and a buffer
        # iterates to byte values.
        with pytest.raises(TypeError, match="series coefficients come as a sequence"):
            Series(coeffs)

    @pytest.mark.parametrize(
        "coeffs",
        [[1, 2, 3], (1, 2, 3), range(1, 4), (k for k in (1, 2, 3))],
        ids=["list", "tuple", "range", "generator"],
    )
    def test_takes_ordered_iterables(self, coeffs):
        assert Series(coeffs).coeffs == (1, 2, 3)

    def test_order_is_read_off_the_coefficients(self):
        assert Series.__slots__ == ("coeffs",)
        for f in (Series([1, 2], order=4), Series([7]), Series.zero(0), Series.x(3)):
            assert type(f.order) is int and f.order == len(f.coeffs) - 1

    def test_order_goes_through_the_integer_check(self):
        for bad in (_Order.FOUR, True, 2.5, -1, "3"):
            with pytest.raises(PartitionError, match="order"):
                Series([1, 2], order=bad)
            with pytest.raises(PartitionError, match="order"):
                Series.x(bad)
            with pytest.raises(PartitionError, match="order"):
                Series([1, 2, 3, 4, 5]).truncate(bad)
        with pytest.raises(PartitionError, match="order 0 out of range 1.."):
            Series.x(0)

    def test_is_immutable(self):
        f = Series([1, 2, 3])
        for change in (
            lambda: setattr(f, "order", 7),
            lambda: setattr(f, "coeffs", (Fraction(1),)),
            lambda: delattr(f, "coeffs"),
            lambda: delattr(f, "order"),
            lambda: setattr(f, "extra", 1),
        ):
            with pytest.raises(AttributeError, match="immutable"):
                change()
        assert f.order == 2 and f[2] == 3

    def test_pickle_and_copy_round_trip(self):
        for f in (Series([1, "1/2", -3], order=5), Series.zero(0)):
            for clone in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
                assert clone == f and clone.order == f.order and clone is not f

    def test_hashes_as_a_record(self):
        # Equality, hash and pickling are _Record's, through the one field:
        # equal series hash equal, whatever form their coefficients took.
        f = Series([1, 2])
        assert Series.__eq__ is _Record.__eq__ and Series.__hash__ is _Record.__hash__
        twins = (Series(["1", Fraction(2)]), Series([1, 2], order=1), Series(iter([1, 2])))
        assert all(twin == f and hash(twin) == hash(f) == hash(f._fields()) for twin in twins)
        assert len({f, *twins, Series([1, 2, 0]), Series([1, 2], order=2)}) == 2
        assert {f: "f"}[Series([1, 2])] == "f"
        for g in (f, Series([1, "1/2", -3], order=5), Series.zero(0)):
            for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
                assert clone == g and hash(clone) == hash(g)

    def test_rejects_exponents_and_zero_denominators(self):
        # The rule weights follow: Fraction would build 10^200000 for the
        # first, and raise a bare ZeroDivisionError for the last.
        for text, message in (
            ("1e200000", "coefficient '1e200000' uses exponent notation"),
            ("1e999999999", "exponent"),
            ("1/0", "coefficient '1/0' has a zero denominator"),
        ):
            with pytest.raises(ValueError, match=message):
                Series([text])

    def test_only_numbers_with_exponents_get_the_exponent_message(self):
        # Text Fraction would read with an exponent is refused before it
        # runs; text that is no number gets Fraction's own error.
        for text in ("one", "e", "abc e"):
            with pytest.raises(ValueError, match="Invalid literal for Fraction"):
                Series([text])
        for text in ("1e5", " -2.5E-3 ", "1_0e2", "1e999999999"):
            with pytest.raises(ValueError, match="uses exponent notation"):
                Series([text])

    def test_accepts_strings_and_fractions(self):
        f = Series(["1/2", Fraction(1, 3), 2])
        assert f.coeffs == (Fraction(1, 2), Fraction(1, 3), 2)

    def test_getitem_bounds(self):
        f = Series([5, 6], order=3)
        assert f[0] == 5 and f[1] == 6 and f[3] == 0
        with pytest.raises(IndexError):
            f[4]
        with pytest.raises(IndexError):
            f[-1]

    def test_getitem_takes_only_ints(self):
        # True would read coefficient 1: no bool is treated as a number.
        f = Series([1, 2, 3])
        for index in (True, False, 1.0, Fraction(1)):
            with pytest.raises(TypeError, match="not an integer"):
                f[index]

    def test_equality_includes_order(self):
        assert Series([1, 2], order=2) == Series([1, 2, 0], order=2)
        assert Series([1, 2], order=2) != Series([1, 2], order=3)
        assert Series([1]) != object()


class TestArithmetic:
    def test_known_product(self):
        one_plus_x = Series([1, 1], order=4)
        assert (one_plus_x * one_plus_x).coeffs == (1, 2, 1, 0, 0)

    def test_scalars(self):
        f = Series([1, 2], order=2)
        assert (2 * f).coeffs == (2, 4, 0)
        assert (f * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, 0)
        assert (f + 1).coeffs == (2, 2, 0)
        assert (1 - f).coeffs == (0, -2, 0)
        assert (-f).coeffs == (-1, -2, 0)

    def test_results_take_the_smaller_order(self):
        a = Series([1, 1], order=8)
        b = Series([1, 1], order=3)
        assert (a + b).order == 3
        assert (a * b).order == 3
        assert (a - b).order == 3

    @given(series(), series(), series())
    def test_ring_laws(self, f, g, h):
        assert (f + g) == (g + f)
        assert (f * g) == (g * f)
        assert ((f + g) + h) == (f + (g + h))
        assert ((f * g) * h) == (f * (g * h))
        assert (f * (g + h)) == (f * g + f * h)
        assert (f + Series.zero(f.order)) == f
        assert (f * Series.one(f.order)) == f


def seeded_rows(seed, order, count=8):
    """Rational rows through x^order with mixed signs, zeros and
    denominators; the constant terms cycle through -2, 3/4, 1 and -5/7,
    so the integer scaling takes out a sign and a non-unit constant."""
    rnd = random.Random(seed)
    leads = [Fraction(-2), Fraction(3, 4), Fraction(1), Fraction(-5, 7)]
    return [
        [leads[i % 4]] + [Fraction(rnd.randint(-9, 9), rnd.randint(1, 12)) for _ in range(order)]
        for i in range(count)
    ]


class TestAgainstOracles:
    """The integer kernels against the schoolbook Fraction loops."""

    @pytest.mark.parametrize("order", [0, 1, 7, 30])
    def test_product(self, order):
        rows = seeded_rows(order, order)
        for a, b in zip(rows, rows[1:] + rows[:1]):
            assert list((Series(a) * Series(b)).coeffs) == _mul_trunc(a, b, order)
            cut = order // 2
            got = Series(a) * Series(b[: cut + 1])
            assert got.order == cut
            assert list(got.coeffs) == _mul_trunc(a, b, cut)

    @pytest.mark.parametrize("order", [0, 1, 7, 30])
    def test_inverse(self, order):
        for a in seeded_rows(100 + order, order):
            assert list(Series(a).inverse().coeffs) == _recip_trunc(a, order)

    @pytest.mark.parametrize("order", [0, 1, 7, 20])
    def test_compose(self, order):
        rows = seeded_rows(200 + order, order)
        for i, (outer, tail) in enumerate(zip(rows, rows[1:] + rows[:1])):
            inner = [Fraction(0)] + tail[1:]
            if i % 2 and order > 1:
                inner[1] = Fraction(0)  # an inner series that starts at x^2
            got = Series(outer).compose(Series(inner))
            assert list(got.coeffs) == compose_trunc(outer, inner, order)


class TestBookkeeping:
    def test_truncate(self):
        f = Series([1, 2, 3])
        assert f.truncate(1) == Series([1, 2])
        with pytest.raises(ValueError):
            f.truncate(5)

    def test_shift_down(self):
        assert Series([0, 1, 2]).shift_down() == Series([1, 2])
        with pytest.raises(ValueError):
            Series([1, 2]).shift_down()
        with pytest.raises(ValueError):
            Series([0]).shift_down()


class TestComposition:
    def test_published_connected_from_no_neighbor(self):
        # Substituting x/(1-x) into the no-neighbor connected series gives
        # the connected series; coefficients frozen from the count table.
        b = Series([0, 1, 0, 0, 1, 1, 5, 19])
        geometric = Series([0, 1, 1, 1, 1, 1, 1, 1])
        assert b.compose(geometric).coeffs == (0, 1, 1, 1, 2, 6, 21, 85)

    def test_compose_with_x_is_identity(self):
        f = Series([3, 1, 4, 1, 5])
        assert f.compose(Series.x(4)) == f

    def test_inner_constant_must_vanish(self):
        with pytest.raises(ValueError):
            Series([1, 1]).compose(Series([1, 1]))
        with pytest.raises(TypeError):
            Series([1, 1]).compose(3)

    @given(series(4), series(4, nonzero_linear=True), series(4, nonzero_linear=True))
    def test_compose_is_associative(self, f, g, h):
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    @given(series(5), series(5), series(5, nonzero_linear=True))
    def test_compose_distributes(self, f, g, inner):
        assert (f + g).compose(inner) == f.compose(inner) + g.compose(inner)
        assert (f * g).compose(inner) == f.compose(inner) * g.compose(inner)


class TestInverse:
    def test_geometric(self):
        assert Series([1, -1], order=5).inverse().coeffs == (1, 1, 1, 1, 1, 1)

    def test_rejects_zero_constant(self):
        with pytest.raises(ValueError):
            Series([0, 1]).inverse()

    @given(series(6))
    def test_product_with_inverse_is_one(self, f):
        if f[0] == 0:
            f = f + 1
        assert f * f.inverse() == Series.one(6)


class TestReversion:
    def test_frozen_example(self):
        got = Series([0, 1, 1], order=7).reversion()
        assert got.coeffs == (0, 1, -1, 2, -5, 14, -42, 132)

    def test_matches_lagrange_oracle(self):
        cases = [
            [0, 1, 1],
            [0, 1, -2, 3],
            [0, 1, 0, 1, 0, 1],
            [0, Fraction(1, 2), Fraction(-1, 3), 0, 5],
            [0, 3, 1, Fraction(7, 2)],
            # Integral: linear coefficient 1 needs no scaling; -1 and 2
            # are taken out as a power of the linear coefficient.
            [0, 1, -7, 4, 0, 9, -3, 1, 8, -5, 2, 6, -1],
            [0, -1, 5, -2, 8, 0, 3, -9, 1, 4, -6, 2, 7],
            [0, 2, 3, -4, 1, 7, -8, 0, 5, -3, 9, -1, 6],
            # Rational linear coefficients, and denominators that are
            # primes near 10^4, so the scale is their product.
            [0, Fraction(7, 3), Fraction(-5, 2), 4, Fraction(1, 9), 0, Fraction(-8, 7)],
            [0, Fraction(-1, 2), Fraction(3, 4), Fraction(-2, 5), 1, Fraction(6, 7)],
            [0, 3, Fraction(1, 9973), Fraction(-2, 10007), Fraction(5, 10009),
             Fraction(-7, 10037), Fraction(11, 10039)],
        ]
        rnd = random.Random(29)
        seeded = [0] + [Fraction(rnd.randint(-9, 9) or 1, rnd.randint(1, 9)) for _ in range(30)]
        for coeffs, order in [(c, 12) for c in cases] + [(seeded, 30)]:
            f = Series(coeffs, order=order)
            expected = lagrange_reversion(
                [Fraction(c) for c in f.coeffs], order
            )
            assert list(f.reversion().coeffs) == expected

    def test_roundtrip(self):
        f = Series([0, 1, 5, -3, 2, 1], order=10)
        g = f.reversion()
        assert f.compose(g) == Series.x(10)
        assert g.compose(f) == Series.x(10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Series([1, 1]).reversion()
        with pytest.raises(ValueError):
            Series([0, 0, 1]).reversion()
        with pytest.raises(ValueError):
            Series([0]).reversion()

    @given(series(8, nonzero_linear=True))
    def test_reversion_inverts_composition(self, f):
        g = f.reversion()
        assert f.compose(g) == Series.x(8)
        assert g.compose(f) == Series.x(8)

    @given(st.lists(st.integers(-9, 9), max_size=8))
    def test_reversion_is_an_involution(self, tail):
        f = Series([0, 1] + tail, order=10)
        assert f.reversion().reversion() == f


class TestLagrangeKernel:
    def test_non_exact_integer_division_raises(self):
        assert _exact(-12, 4) == -3
        with pytest.raises(ArithmeticError):
            _exact(7, 2)


class TestFixpoint:
    def test_catalan(self):
        # d = 1 + c(x d) with c = x/(1-x) forces the Catalan numbers.
        c = Series([0] + [1] * 8, order=8)
        d = solve_fixpoint(c)
        assert d.coeffs == tuple(catalan(k) for k in range(9))

    def test_zero_gives_one(self):
        assert solve_fixpoint(Series.zero(5)) == Series.one(5)

    def test_published_bell_from_connected(self):
        c = Series([0, 1, 1, 1, 2, 6, 21, 85])
        assert solve_fixpoint(c).coeffs == (1, 1, 2, 5, 15, 52, 203, 877)

    def test_rational_input_satisfies_the_relation(self):
        rnd = random.Random(31)
        for _ in range(5):
            c = Series(
                [0] + [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in range(30)],
                order=30,
            )
            d = solve_fixpoint(c)
            x_d = Series([0] + list(d.coeffs[:30]), order=30)
            assert d[0] == 1
            assert c.compose(x_d) + 1 == d

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_fixpoint(Series([1, 1]))
        with pytest.raises(TypeError):
            solve_fixpoint([0, 1])


class TestRendering:
    def test_plain(self):
        assert render_text(Series([1, 2, 0, 4])) == "1 + 2*x + 0*x^2 + 4*x^3"

    def test_signs_and_fractions(self):
        f = Series([-1, Fraction(1, 2), -3])
        assert render_text(f) == "-1 + 1/2*x - 3*x^2"

    def test_repr_mentions_order(self):
        assert "order=2" in repr(Series([1, 2, 3]))
