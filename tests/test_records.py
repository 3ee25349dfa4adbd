"""The five read-only records: Composition, PcPlusCase, CoverDecomposition,
GapDecomposition and CountsTable.

Their repr, hash and error messages are pinned to what the frozen
dataclasses they replaced gave (CPython, 64-bit: ints and tuples hash
the same in every process); the field checks of PcPlusCase and
CountsTable, and the Partition checks of the decompositions' parts,
came later and are pinned to their own messages."""

import copy
import hashlib
import pickle

import pytest

from purecross import (
    Composition,
    CountsTable,
    CoverDecomposition,
    GapDecomposition,
    Partition,
    PartitionError,
    PcPlusCase,
    counts_table,
    cover_decompose,
    gap_decompose,
    iterate,
)

P = Partition.parse

# (record, its repr, its hash)
PINNED = [
    (lambda: Composition((1, 2)), "Composition(parts=(1, 2))", 7059930188335900088),
    (lambda: Composition(parts=[3]), "Composition(parts=(3,))", 5447451613544559470),
    (
        lambda: PcPlusCase(adjoined=True, base=P("1,3|2,4")),
        "PcPlusCase(adjoined=True, base=Partition.parse('1,3|2,4'))",
        7558629028303400021,
    ),
    (
        lambda: PcPlusCase(False, P("1,4|2,5|3,6")),
        "PcPlusCase(adjoined=False, base=Partition.parse('1,4|2,5|3,6'))",
        -4445717457653600553,
    ),
    (
        lambda: CoverDecomposition(P("1,2|3"), (P("1,2"), P("1"))),
        "CoverDecomposition(cover=Partition.parse('1,2|3'), "
        "pieces=(Partition.parse('1,2'), Partition.parse('1')))",
        -7383089338895520592,
    ),
    (
        lambda: cover_decompose(P("1,3|2,4|5")),
        "CoverDecomposition(cover=Partition.parse('1,2,3,4|5'), "
        "pieces=(Partition.parse('1,3|2,4'), Partition.parse('1')))",
        -1380640771834276610,
    ),
    (
        lambda: CoverDecomposition(Partition.empty(), ()),
        "CoverDecomposition(cover=Partition.empty(), pieces=())",
        9028247024705308198,
    ),
    (
        lambda: GapDecomposition(P("1"), (Partition.empty(),)),
        "GapDecomposition(core=Partition.parse('1'), gaps=(Partition.empty(),))",
        -367007397562032455,
    ),
    (
        lambda: gap_decompose(P("1,3|2,4|5")),
        "GapDecomposition(core=Partition.parse('1,3|2,4'), gaps=(Partition.empty(), "
        "Partition.empty(), Partition.empty(), Partition.parse('1')))",
        2744187545617836146,
    ),
    (
        lambda: CountsTable(((1, 0, 1, 1, 1),)),
        "CountsTable(rows=((1, 0, 1, 1, 1),))",
        675812134019135585,
    ),
    (
        lambda: counts_table(3),
        "CountsTable(rows=((1, 0, 1, 1, 1), (2, 0, 0, 1, 2), (3, 0, 0, 1, 5)))",
        1885274270002955422,
    ),
]

# (bad record, exception type, message)
REFUSED = [
    (lambda: Composition(()), ValueError, "a composition needs at least one part"),
    (lambda: Composition((2, 0)), PartitionError, "composition part 0 out of range 1.."),
    (lambda: Composition((1, -1)), PartitionError, "composition part -1 out of range 1.."),
    (lambda: Composition((1, 2.0)), PartitionError, "composition part 2.0 is not an integer"),
    (lambda: Composition((True,)), PartitionError, "composition part True is not an integer"),
    (lambda: Composition(5), TypeError, "'int' object is not iterable"),
    (lambda: Composition(None), TypeError, "'NoneType' object is not iterable"),
    (
        lambda: CoverDecomposition(P("1,3|2,4"), (P("1,2"), P("1,2"))),
        ValueError,
        "cover 1,3|2,4 is crossing",
    ),
    (
        lambda: CoverDecomposition(Partition.whole(3), ()),
        ValueError,
        "0 pieces for 1 cover blocks",
    ),
    (
        lambda: CoverDecomposition(Partition.whole(3), (Partition.whole(2),)),
        ValueError,
        "piece of size 2 against cover block of size 3",
    ),
    (
        lambda: CoverDecomposition(Partition.whole(2), (Partition.singletons(2),)),
        ValueError,
        "piece 1|2 is not connected",
    ),
    (
        lambda: GapDecomposition(Partition.singletons(2), (Partition.empty(),) * 2),
        ValueError,
        "core 1|2 is not connected",
    ),
    (
        lambda: GapDecomposition(Partition.whole(2), (Partition.empty(),)),
        ValueError,
        "1 gaps for a core of 2 atoms",
    ),
    (
        lambda: GapDecomposition(Partition.empty(), ()),
        ValueError,
        "core must have at least one atom",
    ),
    (lambda: CoverDecomposition(P("1"), ["x"]), ValueError, "piece 'x' is not a Partition"),
    (
        lambda: CoverDecomposition(P("1,2|3"), (P("1,2"), (0,))),
        ValueError,
        "piece (0,) is not a Partition",
    ),
    (lambda: CoverDecomposition("1", [P("1")]), ValueError, "cover '1' is not a Partition"),
    (lambda: CoverDecomposition(None, ()), ValueError, "cover None is not a Partition"),
    (lambda: GapDecomposition(P("1"), ["x"]), ValueError, "gap 'x' is not a Partition"),
    (
        lambda: GapDecomposition(P("1,2"), (Partition.empty(), [])),
        ValueError,
        "gap [] is not a Partition",
    ),
    (
        lambda: GapDecomposition((0,), [Partition.empty()]),
        ValueError,
        "core (0,) is not a Partition",
    ),
    (lambda: GapDecomposition(1, ()), ValueError, "core 1 is not a Partition"),
    (
        lambda: Composition(),
        TypeError,
        "Composition.__init__() missing 1 required positional argument: 'parts'",
    ),
    (
        lambda: Composition((1,), (2,)),
        TypeError,
        "Composition.__init__() takes 2 positional arguments but 3 were given",
    ),
    (
        lambda: Composition(part=(1,)),
        TypeError,
        "Composition.__init__() got an unexpected keyword argument 'part'",
    ),
    (
        lambda: PcPlusCase(True),
        TypeError,
        "PcPlusCase.__init__() missing 1 required positional argument: 'base'",
    ),
    (
        lambda: CountsTable(),
        TypeError,
        "CountsTable.__init__() missing 1 required positional argument: 'rows'",
    ),
    (lambda: PcPlusCase("no", 2), ValueError, "adjoined 'no' is not a bool"),
    (lambda: PcPlusCase(1, P("1,3|2,4")), ValueError, "adjoined 1 is not a bool"),
    (lambda: PcPlusCase(None, P("1,3|2,4")), ValueError, "adjoined None is not a bool"),
    (lambda: PcPlusCase(True, 2), ValueError, "base 2 is not a purely crossing partition"),
    (
        lambda: PcPlusCase(False, "1,3|2,4"),
        ValueError,
        "base 1,3|2,4 is not a purely crossing partition",
    ),
    (
        lambda: PcPlusCase(True, P("1,3,5|2,4")),
        ValueError,
        "base 1,3,5|2,4 is not a purely crossing partition",
    ),
    (
        lambda: PcPlusCase(False, Partition.whole(1)),
        ValueError,
        "base 1 is not a purely crossing partition",
    ),
    (
        lambda: CountsTable([[1, 0, 1, 1]]),
        ValueError,
        "row 1 must be five ints starting with 1, not (1, 0, 1, 1)",
    ),
    (
        lambda: CountsTable([(1, 0, 1, 1, 1.0)]),
        ValueError,
        "row 1 must be five ints starting with 1, not (1, 0, 1, 1, 1.0)",
    ),
    (
        lambda: CountsTable([(True, 0, 1, 1, 1)]),
        ValueError,
        "row 1 must be five ints starting with 1, not (True, 0, 1, 1, 1)",
    ),
    (
        lambda: CountsTable([(1, 0, 1, 1, 1), (3, 0, 0, 1, 5)]),
        ValueError,
        "row 2 must be five ints starting with 2, not (3, 0, 0, 1, 5)",
    ),
    (lambda: CountsTable([(1, 0, 1, 1, 1), 2.5]), TypeError, "'float' object is not iterable"),
]

RECORDS = [make for make, _, _ in PINNED]


@pytest.mark.parametrize("make, text, digest", PINNED)
def test_repr_and_hash_are_pinned(make, text, digest):
    record = make()
    assert repr(record) == text
    assert hash(record) == digest == hash(record._fields())


@pytest.mark.parametrize("make, kind, message", REFUSED)
def test_refusals_are_pinned(make, kind, message):
    with pytest.raises(kind) as info:
        make()
    assert (type(info.value), str(info.value)) == (kind, message)


@pytest.mark.parametrize("make", RECORDS)
def test_equal_only_to_a_record_of_its_class_with_equal_fields(make):
    record, again = make(), make()
    assert record == again and record is not again
    assert not record != again
    assert record != record._fields()
    assert record.__eq__(record._fields()) is NotImplemented

    class Sub(type(record)):
        __slots__ = ()

    assert record != Sub(*record._fields())


def test_unequal_fields_make_unequal_records():
    assert Composition((1, 2)) != Composition((2, 1))
    assert PcPlusCase(True, P("1,3|2,4")) != PcPlusCase(False, P("1,3|2,4"))
    assert counts_table(3) != counts_table(4)
    assert gap_decompose(P("1,3|2,4|5")) != gap_decompose(P("1,3|2,4"))


@pytest.mark.parametrize("make", RECORDS)
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))]
)
def test_copies_and_pickles_round_trip(make, clone):
    record = make()
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize("make", RECORDS)
def test_copies_rebuild_through_the_checked_constructor(make):
    record = make()
    assert record.__reduce__() == (type(record), record._fields())


def test_keyword_and_positional_construction_agree():
    base, cover, core = P("1,3|2,4"), P("1,2|3"), P("1")
    pieces, gaps = (P("1,2"), P("1")), (Partition.empty(),)
    rows = ((1, 0, 1, 1, 1),)
    assert Composition(parts=(1, 2)) == Composition((1, 2))
    assert PcPlusCase(adjoined=True, base=base) == PcPlusCase(True, base)
    assert PcPlusCase(True, base=base) == PcPlusCase(True, base)
    assert CoverDecomposition(cover=cover, pieces=pieces) == CoverDecomposition(cover, pieces)
    assert GapDecomposition(core=core, gaps=gaps) == GapDecomposition(core, gaps)
    assert CountsTable(rows=rows) == CountsTable(rows)


def test_sequences_are_stored_as_tuples():
    assert Composition([1, 2]).parts == (1, 2)
    assert type(Composition(iter([1, 2])).parts) is tuple
    dec = CoverDecomposition(P("1,2|3"), [P("1,2"), P("1")])
    assert type(dec.pieces) is tuple
    gap = GapDecomposition(P("1"), [Partition.empty()])
    assert type(gap.gaps) is tuple


def test_counts_table_rows_are_tuples():
    table = CountsTable([[1, 0, 1, 1, 1], [2, 0, 0, 1, 2]])
    assert table == counts_table(2) and hash(table) == hash(counts_table(2))
    assert type(table.rows) is tuple and all(type(row) is tuple for row in table.rows)
    with pytest.raises(TypeError):
        table.rows[0][1] = 99


def test_decompositions_of_every_partition_are_pinned():
    # The repr of both decompositions of each partition with n <= 9, in
    # enumeration order, against what the block-based decomposers gave.
    digest = hashlib.sha256()
    for n in range(1, 10):
        for pi in iterate(n):
            digest.update(f"{cover_decompose(pi)!r}\n{gap_decompose(pi)!r}\n".encode())
    assert digest.hexdigest() == (
        "594320276ec2f7fef4a303bf47d9ce76c54d7024435fbd318b1c5e2254d7fd3d"
    )


@pytest.mark.parametrize("make", RECORDS)
def test_fields_cannot_be_set_or_deleted(make):
    record = make()
    name = type(record).__match_args__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert getattr(record, name) is value


def test_match_reads_the_fields_in_order():
    def describe(record):
        match record:
            case Composition(parts):
                return parts
            case PcPlusCase(adjoined, base):
                return adjoined, str(base)
            case CoverDecomposition(cover, pieces):
                return str(cover), len(pieces)
            case GapDecomposition(core, gaps):
                return str(core), len(gaps)
            case CountsTable(rows):
                return rows[-1]

    assert describe(Composition((2, 1))) == (2, 1)
    assert describe(PcPlusCase(True, P("1,3|2,4"))) == (True, "1,3|2,4")
    assert describe(cover_decompose(P("1,3|2,4|5"))) == ("1,2,3,4|5", 2)
    assert describe(gap_decompose(P("1,3|2,4|5"))) == ("1,3|2,4", 4)
    assert describe(counts_table(4)) == (4, 1, 1, 2, 15)
