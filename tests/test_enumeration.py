"""Lexicographic iteration, counting, and the parallel counting path."""

import inspect
import itertools
import multiprocessing
import subprocess
import sys
from enum import IntEnum

import pytest

from purecross import (
    Composition,
    Partition,
    PartitionClass,
    PartitionError,
    Series,
    WeightAssignment,
    bell_series,
    count,
    counts_table,
    enumeration,
    iterate,
    orbit_size,
    run_checks,
    weighted_brute_coeffs,
)
from purecross.bijections import _keys_of_form, _weight_keys
from purecross.partition import _rgs_roots

from oracles import (
    PUBLISHED_COUNTS,
    all_partitions_brute,
    bell_brute,
    catalan,
)

CLASSES = (
    PartitionClass.ALL,
    PartitionClass.NONCROSSING,
    PartitionClass.CONNECTED,
    PartitionClass.PC_PLUS,
    PartitionClass.PURELY_CROSSING,
)

PREDICATES = {
    PartitionClass.ALL: lambda pi: True,
    PartitionClass.NONCROSSING: Partition.is_noncrossing,
    PartitionClass.CONNECTED: Partition.is_connected,
    PartitionClass.PC_PLUS: Partition.is_pc_plus,
    PartitionClass.PURELY_CROSSING: Partition.is_purely_crossing,
}


def test_class_values():
    assert PartitionClass("pc") is PartitionClass.PURELY_CROSSING
    assert PartitionClass("pc+") is PartitionClass.PC_PLUS
    assert PartitionClass("co") is PartitionClass.CONNECTED
    assert PartitionClass("nc") is PartitionClass.NONCROSSING
    assert PartitionClass("all") is PartitionClass.ALL


def test_iterate_all_n3():
    got = [pi.text() for pi in iterate(3, PartitionClass.ALL)]
    assert got == ["1,2,3", "1,2|3", "1,3|2", "1|2,3", "1|2|3"]


def test_iterate_purely_crossing_n4():
    assert [pi.text() for pi in iterate(4, PartitionClass.PURELY_CROSSING)] == [
        "1,3|2,4"
    ]


def test_iterate_single_atom():
    assert list(iterate(1, PartitionClass.PC_PLUS)) == [Partition.whole(1)]
    assert list(iterate(1, PartitionClass.PURELY_CROSSING)) == []


def test_iterate_accepts_string_class():
    assert list(iterate(4, "pc")) == list(iterate(4, PartitionClass.PURELY_CROSSING))


def test_iterate_returns_a_generator():
    # perfbench/tracing.py counts the members it yields only when the
    # call returns a generator; a map object would read as no members.
    assert inspect.isgenerator(iterate(3))


class _Size(IntEnum):
    FOUR = 4


def _no_check_may_run(line):
    raise AssertionError(f"a check ran before its arguments were refused: {line}")


# A bool is not a size, though True == 1; nor is an IntEnum, a float, a
# string or -1 a number of singletons.  Every size, atom, shift and
# composition part goes through one check, which raises PartitionError.
BAD_SIZES = {
    "iterate(True)": lambda: iterate(True),
    "iterate(IntEnum 4)": lambda: iterate(_Size.FOUR),
    "count(True)": lambda: count(True),
    "count(3, workers=True)": lambda: count(3, workers=True),
    "counts_table(True)": lambda: counts_table(True),
    "weighted_brute_coeffs(True, w)": lambda: weighted_brute_coeffs(True, WeightAssignment()),
    "Partition.whole(True)": lambda: Partition.whole(True),
    "Partition.singletons(True)": lambda: Partition.singletons(True),
    "Partition.singletons(-1)": lambda: Partition.singletons(-1),
    "Partition(IntEnum 4, blocks)": lambda: Partition(_Size.FOUR, [[1, 2], [3, 4]]),
    "rotate(True)": lambda: Partition.parse("1,2|3,4").rotate(True),
    "rotate(1.0)": lambda: Partition.parse("1,2|3,4").rotate(1.0),
    "bell_series(2.5)": lambda: bell_series(2.5),
    'bell_series("3")': lambda: bell_series("3"),
    "Composition((True,))": lambda: Composition((True,)),
    # A series' order, given to pad, through the same check.
    "Series(order=IntEnum 4)": lambda: Series([1, 2], order=_Size.FOUR),
    "Series(order=True)": lambda: Series([1, 2], order=True),
    "Series(order=2.5)": lambda: Series([1, 2], order=2.5),
    "Series(order=-1)": lambda: Series([1], order=-1),
    "Series.x(True)": lambda: Series.x(True),
    # Each must raise before a single check runs, or prints a line.
    "run_checks(max_n=0, trials=0)": lambda: run_checks(
        max_n=0, trials=0, out=_no_check_may_run
    ),
    "run_checks(trials=0)": lambda: run_checks(trials=0, out=_no_check_may_run),
    # A seed is any int, negative too, but not a bool or a float.
    "run_checks(seed=True)": lambda: run_checks(seed=True, out=_no_check_may_run),
    "run_checks(seed=2.5)": lambda: run_checks(seed=2.5, out=_no_check_may_run),
}


@pytest.mark.parametrize("call", BAD_SIZES.values(), ids=BAD_SIZES)
def test_rejects_bools_and_negative_sizes(call):
    with pytest.raises(PartitionError):
        call()


def test_run_checks_takes_a_negative_seed():
    lines = []
    assert run_checks(max_n=2, trials=1, seed=-5, out=lines.append)
    assert lines[-1].endswith("checks passed")


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(iterate(0, PartitionClass.ALL))
    with pytest.raises(ValueError):
        count(0, PartitionClass.ALL)
    with pytest.raises(ValueError):
        list(iterate(3, "nope"))
    with pytest.raises(ValueError):
        count(3, PartitionClass.ALL, workers=0)


def test_streams_match_predicate_filter_and_are_sorted():
    for n in range(1, 10):
        everything = list(iterate(n, PartitionClass.ALL))
        assert everything == sorted(everything)
        assert len(everything) == bell_brute(n)
        for cls in CLASSES:
            members = list(iterate(n, cls))
            assert members == sorted(members)
            pred = PREDICATES[cls]
            assert members == [pi for pi in everything if pred(pi)], (n, cls)


def test_singleton_free_stream_is_the_filtered_plain_stream():
    # A000296: 1, 0, 1, 1, 4, 11, 41, 162, 715, 3425, 17722.
    sizes = []
    for m in range(11):
        got = [tuple(rgs) for rgs, _ in enumeration._iter_rgs_no_singletons(m)]
        expected = [
            tuple(rgs)
            for rgs in enumeration._iter_rgs_plain(m)
            if all(rgs.count(v) > 1 for v in rgs)
        ]
        assert got == expected, m
        sizes.append(len(got))
    assert sizes == [1, 0, 1, 1, 4, 11, 41, 162, 715, 3425, 17722]


def test_collapsed_form_has_the_crossing_components_and_keys_of_its_string():
    # The walk hands over each string with its collapsed form, and the
    # form alone is classified: its one-pass roots and the weight keys
    # read off them must be those of the whole string.
    for m in range(11):
        whole = []
        for rgs, flat in enumeration._iter_rgs_no_singletons(m):
            assert _rgs_roots(flat) == _rgs_roots(rgs), rgs
            assert _keys_of_form(flat) == _weight_keys.__wrapped__(rgs), rgs
            whole.append((tuple(rgs), flat))
        # Replayed from every prefix, the walks put together are the whole
        # walk, forms included; a prefix with more singletons than atoms
        # left yields nothing, and one as long as the string at most itself.
        # Prefixes of length m - 2 and up fix atoms of the two inner loops:
        # atom m - 2, atom m - 1 as well, or more atoms than the string has.
        # The walk reads no atom past the string's end, so one longer
        # prefix per string, the one ending in 0, yields that string if it
        # is walked.
        forms = dict(whole)
        for length in range(1, m + 2):
            split = []
            for prefix in map(tuple, enumeration._iter_rgs_plain(length)):
                if length > m and prefix[-1] != 0:
                    continue
                got = [
                    (tuple(rgs), flat)
                    for rgs, flat in enumeration._iter_rgs_no_singletons(m, prefix)
                ]
                if length > m:
                    string = prefix[:m]
                    assert got == ([(string, forms[string])] if string in forms else []), prefix
                    continue
                assert all(rgs[:length] == prefix for rgs, _ in got), prefix
                singles = sum(1 for v in set(prefix) if prefix.count(v) == 1)
                if singles > m - length:
                    assert got == [], prefix
                split += got
            if length <= m:
                assert split == whole, (m, length)


def test_singleton_free_walk_carries_the_collapsed_string():
    # The collapsed string kept along the walk against groupby on each
    # finished string, over the whole walk and from every prefix.
    for m in range(11):
        for length in range(m):  # length 0: the one empty prefix
            for prefix in map(tuple, enumeration._iter_rgs_plain(length)):
                for rgs, flat in enumeration._iter_rgs_no_singletons(m, prefix):
                    assert flat == tuple(k for k, _ in itertools.groupby(rgs)), rgs


def test_plain_walk_from_every_prefix():
    # Prefixes are not checked: each yields the strings of the walk that
    # start with it, one as long as the string, or longer, only itself.
    # Lengths n - 2 and n - 1 fix the first atom of the two inner loops,
    # or leave it to the walk and fix the atom before.
    for n in range(1, 10):
        whole = [tuple(rgs) for rgs in enumeration._iter_rgs_plain(n)]
        for length in range(n + 2):
            split = []
            for prefix in map(tuple, enumeration._iter_rgs_plain(length)):
                got = [tuple(rgs) for rgs in enumeration._iter_rgs_plain(n, prefix)]
                if length >= n:
                    assert got == [prefix]
                else:
                    assert all(rgs[:length] == prefix for rgs in got), prefix
                split += got
            if length <= n:
                assert split == whole, (n, length)


def test_short_walks_are_pinned():
    # The edge cases of the two inner loops: up to four atoms they place
    # atom 0 or atom 1, with no atom walked before them at n = 2 and only
    # atom 0 at n = 3; below two atoms there are no two to place.
    plain = [[tuple(rgs) for rgs in enumeration._iter_rgs_plain(n)] for n in range(5)]
    assert plain == [
        [()],
        [(0,)],
        [(0, 0), (0, 1)],
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)],
        [
            (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 2),
            (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 1, 0), (0, 1, 1, 1),
            (0, 1, 1, 2), (0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 2, 2), (0, 1, 2, 3),
        ],
    ]
    free = [
        [(list(rgs), flat) for rgs, flat in enumeration._iter_rgs_no_singletons(n)]
        for n in range(5)
    ]
    assert free == [
        [([], ())],
        [],
        [([0, 0], (0,))],
        [([0, 0, 0], (0,))],
        [
            ([0, 0, 0, 0], (0,)),
            ([0, 0, 1, 1], (0, 1)),
            ([0, 1, 0, 1], (0, 1, 0, 1)),
            ([0, 1, 1, 0], (0, 1, 0)),
        ],
    ]


def test_noncrossing_walk_from_every_prefix():
    # A crossing prefix yields nothing; the rest put together are the
    # whole walk.
    for n in range(1, 11):
        whole = [tuple(rgs) for rgs in enumeration._iter_rgs_noncrossing(n)]
        for length in range(1, n):
            split = []
            for prefix in map(tuple, enumeration._iter_rgs_plain(length)):
                got = [tuple(rgs) for rgs in enumeration._iter_rgs_noncrossing(n, prefix)]
                assert all(rgs[:length] == prefix for rgs in got), prefix
                if not Partition.from_rgs(prefix).is_noncrossing():
                    assert got == [], prefix
                split += got
            assert split == whole, (n, length)


def test_streams_match_brute_enumerator():
    for n in range(1, 8):
        got = {pi.blocks for pi in iterate(n, PartitionClass.ALL)}
        expected = {
            tuple(tuple(sorted(b)) for b in sorted(blocks, key=min))
            for blocks in all_partitions_brute(n)
        }
        assert got == expected


def test_counts_match_published_table():
    for n in range(1, 11):
        pc, pcp, co, everything = PUBLISHED_COUNTS[n]
        assert count(n, PartitionClass.PURELY_CROSSING) == pc
        assert count(n, PartitionClass.PC_PLUS) == pcp
        assert count(n, PartitionClass.CONNECTED) == co
        assert count(n, PartitionClass.ALL) == everything
        assert count(n, PartitionClass.NONCROSSING) == catalan(n)


def test_count_is_worker_independent():
    for cls in CLASSES:
        reference = count(8, cls, workers=1)
        assert count(8, cls, workers=2) == reference
        assert count(8, cls, workers=8) == reference


def test_parallel_path_on_larger_n():
    # n = 10 goes through the chunked path even with one worker process.
    assert count(10, PartitionClass.ALL, workers=2) == 115975
    assert count(10, PartitionClass.CONNECTED, workers=2) == 10205
    assert count(10, PartitionClass.PC_PLUS, workers=2) == 1792
    assert count(10, PartitionClass.PURELY_CROSSING, workers=2) == 1494
    assert count(10, PartitionClass.NONCROSSING, workers=2) == catalan(10)


class _InlinePool:
    """Stands in for multiprocessing.Pool: records the requested process
    count and maps in this process, so nothing is spawned."""

    requested = []

    def __init__(self, processes):
        self.requested.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, items):
        return [fn(*item) for item in items]


@pytest.mark.parametrize("affinity", [True, False])
def test_worker_count_is_capped_by_usable_cpus(monkeypatch, affinity):
    # count imports Pool from multiprocessing when it starts workers.
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(_InlinePool, "requested", [])
    if affinity:
        monkeypatch.setattr(
            enumeration.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
    else:
        monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    for cls in CLASSES:
        reference = count(9, cls, workers=1)
        assert count(9, cls, workers=500) == reference
        assert count(9, cls, workers=2) == reference
    assert _InlinePool.requested == [3, 2] * len(CLASSES)


def test_co_classifies_each_form_once_per_chunk(monkeypatch):
    # A serial count is the one-chunk case of the parallel count: one
    # counting function walks the prefixes of its chunk as one stream
    # through one verdict table, so each collapsed form the chunk meets
    # gets one cover pass, not one per prefix that reaches it.
    n = 10
    chunks = []  # per call of the counting function: (prefixes, forms passed)
    counted = enumeration._count

    def count_chunk(n, cls, prefixes):
        chunks.append((prefixes, []))
        return counted(n, cls, prefixes)

    def roots(flat):
        chunks[-1][1].append(flat)
        return _rgs_roots(flat)

    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(enumeration, "_count", count_chunk)
    monkeypatch.setattr(enumeration, "_rgs_roots", roots)
    co = PartitionClass.CONNECTED
    assert count(n, co) == count(n, co, workers=2) == PUBLISHED_COUNTS[n][2]
    assert [len(prefixes) for prefixes, _ in chunks] == [1, 102, 101]
    for prefixes, passed in chunks:
        met = {
            flat
            for prefix in prefixes
            for _, flat in enumeration._iter_rgs_no_singletons(n, prefix)
        }
        assert len(passed) == len(met) and set(passed) == met


def test_importing_the_package_does_not_load_multiprocessing():
    code = "import sys, purecross, purecross.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("n", [13, 14, 15])
def test_deep_counts_match_published_table(n, deep):
    pc, pcp, co, everything = PUBLISHED_COUNTS[n]
    assert count(n, PartitionClass.PURELY_CROSSING) == pc
    assert count(n, PartitionClass.PC_PLUS) == pcp
    assert count(n, PartitionClass.CONNECTED) == co
    assert count(n, PartitionClass.ALL) == everything


def test_co_verdicts_start_over_when_full(monkeypatch):
    # A table of 4 verdicts is full thousands of times in the walk at
    # n = 9; the stream must not change.
    reference = [pi.rgs for pi in iterate(9, PartitionClass.CONNECTED)]
    monkeypatch.setattr(enumeration, "_VERDICTS_KEPT", 4)
    assert [pi.rgs for pi in iterate(9, PartitionClass.CONNECTED)] == reference


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_co_verdicts_stay_bounded(deep):
    # At n = 13 the walk meets more collapsed forms with neighbors than
    # the verdict table keeps: about 65 MB of peak RSS if it kept all of
    # them, about 30 MB with the table started over whenever it is full.
    # VmHWM is the peak of the child's own address space; ru_maxrss would
    # also count the pages it shared with this process before exec.
    code = (
        "import purecross\n"
        "print(purecross.count(13, 'co'))\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    total, peak_kib = map(int, proc.stdout.split())
    assert total == PUBLISHED_COUNTS[13][2]
    assert peak_kib < 45 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_members_store_their_rgs_alone(deep):
    # A member keeps its rgs and nothing else: the 678,570 partitions of
    # 11 atoms, held at once, peak near 136 MB.  Storing their blocks,
    # size and hash as well peaked near 436 MB.
    code = (
        "import purecross\n"
        "print(len(list(purecross.iterate(11))))\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    total, peak_kib = map(int, proc.stdout.split())
    assert total == PUBLISHED_COUNTS[11][3]
    assert peak_kib < 250 * 1024


def test_orbit_size():
    assert orbit_size(Partition.parse("1,3|2,4")) == 1
    assert orbit_size(Partition.parse("1,3,5|2,4,6")) == 1
    assert orbit_size(Partition.parse("1,3|2,5|4,6")) == 3
    assert orbit_size(Partition.whole(1)) == 1
    assert orbit_size(Partition.parse("1,2|3,4")) == 2
    assert orbit_size(Partition.singletons(5)) == 1


def test_orbit_size_divides_n():
    for n in range(1, 8):
        for pi in iterate(n, PartitionClass.ALL):
            size = orbit_size(pi)
            assert n % size == 0
            assert pi.rotate(size) == pi
            assert all(pi.rotate(r) != pi for r in range(1, size))
