"""Command line interface: output shapes, exit codes, determinism."""

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from purecross import (
    Partition,
    PartitionClass,
    Series,
    WeightAssignment,
    iterate,
    weighted_brute_coeffs,
)
import purecross.cli as cli_module
import purecross.pipeline as pipeline_module
import purecross.verify as verify_module
from purecross.cli import run

from oracles import PUBLISHED_COUNTS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_purely_crossing_member(self, capsys):
        code, out, err = invoke(capsys, "classify", "1,3|2,4")
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert obj["partition"] == "1,3|2,4"
        assert obj["n"] == 4
        assert obj["noncrossing"] is False
        assert obj["has_neighbors"] is False
        assert obj["connected"] is True
        assert obj["pc_plus"] is True
        assert obj["purely_crossing"] is True
        assert obj["cover"] == "1,2,3,4"

    def test_noncrossing_member(self, capsys):
        code, out, _ = invoke(capsys, "classify", "1,4|2,3")
        obj = json.loads(out)
        assert code == 0
        assert obj["noncrossing"] is True
        assert obj["purely_crossing"] is False
        assert obj["cover"] == "1,4|2,3"

    def test_syntax_error_prints_a_caret(self, capsys):
        code, out, err = invoke(capsys, "classify", "1,3|2,x")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert lines[0] == "error: invalid partition text"
        assert lines[1] == "  1,3|2,x"
        assert lines[2].startswith("  " + " " * 6 + "^")

    def test_semantic_error(self, capsys):
        code, _, err = invoke(capsys, "classify", "1,3")
        assert code == 2
        assert "uncovered" in err


class TestEnumerate:
    def test_plain(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--n", "3", "--class", "all")
        assert code == 0
        assert out.splitlines() == ["1,2,3", "1,2|3", "1,3|2", "1|2,3", "1|2|3"]

    def test_purely_crossing(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--n", "4", "--class", "pc")
        assert code == 0
        assert out.splitlines() == ["1,3|2,4"]

    def test_json(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "--n", "4", "--class", "pc", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == ["1,3|2,4"]

    def test_bad_n(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "--n", "0")
        assert code == 2 and "error" in err

    def test_unknown_class_is_a_usage_error(self, capsys):
        assert invoke(capsys, "enumerate", "--n", "3", "--class", "bogus")[0] == 2


class TestCount:
    def test_published_values(self, capsys):
        assert invoke(capsys, "count", "--n", "5", "--class", "pc")[1] == "0\n"
        assert invoke(capsys, "count", "--n", "7", "--class", "co")[1] == "85\n"
        assert invoke(capsys, "count", "--n", "6", "--class", "nc")[1] == "132\n"

    def test_workers_do_not_change_the_answer(self, capsys):
        solo = invoke(capsys, "count", "--n", "8", "--class", "pc+")
        duo = invoke(capsys, "count", "--n", "8", "--class", "pc+", "--workers", "2")
        assert solo[0] == duo[0] == 0
        assert solo[1] == duo[1] == "76\n"

    def test_bad_workers(self, capsys):
        assert invoke(capsys, "count", "--n", "3", "--workers", "0")[0] == 2


class TestTable:
    def test_tsv(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-n", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n\tPC\tPC+\tCO\tP"
        for n in range(1, 6):
            expected = "\t".join(str(v) for v in (n, *PUBLISHED_COUNTS[n]))
            assert lines[n] == expected

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)[1] == {"n": 2, "pc": 0, "pc_plus": 0, "co": 1, "all": 2}

    def test_bad_max_n(self, capsys):
        assert invoke(capsys, "table", "--max-n", "0")[0] == 2

    def test_max_n_100_is_golden(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-n", "100")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "16f8b37f4b8348b05f0c6d395ac2ff9d4a465fb1f58b5a12821a6082cf56215e"
        )

    def test_max_n_200_is_golden(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-n", "200")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9f0e46c73e0bedda4f47cb8435a00f2d80a28a856fed8d3b704ff19840c7485f"
        )


class TestSeries:
    def test_connected_plain(self, capsys):
        code, out, _ = invoke(capsys, "series", "--which", "C", "--order", "7")
        assert code == 0
        assert out.strip() == (
            "0 + 1*x + 1*x^2 + 1*x^3 + 2*x^4 + 6*x^5 + 21*x^6 + 85*x^7"
        )

    def test_purely_crossing_tsv(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--which", "A", "--order", "10", "--format", "tsv"
        )
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert rows[0] == ["0", "0"]
        for n in range(1, 11):
            assert rows[n] == [str(n), str(PUBLISHED_COUNTS[n][0])]

    def test_full_lattice_json(self, capsys):
        code, out, _ = invoke(
            capsys, "series", "--which", "D", "--order", "6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == ["1", "1", "2", "5", "15", "52", "203"]

    def test_weighted(self, capsys, tmp_path):
        rnd = random.Random(11)
        w = WeightAssignment(
            {
                pi: Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
                for n in (4, 6, 8)
                for pi in iterate(n, PartitionClass.PURELY_CROSSING)
            }
        )
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(w.to_json()), encoding="utf-8")
        brute = {n: weighted_brute_coeffs(n, w) for n in range(1, 10)}
        # At order 6 the weights on size 8 lie beyond the order.
        for order in (6, 9):
            for col, which in enumerate("ABCD"):
                code, out, _ = invoke(
                    capsys,
                    "series",
                    "--which", which,
                    "--order", str(order),
                    "--weights", str(path),
                    "--format", "tsv",
                )
                assert code == 0
                rows = dict(line.split("\t") for line in out.splitlines())
                assert len(rows) == order + 1
                for n in range(1, order + 1):
                    assert rows[str(n)] == str(brute[n][col]), (which, order, n)

    def test_empty_weights_match_unweighted(self, capsys, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text("[]", encoding="utf-8")
        for which in "ABCD":
            plain = invoke(capsys, "series", "--which", which, "--order", "20")
            weighted = invoke(
                capsys, "series", "--which", which, "--order", "20", "--weights", str(path)
            )
            assert plain[0] == 0
            assert weighted == plain

    def test_missing_weights_file(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "series", "--which", "A", "--weights", str(tmp_path / "nope.json")
        )
        assert code == 2 and "cannot read" in err

    def test_float_weights_rejected(self, capsys, tmp_path):
        path = tmp_path / "weights.json"
        for value, kind in (("0.5", "float"), ("true", "bool")):
            path.write_text(
                f'[{{"partition": "1,3|2,4", "weight": {value}}}]', encoding="utf-8"
            )
            code, _, err = invoke(
                capsys, "series", "--which", "A", "--order", "4", "--weights", str(path)
            )
            assert code == 2 and "bad weights file" in err and kind in err

    @pytest.mark.parametrize(
        "text",
        [
            "5",
            "null",
            '[{"partition": 5, "weight": "2"}]',
            '[{"partition": "1,3|2,4", "weight": [1]}]',
            '[{"partition": "1,3|2,4", "weight": null}]',
            '[{"partition": "1,3|2,4", "weight": {}}]',
            '[{"partition": "1,3|2,4", "weight": "1/0"}]',
            '[{"partition": "1,3|2,4", "weight": "1e999999999"}]',
            '[{"partition": "1,3|2,4", "weight": "7/2"}, {"partition": "2,4|1,3", "weight": 5}]',
            # Nested deeper than json.load recurses: exit 2, not 1 with a traceback.
            pytest.param("[" * 100000, id="nested-100000-deep"),
            pytest.param(
                '[{"partition": "1,3|2,4", "weight": ' + "[" * 5000 + "]" * 5000 + "}]",
                id="weight-nested-5000-deep",
            ),
        ],
    )
    def test_malformed_weights_rejected(self, capsys, tmp_path, text):
        path = tmp_path / "weights.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = invoke(
            capsys, "series", "--which", "A", "--order", "4", "--weights", str(path)
        )
        assert (code, out) == (2, "") and "bad weights file" in err

    def test_which_a_skips_the_forward_pass(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text('[{"partition": "1,3|2,4", "weight": "7/2"}]', encoding="utf-8")
        calls = [
            ("series", "--which", "A", "--order", "12", *extra)
            for extra in ((), ("--weights", str(path)))
        ]
        expected = [invoke(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in expected] == [0, 0]

        def forward(a):
            raise AssertionError("series --which A ran the forward pass")

        monkeypatch.setattr(cli_module, "_forward", forward)
        assert [invoke(capsys, *argv) for argv in calls] == expected

    def test_which_a_b_c_skip_the_fixpoint(self, capsys, monkeypatch, tmp_path):
        # Only D needs the fixpoint D = 1 + C(x D); the other letters stop
        # the forward pass before it, with the same output.
        path = tmp_path / "weights.json"
        path.write_text('[{"partition": "1,3|2,4", "weight": "7/2"}]', encoding="utf-8")
        calls = [
            ("series", "--which", which, "--order", "12", *extra)
            for which in "ABC"
            for extra in ((), ("--weights", str(path)))
        ]
        expected = [invoke(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in expected] == [0] * 6

        def solve_fixpoint(c):
            raise AssertionError("series --which A, B or C solved the fixpoint")

        monkeypatch.setattr(pipeline_module, "solve_fixpoint", solve_fixpoint)
        assert [invoke(capsys, *argv) for argv in calls] == expected
        with pytest.raises(AssertionError, match="solved the fixpoint"):
            invoke(capsys, "series", "--which", "D", "--order", "12")

    def test_bad_order(self, capsys):
        assert invoke(capsys, "series", "--which", "A", "--order", "0")[0] == 2


def _zero_forward(monkeypatch):
    # B, C and D all zero: b_1 is 1 by brute sum and in the Bell chain.
    monkeypatch.setattr(verify_module, "forward_weighted", lambda a: (Series.zero(a.order),) * 3)


def _one_fixpoint(monkeypatch):
    monkeypatch.setattr(verify_module, "solve_fixpoint", lambda c: Series.one(c.order))


def _identity_reversion(monkeypatch):
    monkeypatch.setattr(Series, "reversion", lambda f: f)


def _left_product(monkeypatch):
    # f * g = f: neither commutative nor distributive.
    monkeypatch.setattr(Series, "__mul__", lambda f, g: f)


def _derived_product(monkeypatch):
    # The derivative of f * g: bilinear and commutative, not associative.
    true_mul = Series.__mul__

    def mul(f, g):
        return Series([k * c for k, c in enumerate(true_mul(f, g).coeffs)][1:])

    monkeypatch.setattr(Series, "__mul__", mul)


def _squared_weight(monkeypatch):
    # A keyless partition still weighs 1; 1,3|2,4 is the first with a
    # key, its own core with no gaps.
    true_weight = verify_module.partition_weight
    monkeypatch.setattr(verify_module, "partition_weight", lambda pi, w: true_weight(pi, w) ** 2)


def _skewed_compose(monkeypatch):
    # f(g) + g, which is not associative.
    true_compose = Series.compose
    monkeypatch.setattr(Series, "compose", lambda f, g: true_compose(f, g) + g)


# The first series check_reversion draws at seed 0, which a reversion
# that returns its input fails on.
_FIRST_REVERSED = verify_module._random_series(random.Random(2), 30)

# (check name, a wrong series or weight function, the exact message it gets).
SERIES_FAILURES = [
    (
        "weights multiplicative over gap decomposition",
        _squared_weight,
        "gap multiplicativity broke at 1,3|2,4",
    ),
    (
        "weighted series identities match brute sums",
        _zero_forward,
        "weighted series mismatch at n=1",
    ),
    ("reversion composes to identity", _identity_reversion, f"reversion failed for {_FIRST_REVERSED!r}"),
    ("series ring and composition laws", _left_product, "ring law violation"),
    ("series ring and composition laws", _derived_product, "associativity violation"),
    ("series ring and composition laws", _skewed_compose, "composition associativity violation"),
    (
        "series pipelines mutually inverse, table cross-checked",
        _zero_forward,
        "backward then forward does not reproduce the Bell chain",
    ),
    (
        "series pipelines mutually inverse, table cross-checked",
        _one_fixpoint,
        "fixpoint solution disagrees with the Bell series",
    ),
]


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--max-n", "4", "--weighted-trials", "2"
        )
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_failure_maps_to_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("purecross.verify.run_checks", lambda **kw: False)
        assert run(["verify"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name, prepare, message", SERIES_FAILURES, ids=[f.__name__ for _, f, _ in SERIES_FAILURES]
    )
    def test_series_checks_report_a_wrong_series(self, capsys, monkeypatch, name, prepare, message):
        prepare(monkeypatch)
        check = dict(verify_module.CHECKS)[name]
        assert check(verify_module.VerifyContext(max_n=4, trials=1)) == message
        code, out, _ = invoke(capsys, "verify", "--max-n", "4", "--weighted-trials", "1")
        assert code == 1
        assert f"FAIL {name}: {message}" in out.splitlines()

    def test_gap_check_ignores_trials_and_seed(self, monkeypatch):
        # One exact assignment covers every random one, so the work is
        # the same whatever the trials and seed.
        calls = []
        true_weight = verify_module.partition_weight

        def partition_weight(pi, w):
            calls.append(pi)
            return true_weight(pi, w)

        monkeypatch.setattr(verify_module, "partition_weight", partition_weight)
        seen = set()
        for trials, seed in ((1, 0), (3, 0), (1, 7), (3, 7)):
            calls.clear()
            ctx = verify_module.VerifyContext(max_n=6, trials=trials, seed=seed)
            assert verify_module.check_weight_multiplicativity(ctx) is None
            seen.add(len(calls))
        assert seen == {1067}

    def test_series_check_weights_are_pinned(self):
        # The first assignment the series check draws at seed 0, from the
        # support listed once for all its trials.
        w = verify_module._random_weights(random.Random(1), verify_module._support(8))
        assert w.items()[:3] == [
            (Partition.parse("1,3|2,4"), Fraction(-5, 2)),
            (Partition.parse("1,3,5|2,4,6"), Fraction(-1, 2)),
            (Partition.parse("1,3|2,5|4,6"), Fraction(3, 4)),
        ]
        assert hashlib.sha256(repr(w.items()).encode()).hexdigest() == (
            "a357df316040e51c53a32fb1b6ded612443285106e675e3e69b6b12e88270bba"
        )

    def test_table_check_reports_a_miscount(self, monkeypatch):
        _miscount(monkeypatch)
        problem = verify_module.check_pipelines_inverse(verify_module.VerifyContext(max_n=4))
        assert problem == (
            "enumeration disagrees with the series pipeline at n=1, class=pc: "
            "counted -1, series says 0"
        )

    def test_table_check_reports_a_non_integer_count(self, monkeypatch):
        _non_integer_count(monkeypatch)
        problem = verify_module.check_pipelines_inverse(verify_module.VerifyContext(max_n=4))
        assert problem == "count coefficient 1/2 is not an integer"

    def test_cover_check_reports_the_first_smaller_coarsening(self, monkeypatch):
        # A cover that jumps to the whole set when blocks cross and the
        # true cover has three blocks or more.  1,3|2,4|5|6 then has four
        # smaller noncrossing coarsenings; the least in lex order is named.
        true_cover = Partition.noncrossing_cover

        def cover(pi):
            least = true_cover(pi)
            if pi.is_noncrossing() or len(least.blocks) < 3:
                return least
            return Partition.whole(pi.n)

        monkeypatch.setattr(Partition, "noncrossing_cover", cover)
        problem = verify_module.check_cover_minimality(verify_module.VerifyContext(max_n=6))
        assert problem == "cover of 1,3|2,4|5|6 is not minimal: 1,2,3,4,5|6 is smaller"


def _miscount(monkeypatch):
    # Enumeration that contradicts the series pipeline.
    monkeypatch.setattr(verify_module, "count", lambda n, cls, workers=1: -1)


def _non_integer_count(monkeypatch):
    # A running difference whose purely crossing column is not integral
    # on the integer rows counts_table passes it; derive_a_from_b passes
    # Fractions, and gets the true kernel.
    difference = pipeline_module._difference_row
    monkeypatch.setattr(
        pipeline_module,
        "_difference_row",
        lambda b: [Fraction(1, 2)] * len(b) if type(b[0]) is int else difference(b),
    )


def _weights_file(*weights):
    """Write w.json into the working directory: the given weights on
    1,3|2,4 (n = 4) and 1,3,5|2,4,6 (n = 6), in that order."""

    def prepare(monkeypatch):
        entries = zip(("1,3|2,4", "1,3,5|2,4,6"), weights)
        with open("w.json", "w", encoding="utf-8") as handle:
            json.dump([{"partition": pi, "weight": q} for pi, q in entries], handle)

    return prepare


_WEIGHTED_D = ["series", "--which", "D", "--weights", "w.json", "--order"]


def _duplicate_weights(monkeypatch):
    """Write w.json with two weights on 1,3|2,4, its text spaced apart."""
    entries = [
        {"partition": "1,3|2,4", "weight": "7/2"},
        {"partition": " 1,3 | 2,4 ", "weight": "5"},
    ]
    with open("w.json", "w", encoding="utf-8") as handle:
        json.dump(entries, handle)


def _failing_check(monkeypatch):
    monkeypatch.setattr(verify_module, "CHECKS", (("always fails", lambda ctx: "broken"),))


# 0 success, 1 verification or consistency failure, 2 bad argument or input.
EXIT_CODES = [
    (["classify", "1,3|2,4"], 0, None),
    (["classify", "1,3"], 2, None),
    (["classify", "1,3|2,x"], 2, None),
    (["classify", "1" * 5000], 2, None),
    (["enumerate", "--n", "3"], 0, None),
    (["enumerate", "--n", "0"], 2, None),
    (["enumerate"], 2, None),
    (["enumerate", "--n", "13"], 2, None),
    (["count", "--n", "4", "--class", "pc"], 0, None),
    (["count", "--n", "4", "--workers", "0"], 2, None),
    (["count", "--n", "x"], 2, None),
    (["count", "--n", "13"], 2, None),
    (["table", "--max-n", "4"], 1, _non_integer_count),
    (["table", "--max-n", "0"], 2, None),
    (["table", "--max-n", "4", "--check-enum-up-to", "4"], 2, None),
    (["table", "--max-n", "4", "--check-enum-up-to", "-1"], 2, None),
    (["table", "--max-n", "351"], 2, None),
    (["table", "--max-n", "4", "extra"], 2, None),
    (["table", "--help"], 0, None),
    (["series", "--which", "A", "--order", "5"], 0, None),
    (["series", "--which", "A", "--order", "0"], 2, None),
    (["series", "--which", "A", "--order", "251"], 2, None),
    (["series", "--which", "E"], 2, None),
    # The lcm of the denominators reaching the series has at most 6 digits;
    # the weight on n = 6 reaches order 6 but not order 5.
    ([*_WEIGHTED_D, "6"], 0, _weights_file("1/999999")),
    ([*_WEIGHTED_D, "6"], 2, _weights_file("1/1000", "1/1001")),
    ([*_WEIGHTED_D, "5"], 0, _weights_file("1/1000", "1/1001")),
    # Each numerator reaching the series has at most 30 digits, whatever
    # its sign.
    ([*_WEIGHTED_D, "7"], 0, _weights_file(str(10**30 - 1), f"-{10**30 - 1}/7")),
    ([*_WEIGHTED_D, "7"], 2, _weights_file("1", str(10**30))),
    ([*_WEIGHTED_D, "8"], 2, _weights_file(f"-{10**30}/7")),
    ([*_WEIGHTED_D, "4"], 0, _weights_file("1", str(10**30))),
    # A partition takes one weight; a second entry for it is bad input.
    ([*_WEIGHTED_D, "9"], 2, _duplicate_weights),
    (["verify", "--max-n", "3", "--weighted-trials", "1"], 0, None),
    (["verify"], 1, _failing_check),
    (["verify", "--max-n", "4", "--weighted-trials", "1"], 1, _miscount),
    (["verify", "--max-n", "0"], 2, None),
    (["verify", "--max-n", "13"], 2, None),
    (["verify", "--weighted-trials", "0"], 2, None),
    (["verify", "--weighted-trials", "251"], 2, None),
    (["verify", "--workers", "2"], 2, None),
]


@pytest.mark.parametrize(
    "argv, expected, prepare",
    EXIT_CODES,
    # A word longer than 40 characters is named by its length.
    ids=[
        " ".join(a if len(a) <= 40 else f"<{len(a)} chars>" for a in argv) + f"->{code}"
        for argv, code, _ in EXIT_CODES
    ],
)
def test_exit_code_table(capsys, monkeypatch, tmp_path, argv, expected, prepare):
    monkeypatch.chdir(tmp_path)
    if prepare is not None:
        prepare(monkeypatch)
    assert invoke(capsys, *argv)[0] == expected


def test_exit_code_table_covers_every_subcommand():
    assert {argv[0] for argv, _, _ in EXIT_CODES} == set(cli_module._COMMANDS)


def test_size_limits_are_inclusive(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli_module, "_SERIES_MAX_DEN_DIGITS", 3)
    _weights_file("1/100", "1/250")(monkeypatch)  # lcm 500, product 25000
    assert invoke(capsys, *_WEIGHTED_D, "6")[0] == 0
    _weights_file("1/8", "1/125")(monkeypatch)  # lcm 1000
    code, out, err = invoke(capsys, *_WEIGHTED_D, "6")
    assert (code, out) == (2, "") and "at most 3 digits" in err
    monkeypatch.setattr(cli_module, "_SERIES_MAX_NUM_DIGITS", 3)
    _weights_file("-999/8", "999")(monkeypatch)
    assert invoke(capsys, *_WEIGHTED_D, "6")[0] == 0
    _weights_file("1", "-1000/7")(monkeypatch)
    code, out, err = invoke(capsys, *_WEIGHTED_D, "6")
    assert (code, out) == (2, "") and "numerators must have at most 3 digits" in err
    limits = (
        "_TABLE_MAX_N",
        "_SERIES_MAX_ORDER",
        "_ENUMERATE_MAX_N",
        "_COUNT_MAX_N",
        "_VERIFY_MAX_N",
        "_VERIFY_MAX_TRIALS",
    )
    for limit in limits:
        monkeypatch.setattr(cli_module, limit, 3)
    for argv in (
        ("table", "--max-n"),
        ("series", "--which", "D", "--order"),
        ("enumerate", "--n"),
        ("count", "--n"),
        ("verify", "--weighted-trials", "1", "--max-n"),
        ("verify", "--max-n", "1", "--weighted-trials"),
    ):
        assert invoke(capsys, *argv, "3")[0] == 0, argv
        code, out, err = invoke(capsys, *argv, "4")
        assert (code, out) == (2, "") and "at most 3" in err, argv


# Each size flag: the arguments before it, and its upper limit (None: none).
SIZE_FLAGS = [
    (["enumerate"], "--n", 12),
    (["count"], "--n", 12),
    (["count", "--n", "4"], "--workers", None),
    (["table"], "--max-n", 350),
    (["series", "--which", "A"], "--order", 250),
    (["verify"], "--max-n", 12),
    (["verify"], "--weighted-trials", 250),
]


def _bad_sizes():
    for before, flag, limit in SIZE_FLAGS:
        yield [*before, flag, "0"], f"argument {flag}: must be at least 1"
        yield [*before, flag, "x"], f"argument {flag}: invalid int value: 'x'"
        if limit is not None:
            yield [*before, flag, str(limit + 1)], f"argument {flag}: must be at most {limit}"


BAD_SIZES = list(_bad_sizes())


@pytest.mark.parametrize("argv, message", BAD_SIZES, ids=[" ".join(a) for a, _ in BAD_SIZES])
def test_bad_sizes_are_argparse_errors(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"purecross {argv[0]}: error: {message}\n")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "classify" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()


# Argument vectors that name a subcommand are parsed by that subcommand's
# parser alone; each must parse, print and exit as the full tree does.
PARSE_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "table"],
    ["frobnicate"],
    ["tab", "--max-n", "4"],
    ["--bogus", "table", "--max-n", "4"],
    ["--", "table", "--max-n", "4"],
    *([name, "--help"] for name in cli_module._COMMANDS),
    ["table", "-h"],
    ["table", "--he"],
    ["table", "--max-n", "4", "--help"],
    ["classify", "1,3|2,4"],
    ["classify"],
    ["classify", "1,3|2,4", "1,2"],
    ["classify", "--", "1,3|2,4"],
    ["classify", "-1"],
    ["enumerate", "--n", "3"],
    ["enumerate", "--n=3", "--class=pc", "--format", "json"],
    ["enumerate", "--n", "x"],
    ["enumerate", "--class", "bogus", "--n", "3"],
    ["enumerate"],
    ["count", "--n", "4", "--wor", "2"],
    ["count", "--n", "4", "--n", "5"],
    ["count", "--n", "4", "--cl", "co"],
    ["count", "--n"],
    ["count", "--n", "13"],
    ["table", "--max-n", "40"],
    ["table", "--max-n", "0"],
    ["table", "--max", "40"],
    ["table", "--max-n", "4", "extra"],
    ["table", "--max-n", "4", "--check-enum-up-to", "4"],
    ["table", "--max-n", "4", "--format", "csv"],
    ["table", "--max-n", "4", "--", "extra"],
    ["table", "--", "--max-n", "4"],
    ["series", "--which", "A"],
    ["series", "--which=D", "--order=9", "--weights", "w.json", "--format", "tsv"],
    ["series", "--which", "E"],
    ["series", "--order", "5"],
    ["series", "--w", "A"],
    ["verify"],
    ["verify", "--workers", "2"],
    ["verify", "--seed", "1", "--seed", "2"],
    ["verify", "-x"],
    ["verify", "--weighted", "0"],
    ["verify", "--weighted-trials", "251"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_parse_matches_the_full_tree(capsys, argv):
    try:
        full = cli_module._build_parser().parse_args(argv)
    except SystemExit as exc:
        expected = (exc.code, *capsys.readouterr())
        assert invoke(capsys, *argv) == expected
    else:
        name, args = cli_module._parse(argv)
        assert name == full.command
        assert vars(args) == {k: v for k, v in vars(full).items() if k != "command"}


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, capsys):
        calls = [
            ("table", "--max-n", "8"),
            ("enumerate", "--n", "5", "--class", "co"),
            ("series", "--which", "B", "--order", "9"),
            ("verify", "--max-n", "4", "--weighted-trials", "3", "--seed", "5"),
        ]
        for argv in calls:
            first = invoke(capsys, *argv)
            second = invoke(capsys, *argv)
            assert first == second
            assert first[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "purecross.cli", "count", "--n", "4", "--class", "pc"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_console_script_reads_sys_argv(capsys):
    argv = ["table", "--max-n", "5"]
    proc = subprocess.run(
        [sys.executable, "-m", "purecross.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == invoke(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-m", "purecross.cli", *argv, "extra"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == "purecross: error: unrecognized arguments: extra"


def _all_crossing_text(k):
    """1,k+1|2,k+2|...|k,2k: every block crosses every other."""
    return "|".join(f"{i},{k + i}" for i in range(1, k + 1))


def test_classify_all_crossing_text_in_linear_time():
    # 8,000 crossing blocks, 85 KB of text; a connectivity scan that
    # restarts at each block took about 7 s on it.
    proc = subprocess.run(
        [sys.executable, "-m", "purecross.cli", "classify", _all_crossing_text(8000)],
        capture_output=True,
        timeout=5,
        check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    digest = hashlib.sha256(proc.stdout).hexdigest()
    assert digest == "aa2ecbe757b8d72c20b4e512e32c4166767ae94746e311c92e2877ec12f89735"


def test_weights_file_of_all_crossing_partition_in_linear_time(tmp_path):
    # 20,000 crossing blocks, a 229 KB file: reading it checks the
    # partition is purely crossing, which took about 15 s with that scan.
    path = tmp_path / "w.json"
    path.write_text(json.dumps([{"partition": _all_crossing_text(20000), "weight": "2"}]))
    proc = subprocess.run(
        [sys.executable, "-m", "purecross.cli", "series", "--which", "A", "--order", "4",
         "--weights", str(path)],
        capture_output=True,
        text=True,
        timeout=5,
        check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "0 + 0*x + 0*x^2 + 0*x^3 + 1*x^4\n", ""
    )


def test_verify_is_imported_on_first_use():
    # The package and its CLI load without the invariant suite, and
    # run_checks still resolves as an attribute and through both imports.
    script = (
        "import sys, purecross, purecross.cli\n"
        "print('purecross.verify' in sys.modules)\n"
        "from purecross import run_checks\n"
        "namespace = {}\n"
        "exec('from purecross import *', namespace)\n"
        "print(run_checks is purecross.run_checks is namespace['run_checks']"
        " is sys.modules['purecross.verify'].run_checks)\n"
        "print(hasattr(purecross, 'no_such_name'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=False
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\nTrue\nFalse\n", "")


def test_cli_import_leaves_out_dataclasses_and_json():
    # The records are plain slotted classes, so no import pulls in
    # dataclasses or what it loads; json comes with the commands that
    # write or read it.
    script = (
        "import sys, purecross.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'json')"
        " if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=False
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_closed_stdout_exits_141_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "purecross.cli", "enumerate", "--n", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141
    assert b"Traceback" not in err
