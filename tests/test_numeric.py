"""`stable_sum` and `stable_row_sums` against `math.fsum`: equal results on
every input, the same exceptions, and byte-identical CLI outputs when fsum
does all the summing."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import daflow._numeric as numeric
from daflow._numeric import (
    BINNED_MAX_MAGNITUDE,
    BINNED_MIN_ENTRIES,
    ROW_BINNED_MIN_ENTRIES,
    ROW_BINNED_PASS_ENTRIES,
    stable_row_sums,
    stable_sum,
)
from daflow.cli import main

EDGE_SIZES = (BINNED_MIN_ENTRIES - 1, BINNED_MIN_ENTRIES, BINNED_MIN_ENTRIES + 1)
# row lengths on both sides of each length at which stable_row_sums, or the
# stable_sum it hands long rows to, routes differently; the row counts drawn
# with them cross the stack size BINNED_MIN_ENTRIES and the pass size
ROW_EDGES = tuple(
    sorted(
        b + d
        for b in (ROW_BINNED_MIN_ENTRIES, BINNED_MIN_ENTRIES, ROW_BINNED_PASS_ENTRIES // 2)
        for d in (-1, 0, 1)
    )
)


def load_bench_layers():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# its fsum_body is the summation stable_sum must reproduce: fsum over the
# entries in row-major order, as stable_sum did before binning
bench = load_bench_layers()


def assert_matches_fsum(a) -> None:
    try:
        expected = bench.fsum_body(a)
    except (ValueError, OverflowError) as e:
        with pytest.raises(type(e)):
            stable_sum(a)
        return
    got = stable_sum(a)
    assert type(got) is float
    if math.isnan(expected):
        assert math.isnan(got)
        return
    assert got == expected, (got, expected)
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def assert_rows_match_fsum(a: np.ndarray) -> None:
    """stable_row_sums(a) is fsum over each row, or raises the exception of
    the first row whose fsum raises."""
    expected = []
    for row in a.tolist():
        try:
            expected.append(math.fsum(row))
        except (ValueError, OverflowError) as e:
            with pytest.raises(type(e)):
                stable_row_sums(a)
            return
    got = stable_row_sums(a)
    assert len(got) == len(expected)
    for g, x in zip(got, expected):
        assert type(g) is float
        if math.isnan(x):
            assert math.isnan(g)
        else:
            assert g == x and math.copysign(1.0, g) == math.copysign(1.0, x), (g, x)


def pad(values, size: int) -> np.ndarray:
    """`values` followed by zeros, `size` entries in all."""
    out = np.zeros(size)
    out[: len(values)] = values
    return out


class _FsumCounter:
    """Stands in for the `math` module of `daflow._numeric`, recording how
    many values each `fsum` call receives."""

    def __init__(self) -> None:
        self.lengths: list[int] = []

    def fsum(self, values):
        self.lengths.append(len(values))
        return math.fsum(values)


@st.composite
def spread_arrays(draw) -> np.ndarray:
    """Arrays at and above the binned size threshold, with seeded mantissas
    over a drawn exponent window anywhere from 2**-1074 to 2**989, in one of
    four shapes: plain, cancelling to exactly 0.0, summing to a half-way
    tie, or carrying hypothesis-chosen floats at random places."""
    size = draw(st.sampled_from(EDGE_SIZES) | st.integers(BINNED_MIN_ENTRIES, 4 * BINNED_MIN_ENTRIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1074, 989))
    high = draw(st.integers(low, min(low + draw(st.integers(0, 2100)), 989)))
    kind = draw(st.sampled_from(["plain", "cancel", "tie", "specials"]))
    exps = rng.integers(low, high + 1, size)
    a = np.ldexp(rng.uniform(-1.0, 1.0, size), exps)
    if kind == "cancel":
        half = a[: size // 2]
        a = np.concatenate([half, -half, np.zeros(size % 2)])
        rng.shuffle(a)
    elif kind == "tie":
        # 1 + u/2 (u the unit in the last place of 1) in many small pieces,
        # optionally nudged by the smallest subnormal off the tie
        pieces = draw(st.integers(1, size - 1))
        a = pad([1.0] + [2.0**-53 / pieces] * pieces, size)
        a[-1] += draw(st.sampled_from([0.0, 5e-324, -5e-324]))
        rng.shuffle(a)
    elif kind == "specials":
        finite = st.floats(
            min_value=-np.nextafter(BINNED_MAX_MAGNITUDE, 0.0),
            max_value=np.nextafter(BINNED_MAX_MAGNITUDE, 0.0),
            allow_nan=False,
        )
        for value in draw(st.lists(finite, min_size=1, max_size=8)):
            a[rng.integers(size)] = value
    return a


class TestStableSumMatchesFsum:
    @settings(max_examples=300, deadline=None)
    @given(a=spread_arrays())
    def test_equal_to_fsum(self, a):
        assert_matches_fsum(a)

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_threshold_edges(self, size):
        rng = np.random.default_rng(size)
        assert_matches_fsum(rng.random(size) / size)
        assert_matches_fsum(rng.standard_normal(size) * 2.0 ** rng.integers(-1074, 990, size))

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_cancellation_to_exact_zero(self, size):
        rng = np.random.default_rng(size)
        half = rng.standard_normal(size // 2) * 2.0 ** rng.integers(-200, 200, size // 2)
        a = np.concatenate([half, -half[::-1], np.zeros(size % 2)])
        assert stable_sum(a) == 0.0 and math.copysign(1.0, stable_sum(a)) == 1.0
        assert_matches_fsum(a)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.0, 2.0**-53], 1.0),
            ([1.0, 2.0**-53, 5e-324], 1.0 + 2.0**-52),
            ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
            ([-1.0, -(2.0**-53)], -1.0),
            ([2.0**988, 2.0**935], 2.0**988),
            ([2.0**988, 2.0**935, 2.0**-1074], 2.0**988 + 2.0**936),
        ],
    )
    def test_half_way_ties_round_to_even(self, values, expected):
        for size in EDGE_SIZES:
            a = pad(values, size)
            assert stable_sum(a) == expected
            assert_matches_fsum(a)

    def test_subnormals(self):
        for size in EDGE_SIZES:
            assert stable_sum(np.full(size, 5e-324)) == size * 5e-324
            rng = np.random.default_rng(size)
            assert_matches_fsum(np.ldexp(rng.integers(-2**20, 2**20, size).astype(float), -1074))
            assert_matches_fsum(np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, -1020, size)))

    def test_all_zero_and_single_entry(self):
        for size in EDGE_SIZES:
            assert_matches_fsum(np.zeros(size))
            assert_matches_fsum(np.full(size, -0.0))
            for value in (1.5, -(2.0**-1074), 2.0**989):
                assert_matches_fsum(pad([value], size))
        assert_matches_fsum(np.array([]))
        assert_matches_fsum(np.array(3.25))
        assert_matches_fsum(np.array([7.0]))

    def test_non_contiguous_two_dimensional(self):
        rng = np.random.default_rng(3)
        shape = (2 * BINNED_MIN_ENTRIES, 7)
        base = rng.standard_normal(shape) * 2.0 ** rng.integers(-60, 60, shape)
        for view in (base[::2, ::3], base.T, base[1:, 1:], np.asfortranarray(base)):
            assert view.size >= BINNED_MIN_ENTRIES
            assert_matches_fsum(view)
        assert_matches_fsum(base[: BINNED_MIN_ENTRIES // 2, :].astype(np.float32))

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_non_finite_and_huge_entries(self, size):
        assert math.isnan(stable_sum(pad([1.0, math.nan], size)))
        assert stable_sum(pad([1.0, math.inf], size)) == math.inf
        assert stable_sum(pad([-math.inf, 3.0], size)) == -math.inf
        for values in (
            [math.nan],
            [1.0, math.inf],
            [math.inf, math.nan],
            [math.inf, -math.inf],
            [-math.inf, 2.0, math.inf],
            [2.0**1023, 2.0**1023, -(2.0**1023)],
            [2.0**1023, -(2.0**1023), 2.0**1023],
            [BINNED_MAX_MAGNITUDE, 1.0],
            [-BINNED_MAX_MAGNITUDE, 2.0**-1074],
            [1e308] * 3,
            [2.0**1022] * 4,
            [2.0**1022] * 3 + [-(2.0**1000)],
        ):
            assert_matches_fsum(pad(values, size))
        with pytest.raises(ValueError):
            stable_sum(pad([math.inf, -math.inf], size))
        with pytest.raises(OverflowError):
            stable_sum(pad([2.0**1023, 2.0**1023, -(2.0**1023)], size))
        with pytest.raises(OverflowError):
            stable_sum(pad([2.0**1022] * 4, size))


class TestRouting:
    """Which inputs the binned sum takes: fsum then sees a few bin totals
    instead of every entry."""

    def sums_seen(self, monkeypatch, a) -> list[int]:
        counter = _FsumCounter()
        with monkeypatch.context() as m:
            m.setattr("daflow._numeric.math", counter)
            stable_sum(a)
        return counter.lengths

    def test_small_arrays_go_to_fsum(self, monkeypatch):
        size = BINNED_MIN_ENTRIES - 1
        assert self.sums_seen(monkeypatch, np.ones(size)) == [size]

    @pytest.mark.parametrize("size", [BINNED_MIN_ENTRIES, 20_000])
    def test_finite_arrays_are_binned(self, monkeypatch, size):
        rng = np.random.default_rng(size)
        (seen,) = self.sums_seen(monkeypatch, rng.random(size))
        assert seen < 200

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, BINNED_MAX_MAGNITUDE])
    def test_non_finite_or_huge_arrays_go_to_fsum(self, monkeypatch, value):
        a = pad([1.0, value], BINNED_MIN_ENTRIES + 1)
        try:
            lengths = self.sums_seen(monkeypatch, a)
        except (ValueError, OverflowError):
            return
        assert lengths == [a.size]

    def test_arrays_past_the_exactness_bound_go_to_fsum(self, monkeypatch):
        # a real array of 2**26 entries takes 512 MiB, so lower the bound
        monkeypatch.setattr(numeric, "BINNED_MAX_ENTRIES", BINNED_MIN_ENTRIES + 2)
        assert self.sums_seen(monkeypatch, np.ones(BINNED_MIN_ENTRIES + 1)) != [BINNED_MIN_ENTRIES + 1]
        assert self.sums_seen(monkeypatch, np.ones(BINNED_MIN_ENTRIES + 2)) == [BINNED_MIN_ENTRIES + 2]


ROW_SPECIALS = (math.nan, math.inf, -math.inf, BINNED_MAX_MAGNITUDE, -(2.0**1000), 2.0**1023)


@st.composite
def row_stacks(draw) -> np.ndarray:
    """Stacks of 1 up to one pass plus two rows, at and around the routing
    lengths, with seeded mantissas over a drawn exponent window. Each row is
    plain, cancels to exactly 0.0, is subnormal, or carries NaN, an infinity
    or a magnitude of 2**990 or more at random places."""
    n = draw(st.sampled_from(ROW_EDGES) | st.integers(1, 3 * ROW_BINNED_MIN_ENTRIES))
    rows = draw(st.integers(1, ROW_BINNED_PASS_ENTRIES // n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1074, 989))
    high = draw(st.integers(low, min(low + draw(st.integers(0, 2100)), 989)))
    a = np.ldexp(rng.uniform(-1.0, 1.0, (rows, n)), rng.integers(low, high + 1, (rows, n)))
    mix = draw(st.sampled_from([(1, 0, 0, 0), (4, 2, 2, 1), (1, 1, 1, 1), (0, 0, 0, 1)]))
    kinds = rng.choice(4, size=rows, p=np.array(mix) / sum(mix))
    for r, kind in enumerate(kinds):
        if kind == 1:
            half = a[r, : n // 2]
            row = np.concatenate([half, -half, np.zeros(n % 2)])
            rng.shuffle(row)
            a[r] = row
        elif kind == 2:
            a[r] = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, -1020, n))
        elif kind == 3:
            for _ in range(rng.integers(1, 3)):
                a[r, rng.integers(n)] = ROW_SPECIALS[rng.integers(len(ROW_SPECIALS))]
    return a


class TestStableRowSums:
    @settings(max_examples=300, deadline=None)
    @given(a=row_stacks())
    def test_equal_to_fsum_per_row(self, a):
        assert_rows_match_fsum(a)

    @pytest.mark.parametrize("n", ROW_EDGES)
    def test_routing_edges(self, n):
        rng = np.random.default_rng(n)
        for rows in (1, 2, BINNED_MIN_ENTRIES // n + 1, ROW_BINNED_PASS_ENTRIES // n + 1):
            assert_rows_match_fsum(rng.random((rows, n)) / n)
            assert_rows_match_fsum(rng.standard_normal((rows, n)) * 2.0 ** rng.integers(-1074, 990, (rows, n)))

    def test_cancellation_subnormals_and_zeros(self):
        rng = np.random.default_rng(5)
        n = 2 * ROW_BINNED_MIN_ENTRIES
        half = rng.standard_normal((6, n // 2)) * 2.0 ** rng.integers(-200, 200, (6, n // 2))
        a = np.concatenate([half, -half[:, ::-1]], axis=1)
        a[1] = np.ldexp(rng.integers(-2**20, 2**20, n).astype(float), -1074)
        a[2] = 5e-324
        a[3] = -0.0
        a[4] = 0.0
        assert stable_row_sums(a)[0] == 0.0
        assert stable_row_sums(a)[2] == n * 5e-324
        assert_rows_match_fsum(a)

    def test_special_rows_raise_in_row_order(self):
        n = 2 * ROW_BINNED_MIN_ENTRIES
        a = np.full((8, n), 0.5)
        a[5, :2] = [math.inf, -math.inf]
        a[2, :3] = [2.0**1023, 2.0**1023, -(2.0**1023)]
        with pytest.raises(OverflowError):
            stable_row_sums(a)
        a[2] = 0.5
        with pytest.raises(ValueError):
            stable_row_sums(a)
        a[5, 1] = 1.0
        a[6, 0] = math.nan
        got = stable_row_sums(a)
        assert got[5] == math.inf and math.isnan(got[6])
        assert got[:5] == [n * 0.5] * 5 and got[7] == n * 0.5

    def test_non_contiguous_and_float32(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((12, 3 * ROW_BINNED_MIN_ENTRIES)) * 2.0 ** rng.integers(-60, 60, (12, 384))
        for view in (base[::2, ::3], base[:, 1:], np.asfortranarray(base), base.astype(np.float32)):
            assert_rows_match_fsum(view)
        assert stable_row_sums(np.zeros((0, 5))) == []
        assert stable_row_sums(np.zeros((3, 0))) == [0.0] * 3


class TestRowRouting:
    """Which rows the shared binning takes: each binned row's fsum sees a few
    bin totals, a row summed by fsum sees all its entries."""

    def sums_seen(self, monkeypatch, a) -> list[int]:
        counter = _FsumCounter()
        with monkeypatch.context() as m:
            m.setattr("daflow._numeric.math", counter)
            stable_row_sums(a)
        return counter.lengths

    def test_single_row_goes_to_stable_sum(self, monkeypatch):
        seen = []
        monkeypatch.setattr(numeric, "stable_sum", lambda row: seen.append(row.copy()) or 0.0)
        a = np.random.default_rng(1).random((1, 20_000))
        assert stable_row_sums(a) == [0.0]
        assert len(seen) == 1 and np.array_equal(seen[0], a[0])
        stable_row_sums(np.ones((2, BINNED_MIN_ENTRIES)))
        assert len(seen) == 1

    def test_rows_too_long_to_share_a_pass_go_to_stable_sum(self, monkeypatch):
        seen = []
        monkeypatch.setattr(numeric, "stable_sum", lambda row: seen.append(row.size) or 0.0)
        n = ROW_BINNED_PASS_ENTRIES // 2 + 1
        assert stable_row_sums(np.ones((3, n))) == [0.0] * 3 and seen == [n] * 3
        stable_row_sums(np.ones((3, n - 1)))
        assert seen == [n] * 3

    def test_short_rows_and_small_stacks_go_to_fsum(self, monkeypatch):
        n = ROW_BINNED_MIN_ENTRIES - 1
        assert self.sums_seen(monkeypatch, np.ones((40, n))) == [n] * 40
        n = ROW_BINNED_MIN_ENTRIES
        rows = BINNED_MIN_ENTRIES // n - 1
        assert self.sums_seen(monkeypatch, np.ones((rows, n))) == [n] * rows

    @pytest.mark.parametrize("rows", [BINNED_MIN_ENTRIES // ROW_BINNED_MIN_ENTRIES, 3 * ROW_BINNED_PASS_ENTRIES // 1000])
    def test_long_rows_are_binned(self, monkeypatch, rows):
        a = np.random.default_rng(rows).random((rows, 1000))
        seen = self.sums_seen(monkeypatch, a)
        assert len(seen) == rows and max(seen) < 200

    @pytest.mark.parametrize("value", ROW_SPECIALS)
    def test_only_a_special_row_leaves_the_binned_pass(self, monkeypatch, value):
        n = 2 * ROW_BINNED_MIN_ENTRIES
        a = np.random.default_rng(2).random((10, n))
        a[3, 7] = value
        seen = sorted(self.sums_seen(monkeypatch, a))
        assert len(seen) == 10 and seen[-1] == n and seen[-2] < 200


def cli_outputs(workdir, monkeypatch, capsys) -> dict:
    """Every file, stdout, stderr and exit code of gen, verify with balance
    and reconstruction at 60x60, 90x90 and 120x120, and run at 50x50, run in
    `workdir` with relative paths."""
    monkeypatch.chdir(workdir)
    out = {}
    for n, seed in ((60, 11), (90, 14), (120, 12), (50, 13)):
        target = f"t{n}.json"
        out[f"gen{n}"] = main(["gen", "--nx", str(n), "--ny", str(n), "--seed", str(seed), "--out", target])
        if n == 50:
            for fmt in ("csv", "json"):
                prefix = f"r{n}"
                out[f"run{n}{fmt}"] = main(
                    ["run", "--target", target, "--p0", "degenerate:0,0", "--format", fmt,
                     "--out-prefix", prefix]
                )
        else:
            out[f"verify{n}"] = main(
                ["verify", "--target", target, "--checks", "balance,reconstruction",
                 "--out-prefix", f"v{n}"]
            )
        out[f"std{n}"] = capsys.readouterr()
    for path in sorted(workdir.iterdir()):
        out[path.name] = path.read_bytes()
    return out


class TestDifferentialOutputs:
    def test_cli_outputs_match_the_fsum_body(self, tmp_path, monkeypatch, capsys):
        for side in ("binned", "fsum"):
            (tmp_path / side).mkdir()
        binned = cli_outputs(tmp_path / "binned", monkeypatch, capsys)
        # every module that imported stable_sum gets the old fsum body
        sizes = []

        def fsum_body(a):
            sizes.append(np.size(a))
            return bench.fsum_body(a)

        with bench.stable_sum_replaced(fsum_body) as users:
            reference = cli_outputs(tmp_path / "fsum", monkeypatch, capsys)
        expected = {"daflow._numeric", "daflow.dist", "daflow.engine", "daflow.metrics", "daflow.diagnostics"}
        assert expected <= set(users)
        assert numeric.stable_sum is stable_sum
        assert max(sizes) == 120 * 120 and sum(s >= BINNED_MIN_ENTRIES for s in sizes) > 500
        assert binned.keys() == reference.keys()
        for key in binned:
            assert binned[key] == reference[key], key
        assert all(binned[f"verify{n}"] == 0 for n in (60, 90, 120))
        assert binned["run50csv"] == 0


def test_layer_timing_script_writes_its_document(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SUM_SIZES", (64, 2048))
    monkeypatch.setattr(bench, "ROW_LENGTHS", (128,))
    monkeypatch.setattr(bench, "RECONSTRUCTION_SIDES", (6,))
    monkeypatch.setattr(bench, "RUN_CASES", ((5, 1.0, 6), (30, 1.0, 3)))
    monkeypatch.setattr(bench, "DRAWS_CSV_CASES", ((3, 2, 2),))
    monkeypatch.setattr(bench, "MIN_TIME", 0.001)
    monkeypatch.setattr(bench, "REPEATS", 1)
    out = tmp_path / "bench.json"
    doc = bench.main(["--out", str(out)])
    assert json.loads(out.read_text()) == doc
    assert [(r["entries"], r["data"]) for r in doc["stable_sum"]] == [
        (64, "pmf"), (64, "terms"), (2048, "pmf"), (2048, "terms")
    ]
    assert doc["threshold"]["BINNED_MIN_ENTRIES"] == BINNED_MIN_ENTRIES
    assert [(r["rows"], r["entries"], r["row_threshold"]) for r in doc["stable_row_sums"]] == [
        (16, 128, 1), (bench.block_rows(5), 25, ROW_BINNED_MIN_ENTRIES), (bench.block_rows(30), 900, ROW_BINNED_MIN_ENTRIES)
    ]
    assert [r["n"] for r in doc["reconstruction_check"]] == [6]
    assert [(r["n"], r["half_steps"]) for r in doc["run"]] == [(5, 6), (30, 3)]
    assert [(r["replicas"], r["half_steps"], r["n"], r["rows"]) for r in doc["draws_csv"]] == [(3, 2, 2, 9)]
    assert numeric.stable_sum is stable_sum and numeric.BINNED_MIN_ENTRIES == BINNED_MIN_ENTRIES
    assert numeric.ROW_BINNED_MIN_ENTRIES == ROW_BINNED_MIN_ENTRIES
    assert bench.engine._BLOCK_VALUES > 0


def test_verify_layer_checks_and_times_both_exports():
    [row] = bench.time_verify(((4, 1.0),), 0.001, 1)
    assert (row["n"], row["beta"]) == (4, 1.0)
    # every pair of iterate times 1..T
    assert row["reports"] == row["half_steps"] * (row["half_steps"] - 1) // 2
    assert row["bytes"] > 0
    for key in ("sweep_blocks", "sweep_materialized", "export_dicts", "export_blocks"):
        assert row[f"{key}_us_per_report"] > 0
