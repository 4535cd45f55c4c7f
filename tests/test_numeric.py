"""`stable_sum` against `math.fsum`: equal results on every input, the same
exceptions, and byte-identical CLI outputs when either one does the summing."""

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
from daflow._numeric import BINNED_MAX_MAGNITUDE, BINNED_MIN_ENTRIES, stable_sum
from daflow.cli import main

EDGE_SIZES = (BINNED_MIN_ENTRIES - 1, BINNED_MIN_ENTRIES, BINNED_MIN_ENTRIES + 1)


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


def cli_outputs(workdir, monkeypatch, capsys) -> dict:
    """Every file, stdout, stderr and exit code of gen, verify with balance
    and reconstruction at 60x60 and 120x120, and run at 50x50, run in
    `workdir` with relative paths."""
    monkeypatch.chdir(workdir)
    out = {}
    for n, seed in ((60, 11), (120, 12), (50, 13)):
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
        assert all(binned[f"verify{n}"] == 0 for n in (60, 120))
        assert binned["run50csv"] == 0


def test_layer_timing_script_writes_its_document(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "SUM_SIZES", (64, 2048))
    monkeypatch.setattr(bench, "RECONSTRUCTION_SIDES", (6,))
    monkeypatch.setattr(bench, "MIN_TIME", 0.001)
    monkeypatch.setattr(bench, "REPEATS", 1)
    out = tmp_path / "bench.json"
    doc = bench.main(["--out", str(out)])
    assert json.loads(out.read_text()) == doc
    assert [(r["entries"], r["data"]) for r in doc["stable_sum"]] == [
        (64, "pmf"), (64, "terms"), (2048, "pmf"), (2048, "terms")
    ]
    assert doc["threshold"]["BINNED_MIN_ENTRIES"] == BINNED_MIN_ENTRIES
    assert [r["n"] for r in doc["reconstruction_check"]] == [6]
    assert numeric.stable_sum is stable_sum and numeric.BINNED_MIN_ENTRIES == BINNED_MIN_ENTRIES
