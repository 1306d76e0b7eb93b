"""Window-bounded trace synthesis equals full synthesis followed by the clip.

``TraceSpec.build``/``build_bins`` pass ``duration_s`` down to the
synthetic generators so that a short window costs O(window).  These
tests pin that the bounded result is exactly what the full trace gives
after the existing clip — names, arrivals, token counts, and per-type
dicts including key order — and that binning a request-level spec ends
the horizon at ``duration_s``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Scenario, TraceSpec, run_grid, run_scenario, sweep
from repro.api.scenario import _clip_bins
from repro.workload.synthetic import (
    SECONDS_PER_WEEK,
    SyntheticTraceGenerator,
    _round_tokens,
    get_service_profile,
    make_one_hour_trace,
    make_week_trace,
)
from repro.workload.request import Request
from repro.workload.traces import Trace, bin_trace

services = st.sampled_from(("conversation", "coding"))
seeds = st.integers(min_value=0, max_value=10_000)
# Low scales leave runs of empty bins, so a window can end where every
# later bin is empty; high scales fill every bin.
rate_scales = st.sampled_from((0.002, 0.05, 0.5, 3.0))


def _clip_requests(trace, duration_s):
    """``TraceSpec.build``'s rule: slice iff the window ends before the last arrival."""
    if duration_s < trace.duration:
        return trace.slice(0.0, duration_s)
    return trace


def _request_rows(trace):
    return [
        (r.arrival_time, r.input_tokens, r.output_tokens, r.service, r.slo_scale)
        for r in trace.requests
    ]


def _bin_rows(bins):
    return [
        (
            b.start_time,
            b.duration,
            b.request_count,
            b.input_tokens,
            b.output_tokens,
            list(b.count_by_type.items()),
            list(b.tokens_by_type.items()),
        )
        for b in bins
    ]


class TestWindowedRequests:
    @settings(max_examples=40, deadline=None)
    @given(
        service=services,
        seed=seeds,
        rate_scale=rate_scales,
        duration_s=st.sampled_from((60.0, 95.0, 600.0)),
        until_s=st.floats(min_value=0.0, max_value=800.0),
    )
    def test_bounded_generation_equals_clipped_full_generation(
        self, service, seed, rate_scale, duration_s, until_s
    ):
        profile = get_service_profile(service)

        def generate(**bound):
            generator = SyntheticTraceGenerator(profile, seed=seed, rate_scale=rate_scale)
            return generator.generate_requests(duration_s, start_offset_s=86400.0, **bound)

        full = generate()
        bounded = generate(until_s=until_s)
        # A prefix of the full trace, drawn from the same stream ...
        assert _request_rows(bounded) == _request_rows(full)[: len(bounded)]
        # ... that clips to exactly the same trace.
        want = _clip_requests(full, until_s)
        got = _clip_requests(bounded, until_s)
        assert got.name == want.name
        assert _request_rows(got) == _request_rows(want)
        assert all(type(r.input_tokens) is int for r in got.requests)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_window_ending_after_the_last_arrival_of_its_bin(self, seed):
        # The bin holding the window's end draws no arrival past it, so
        # generation must go on to the next non-empty bin: that is what
        # tells the clip whether the full trace extends past the window.
        generator = SyntheticTraceGenerator(get_service_profile("coding"), seed=seed, rate_scale=1.0)
        full = generator.generate_requests(300.0)
        arrivals = [r.arrival_time for r in full.requests]
        ends = [
            (arrival + 10.0 * (arrival // 10.0 + 1.0)) / 2.0
            for arrival, following in zip(arrivals, arrivals[1:])
            if arrival // 10.0 != following // 10.0
        ]
        assert len(ends) > 5
        for until_s in ends:
            bounded = SyntheticTraceGenerator(
                get_service_profile("coding"), seed=seed, rate_scale=1.0
            ).generate_requests(300.0, until_s=until_s)
            want = _clip_requests(full, until_s)
            got = _clip_requests(bounded, until_s)
            assert (got.name, _request_rows(got)) == (want.name, _request_rows(want))

    @settings(max_examples=15, deadline=None)
    @given(
        service=services,
        seed=seeds,
        rate_scale=st.sampled_from((0.002, 0.3)),
        duration_s=st.one_of(
            st.floats(min_value=0.0, max_value=3600.0),
            st.sampled_from((0.0, 10.0, 330.0, 3590.0, 3600.0, 5000.0)),
        ),
    )
    def test_spec_build_matches_clipped_full_hour(self, service, seed, rate_scale, duration_s):
        full = make_one_hour_trace(service, seed=seed, rate_scale=rate_scale)
        want = _clip_requests(full, duration_s)
        got = TraceSpec(
            kind="one_hour",
            service=service,
            seed=seed,
            rate_scale=rate_scale,
            duration_s=duration_s,
        ).build()
        assert got.name == want.name
        assert _request_rows(got) == _request_rows(want)


class TestWindowedBins:
    @settings(max_examples=30, deadline=None)
    @given(
        service=services,
        seed=seeds,
        rate_scale=st.sampled_from((0.0005, 1.0, 40.0)),
        bin_seconds=st.sampled_from((300.0, 1800.0, 3600.0)),
        duration_s=st.floats(min_value=0.0, max_value=30000.0),
    )
    def test_shorter_generation_is_a_prefix(
        self, service, seed, rate_scale, bin_seconds, duration_s
    ):
        profile = get_service_profile(service)

        def generate(duration_s):
            generator = SyntheticTraceGenerator(profile, seed=seed, rate_scale=rate_scale)
            return generator.generate_bins(duration_s, bin_seconds=bin_seconds)

        full = generate(21600.0)
        shorter = generate(min(21600.0, duration_s))
        assert _bin_rows(shorter) == _bin_rows(full)[: len(shorter)]

    @settings(max_examples=10, deadline=None)
    @given(
        service=services,
        seed=seeds,
        duration_s=st.one_of(
            st.floats(min_value=0.0, max_value=SECONDS_PER_WEEK),
            st.sampled_from((43200.0, 45000.5, SECONDS_PER_WEEK, 2 * SECONDS_PER_WEEK)),
        ),
    )
    def test_spec_build_bins_matches_clipped_full_week(self, service, seed, duration_s):
        full = make_week_trace(service, seed=seed, rate_scale=40.0, bin_seconds=3600.0)
        spec = TraceSpec(
            kind="week", service=service, seed=seed, rate_scale=40.0, duration_s=duration_s
        )
        assert _bin_rows(spec.build_bins(3600.0)) == _bin_rows(_clip_bins(full, duration_s))

    @pytest.mark.parametrize(
        "bin_seconds, duration_s",
        [
            # until_s / bin_seconds underflows to 0, yet the clip keeps bin 0.
            (3600.0, 5e-324),
            (3600.0, 7200.0),
            (3600.0, math.nextafter(7200.0, math.inf)),
            # 19 * 333.3 rounds so that ceil(until_s / bin_seconds) is 19,
            # yet bin 19 starts before until_s.
            (333.3, 19 * 333.3),
            (333.3, math.nextafter(19 * 333.3, math.inf)),
        ],
    )
    def test_window_at_a_bin_edge_matches_clipped_full_week(self, bin_seconds, duration_s):
        full = make_week_trace("coding", seed=2, rate_scale=40.0, bin_seconds=bin_seconds)
        spec = TraceSpec(kind="week", service="coding", seed=2, rate_scale=40.0, duration_s=duration_s)
        got = spec.build_bins(bin_seconds)
        assert _bin_rows(got) == _bin_rows(_clip_bins(full, duration_s))


class TestTokenRounding:
    def test_matches_builtin_round_at_ties_and_clip_bounds(self):
        raw = np.array(
            [0.0, 0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 3.4999999, 4.5000001,
             2047.5, 2048.5, 2049.5, 8191.5, 8192.5, 8193.5, 1e12]
        )
        for floor, cap in ((4, 8192), (2, 2048)):
            want = [int(min(cap, max(floor, round(value)))) for value in raw.tolist()]
            got = _round_tokens(raw, floor, cap)
            assert got == want
            assert all(type(value) is int for value in got)
        # The ties themselves round half to even, like round().
        assert _round_tokens(np.array([4.5, 5.5, 6.5]), 0, 100) == [4, 6, 6]

    def test_clip_bounds_are_reachable(self):
        assert _round_tokens(np.array([0.1, 1e9]), 4, 8192) == [4, 8192]


class TestBinnedWindowHorizon:
    """Binning a request-level spec ends the horizon at ``duration_s``."""

    SPEC = TraceSpec(kind="one_hour", rate_scale=0.5, duration_s=330.0)

    def test_last_bin_cut_to_window_without_rescaling(self):
        bins = self.SPEC.build_bins(300.0)
        uncut = bin_trace(self.SPEC.build(), 300.0)
        assert [b.start_time for b in bins] == [0.0, 300.0]
        assert [b.duration for b in bins] == [300.0, 30.0]
        # Aggregates are those of the clipped requests, not rescaled.
        assert _bin_rows(bins)[0] == _bin_rows(uncut)[0]
        assert _bin_rows(bins)[1][2:] == _bin_rows(uncut)[1][2:]

    @pytest.mark.parametrize("duration_s", [None, 600.0, 5000.0])
    def test_horizon_untouched_when_window_ends_on_or_after_the_last_bin(self, duration_s):
        spec = self.SPEC.with_(duration_s=duration_s)
        assert _bin_rows(spec.build_bins(300.0)) == _bin_rows(bin_trace(spec.build(), 300.0))

    def test_zero_duration_poisson_keeps_its_default_length(self):
        # duration_s=0 builds poisson's default 1800 s trace: no cut.
        spec = TraceSpec(kind="poisson", duration_s=0.0, seed=3)
        bins = spec.build_bins(300.0)
        assert _bin_rows(bins) == _bin_rows(bin_trace(spec.build(), 300.0))
        assert all(b.duration == 300.0 for b in bins)

    def test_fluid_run_reports_the_window(self):
        summary = run_scenario(Scenario(policy="SinglePool", trace=self.SPEC, backend="fluid"))
        assert summary.duration_s == pytest.approx(330.0)

    def test_shared_trace_gives_the_same_fluid_run(self):
        scenario = Scenario(policy="SinglePool", trace=self.SPEC, backend="fluid")
        built = run_scenario(scenario)
        shared = run_scenario(scenario, trace=scenario.build_trace())
        assert shared.duration_s == pytest.approx(330.0)
        assert shared.energy_kwh == built.energy_kwh

    def test_grid_fluid_path_shares_the_cut(self):
        grid = sweep(
            policies=("SinglePool",),
            traces=(self.SPEC,),
            backends=("event", "fluid"),
        )
        results = run_grid(grid, lean=True)
        fluid = results[grid[1].key]
        assert fluid.duration_s == pytest.approx(330.0)
        assert fluid.energy_kwh == run_scenario(grid[1]).energy_kwh


class TestBinTraceHorizon:
    TRACE = make_one_hour_trace("coding", seed=5, rate_scale=0.05).slice(0.0, 700.0)

    def test_horizon_cuts_the_bin_holding_it(self):
        bins = bin_trace(self.TRACE, 300.0, horizon=450.0)
        assert [(b.start_time, b.duration) for b in bins] == [(0.0, 300.0), (300.0, 150.0)]
        assert _bin_rows(bins)[0] == _bin_rows(bin_trace(self.TRACE, 300.0))[0]

    @pytest.mark.parametrize("horizon", [900.0, 5000.0])
    def test_horizon_past_the_last_bin_changes_nothing(self, horizon):
        assert _bin_rows(bin_trace(self.TRACE, 300.0, horizon=horizon)) == _bin_rows(
            bin_trace(self.TRACE, 300.0)
        )

    @pytest.mark.parametrize(
        "bin_seconds, horizon",
        [(300.0, 5e-324), (333.3, 19 * 333.3), (333.3, math.nextafter(19 * 333.3, math.inf))],
    )
    def test_horizon_at_a_bin_edge_keeps_the_bins_starting_before_it(self, bin_seconds, horizon):
        trace = Trace(name="edge", requests=[Request(10.0, 100, 10), Request(7000.0, 100, 10)])
        bins = bin_trace(trace, bin_seconds, horizon=horizon)
        starts = [i * bin_seconds for i in range(30) if i * bin_seconds < horizon]
        assert [b.start_time for b in bins] == starts
        assert 0.0 < bins[-1].duration <= bin_seconds

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            bin_trace(self.TRACE, 300.0, horizon=0.0)
