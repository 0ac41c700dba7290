"""Unit tests for repro.solvers.binary_search."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import telemetry
from repro.solvers.binary_search import binary_search_max


def threshold_oracle(threshold, payload="ok"):
    """Feasible exactly on (-inf, threshold]."""

    def oracle(c):
        return c <= threshold, payload if c <= threshold else None

    return oracle


class TestBinarySearchMax:
    def test_finds_threshold(self):
        res = binary_search_max(threshold_oracle(0.37), 0.0, 1.0, tolerance=1e-6)
        assert res.lower == pytest.approx(0.37, abs=1e-5)
        assert res.upper - res.lower <= 1e-6
        assert res.payload == "ok"

    def test_whole_interval_feasible(self):
        res = binary_search_max(threshold_oracle(5.0), 0.0, 1.0)
        assert res.lower == res.upper == 1.0
        assert res.gap == 0.0

    def test_nothing_feasible(self):
        res = binary_search_max(threshold_oracle(-5.0), 0.0, 1.0)
        assert res.lower == -float("inf")
        assert res.payload is None

    def test_payload_tracks_last_feasible(self):
        calls = []

        def oracle(c):
            calls.append(c)
            return (c <= 0.5, f"x at {c}") if c <= 0.5 else (False, None)

        res = binary_search_max(oracle, 0.0, 1.0, tolerance=1e-3)
        assert res.payload.startswith("x at ")
        assert float(res.payload.split()[-1]) <= 0.5

    def test_trace_records_all_calls(self):
        res = binary_search_max(threshold_oracle(0.25), 0.0, 1.0, tolerance=0.1)
        assert res.iterations == len(res.trace)
        for c, feasible in res.trace:
            assert feasible == (c <= 0.25)

    def test_max_iterations_cap(self):
        with pytest.warns(RuntimeWarning, match="max_iterations=5"):
            res = binary_search_max(
                threshold_oracle(0.5), 0.0, 1.0, tolerance=1e-12, max_iterations=5
            )
        assert res.iterations <= 5

    def test_exhaustion_sets_converged_false(self):
        with pytest.warns(RuntimeWarning, match="exhausted"):
            res = binary_search_max(
                threshold_oracle(0.5), 0.0, 1.0, tolerance=1e-12, max_iterations=3
            )
        assert not res.converged
        assert res.gap > 1e-12

    def test_normal_run_sets_converged_true(self):
        res = binary_search_max(threshold_oracle(0.37), 0.0, 1.0, tolerance=1e-4)
        assert res.converged

    def test_endpoint_shortcuts_converge(self):
        assert binary_search_max(threshold_oracle(5.0), 0.0, 1.0).converged
        assert not binary_search_max(threshold_oracle(-5.0), 0.0, 1.0).converged

    def test_invalid_interval(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            binary_search_max(threshold_oracle(0.0), 1.0, 0.0)

    def test_invalid_tolerance(self):
        for tolerance in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                binary_search_max(threshold_oracle(0.0), 0.0, 1.0,
                                  tolerance=tolerance)

    def test_gap_property(self):
        res = binary_search_max(threshold_oracle(0.3), 0.0, 1.0, tolerance=0.01)
        assert res.gap == res.upper - res.lower
        assert res.gap <= 0.01

    def test_monotone_convergence(self):
        """Tighter tolerance never yields a worse lower bound."""
        loose = binary_search_max(threshold_oracle(0.71), 0.0, 1.0, tolerance=0.1)
        tight = binary_search_max(threshold_oracle(0.71), 0.0, 1.0, tolerance=1e-5)
        assert tight.lower >= loose.lower - 1e-12


class TestNothingFeasibleContract:
    """An infeasible lower endpoint is reported as ``lower=-inf,
    converged=False, payload=None``, never as a feasible ``lo``, with or
    without warm-start guesses."""

    @pytest.mark.parametrize("warm", [True, False])
    def test_always_infeasible_oracle(self, warm):
        hints = dict(initial_guesses=[0.5, (0.2, 0.8)],
                     payload_bound=lambda _: 0.0) if warm else {}
        res = binary_search_max(
            threshold_oracle(-5.0), 0.0, 1.0, tolerance=1e-3, **hints,
        )
        assert res.lower == -float("inf")
        assert res.payload is None
        assert not res.converged
        assert all(not feasible for _, feasible in res.trace)


class TestOracleFailurePaths:
    """A crashing oracle must surface, never be absorbed into a verdict."""

    def failing_at(self, bad_candidate, threshold=0.5, exc=RuntimeError):
        def oracle(c):
            if c == pytest.approx(bad_candidate, abs=1e-12):
                raise exc(f"oracle crashed at {c}")
            return c <= threshold, "ok" if c <= threshold else None

        return oracle

    def test_midpoint_crash_propagates(self):
        # First bisection midpoint of [0, 1] after endpoint checks is 0.5.
        with pytest.raises(RuntimeError, match="oracle crashed at 0.5"):
            binary_search_max(self.failing_at(0.5), 0.0, 1.0, tolerance=1e-3)

    def test_endpoint_crash_propagates(self):
        with pytest.raises(RuntimeError, match="oracle crashed at 1"):
            binary_search_max(self.failing_at(1.0), 0.0, 1.0)

    def test_guess_crash_propagates(self):
        with pytest.raises(RuntimeError, match="oracle crashed at 0.3"):
            binary_search_max(
                self.failing_at(0.3), 0.0, 1.0,
                tolerance=1e-3, initial_guesses=(0.3,),
            )

    def test_crash_marks_step_span_error(self):
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            with pytest.raises(RuntimeError):
                binary_search_max(self.failing_at(0.5), 0.0, 1.0, tolerance=1e-3)
        steps = [s for s in tele.spans if s.name == "binary_search.step"]
        assert steps, "oracle calls must be traced"
        failed = steps[-1]
        assert failed.status == "error"
        assert failed.attributes["c"] == pytest.approx(0.5)
        assert "RuntimeError" in failed.error

    def test_payload_bound_crash_propagates(self):
        def oracle(c):
            return (c <= 0.5, "witness") if c <= 0.5 else (False, None)

        def bad_bound(payload):
            raise ValueError("certificate evaluation failed")

        with pytest.raises(ValueError, match="certificate evaluation failed"):
            binary_search_max(
                oracle, 0.0, 1.0, tolerance=1e-3, payload_bound=bad_bound
            )

    def test_partial_trace_survives_in_successful_rerun(self):
        """A crash loses no monotone information: re-running with the
        fixed oracle from the same bracket reproduces the clean answer."""
        clean = binary_search_max(
            self.failing_at(-99.0), 0.0, 1.0, tolerance=1e-4
        )
        assert clean.lower == pytest.approx(0.5, abs=1e-3)


class TestWarmStartHooks:
    def count_calls(self, oracle):
        calls = []

        def counting(c):
            calls.append(c)
            return oracle(c)

        return counting, calls

    def test_good_guesses_cut_oracle_calls(self):
        cold = binary_search_max(threshold_oracle(0.6), 0.0, 1.0, tolerance=1e-4)
        warm = binary_search_max(
            threshold_oracle(0.6), 0.0, 1.0, tolerance=1e-4,
            initial_guesses=(0.60005, 0.6 - 1e-5),
        )
        assert warm.lower == pytest.approx(0.6, abs=1e-4)
        assert warm.iterations < cold.iterations

    def test_feasible_guess_raises_lower(self):
        res = binary_search_max(
            threshold_oracle(0.6), 0.0, 1.0, tolerance=1e-4,
            initial_guesses=(0.55,),
        )
        assert (0.55, True) in res.trace
        assert res.lower >= 0.55

    def test_infeasible_guess_lowers_upper(self):
        res = binary_search_max(
            threshold_oracle(0.6), 0.0, 1.0, tolerance=1e-4,
            initial_guesses=(0.9,),
        )
        assert (0.9, False) in res.trace
        assert res.upper <= 0.9

    def test_out_of_bracket_guesses_skipped(self):
        oracle, calls = self.count_calls(threshold_oracle(0.6))
        binary_search_max(
            oracle, 0.0, 1.0, tolerance=1e-4,
            initial_guesses=(-3.0, 0.0, 1.0, 7.5),
        )
        for skipped in (-3.0, 7.5):
            assert skipped not in calls

    def test_stale_guesses_cannot_corrupt_result(self):
        """Wildly wrong guesses cost oracle calls but the answer stands."""
        res = binary_search_max(
            threshold_oracle(0.6), 0.0, 1.0, tolerance=1e-4,
            initial_guesses=(0.01, 0.99, 0.02, 0.98),
        )
        assert res.lower == pytest.approx(0.6, abs=1e-4)
        assert res.converged

    def test_payload_bound_jumps_lower(self):
        """A payload certifying the true threshold collapses the search."""

        def oracle(c):
            return (c <= 0.6, "witness") if c <= 0.6 else (False, None)

        cold = binary_search_max(oracle, 0.0, 1.0, tolerance=1e-6)
        warm = binary_search_max(
            oracle, 0.0, 1.0, tolerance=1e-6,
            payload_bound=lambda payload: 0.6,
        )
        assert warm.lower == pytest.approx(0.6, abs=1e-6)
        assert warm.iterations < cold.iterations

    def test_payload_bound_pins_exact_threshold(self):
        """A truthful bound pins the lower end exactly while bisection
        closes in from above, never past the proven-infeasible upper."""
        res = binary_search_max(
            threshold_oracle(0.65), 0.0, 1.0, tolerance=1e-6,
            initial_guesses=(0.7,),  # proves upper <= 0.7 first
            payload_bound=lambda payload: 0.65,
        )
        assert res.lower == pytest.approx(0.65, abs=1e-12)
        assert res.lower <= res.upper <= 0.7

    def test_payload_bound_below_candidate_ignored(self):
        res = binary_search_max(
            threshold_oracle(0.6), 0.0, 1.0, tolerance=1e-4,
            payload_bound=lambda payload: -100.0,
        )
        assert res.lower == pytest.approx(0.6, abs=1e-4)


def certified_oracle(threshold, level):
    """Feasible exactly on (-inf, threshold]; a probe at or below
    ``level`` (<= threshold) returns ``level`` as its payload, the value
    it certifies, as a warm certificate does; any other feasible probe
    certifies only itself."""

    def oracle(c):
        if c > threshold:
            return False, None
        return True, max(c, level)

    return oracle


def identity(payload):
    return payload


def phases(tele):
    return [s.attributes["phase"] for s in tele.spans
            if s.name == "binary_search.step"]


class TestCarriedBracket:
    """A ``(lower, upper)`` guess the lower bound passes (both ends at or
    below it, skipped or probed) starts a gallop up from that bound; one
    whose upper end proves infeasible is probed end by end exactly as two
    float guesses were."""

    def test_passed_bracket_gallops_up_from_the_lower_bound(self):
        oracle = certified_oracle(0.515, 0.5)
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            res = binary_search_max(
                oracle, -10.0, 10.0, tolerance=1e-3,
                initial_guesses=((0.4, 0.401),), payload_bound=identity,
            )
        cold = binary_search_max(
            oracle, -10.0, 10.0, tolerance=1e-3, payload_bound=identity,
        )
        assert res.lower <= 0.515 <= res.upper
        assert res.gap <= 1e-3
        assert [c for c, _ in res.trace[2:5]] == pytest.approx(
            [0.501, 0.505, 0.521]
        )
        assert phases(tele)[:5] == ["endpoint", "endpoint", "gallop",
                                    "gallop", "gallop"]
        assert set(phases(tele)[5:]) == {"bisect"}
        assert res.guess_probes == 0
        assert res.iterations < cold.iterations

    def test_bracket_still_bounding_the_answer_is_probed_as_before(self):
        """An upper end that proves infeasible keeps the bracket ahead
        of the lower bound: the two ends are plain guesses."""
        oracle = certified_oracle(0.515, 0.5)
        pair = binary_search_max(
            oracle, -10.0, 10.0, tolerance=1e-3,
            initial_guesses=((0.45, 0.52),), payload_bound=identity,
        )
        floats = binary_search_max(
            oracle, -10.0, 10.0, tolerance=1e-3,
            initial_guesses=(0.52, 0.45), payload_bound=identity,
        )
        assert pair == floats
        assert pair.guess_probes == 1

    def test_feasible_upper_end_starts_the_gallop(self):
        """The lower bound passes the bracket when its upper end proves
        feasible: the search gallops up from there."""
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            res = binary_search_max(
                certified_oracle(0.515, 0.5), -10.0, 10.0, tolerance=1e-3,
                initial_guesses=((0.45, 0.51),), payload_bound=identity,
            )
        assert res.trace[2] == (0.51, True)
        assert phases(tele)[2:4] == ["guess", "gallop"]
        assert res.trace[3][0] == pytest.approx(0.511)
        assert res.guess_probes == 1
        assert res.lower <= 0.515 <= res.upper

    def test_no_gallop_without_payload_bound(self):
        """Without a payload certificate the lower bound is only the
        probed bottom; a bracket below it is skipped, as before."""
        oracle = threshold_oracle(0.515)
        pair = binary_search_max(
            oracle, 0.0, 10.0, tolerance=1e-3, initial_guesses=((-2.0, -1.0),),
        )
        cold = binary_search_max(oracle, 0.0, 10.0, tolerance=1e-3)
        assert pair == cold

    def test_gallop_stops_at_the_midpoint(self):
        """An answer near the top: the gallop hands over to bisection
        before its offset would pass the midpoint."""
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            res = binary_search_max(
                certified_oracle(0.99, 0.0), 0.0, 1.0, tolerance=1e-3,
                initial_guesses=((-0.5, -0.4),), payload_bound=identity,
            )
        gallops = [c for (c, _), phase in zip(res.trace, phases(tele))
                   if phase == "gallop"]
        assert gallops == pytest.approx([1e-3, 5e-3, 21e-3, 85e-3, 341e-3])
        assert res.lower <= 0.99 <= res.upper

    @given(
        lo=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 25.0),
        tolerance=st.floats(1e-4, 0.5),
        answer=st.floats(0.0, 1.0),
        certified=st.floats(0.0, 1.0),
        ends=st.tuples(st.floats(-1.5, 2.5), st.floats(-1.5, 2.5)),
    )
    def test_any_bracket_finds_the_threshold(
        self, lo, width, tolerance, answer, certified, ends
    ):
        """Threshold oracles, any ``c*`` in ``[lo, hi]``, any carried
        bracket: the result brackets ``c*`` within the tolerance, every
        verdict is ``c <= c*``, and the gallop costs at most
        ``ceil(log4(range / tolerance)) + 1`` calls over plain
        bisection."""
        hi = lo + width
        c_star = min(lo + answer * width, hi)
        level = lo + certified * (c_star - lo)
        bracket = tuple(sorted(lo + e * width for e in ends))
        oracle = certified_oracle(c_star, level)
        res = binary_search_max(
            oracle, lo, hi, tolerance=tolerance,
            initial_guesses=(level, bracket), payload_bound=identity,
        )
        plain = binary_search_max(
            oracle, lo, hi, tolerance=tolerance, payload_bound=identity,
        )
        assert res.converged
        assert res.lower <= c_star <= res.upper
        assert res.upper - res.lower <= tolerance
        for c, feasible in res.trace:
            assert feasible == (c <= c_star)
        slack = max(0, math.ceil(math.log((hi - lo) / tolerance, 4))) + 1
        assert res.iterations <= plain.iterations + slack
