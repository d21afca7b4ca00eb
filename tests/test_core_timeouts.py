"""Tests for the adaptive timeout policy of Section 3.5."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.ablations import BACKOFF_MAXIMUM, ExponentialBackoff
from repro.core.timeouts import MAXIMUM_TIMEOUT, MINIMUM_TIMEOUT, AdaptiveTimeout


def test_timeout_grows_by_constant_epsilon():
    timeout = AdaptiveTimeout(initial=0.05)
    assert timeout.on_timeout() == pytest.approx(0.06)
    assert timeout.on_timeout() == pytest.approx(0.07)


def test_fast_progress_halves_the_interval():
    timeout = AdaptiveTimeout(initial=0.1)
    new_interval = timeout.on_progress(waited=0.01)
    assert new_interval == pytest.approx(0.05)


def test_slow_progress_keeps_the_interval():
    timeout = AdaptiveTimeout(initial=0.1)
    assert timeout.on_progress(waited=0.09) == pytest.approx(0.1)


def test_halving_never_collapses_below_observed_delay_floor():
    timeout = AdaptiveTimeout(initial=0.1)
    # One wait establishes the observed delay; 4x it (0.08) is above the
    # halved interval (0.05), so the floor already decides this step.
    assert timeout.on_progress(waited=0.02) == pytest.approx(0.08)
    for _ in range(10):
        timeout.on_progress(waited=0.0)
    # The decayed maximum of the observed delay keeps the floor near 4x it.
    assert timeout.interval >= 4 * 0.02 * (0.9 ** 10)
    assert timeout.interval > MINIMUM_TIMEOUT


def test_timeout_respects_maximum_bound():
    timeout = AdaptiveTimeout(initial=0.05)
    while timeout.interval < MAXIMUM_TIMEOUT:
        timeout.on_timeout()
    assert timeout.interval == MAXIMUM_TIMEOUT == 60.0
    assert timeout.on_timeout() == MAXIMUM_TIMEOUT


def test_timer_keeps_no_per_view_history():
    # A SpotLess timer adjusts on every view; whatever it keeps must not
    # grow with the number of views a run lasts.
    timeout = AdaptiveTimeout(initial=0.05)
    for _ in range(1_000):
        timeout.on_timeout()
        timeout.on_progress(waited=0.001)
    assert {type(value) for value in vars(timeout).values()} <= {int, float}


def test_timeout_validation():
    assert list(inspect.signature(AdaptiveTimeout).parameters) == ["initial"]
    with pytest.raises(ValueError):
        AdaptiveTimeout(initial=0.0)
    with pytest.raises(ValueError):
        AdaptiveTimeout(initial=-0.1)


def test_exponential_backoff_doubles_and_resets():
    backoff = ExponentialBackoff(initial=0.05)
    assert backoff.on_timeout() == pytest.approx(0.1)
    assert backoff.on_timeout() == pytest.approx(0.2)
    assert backoff.on_progress(0.01) == pytest.approx(0.05)
    assert backoff.interval == pytest.approx(0.05)


def test_exponential_backoff_respects_maximum_and_validation():
    backoff = ExponentialBackoff(initial=1.0)
    intervals = [backoff.on_timeout() for _ in range(7)]
    assert intervals == [2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0]
    assert BACKOFF_MAXIMUM == 60.0
    with pytest.raises(ValueError):
        ExponentialBackoff(initial=0.0)


def test_adaptive_policy_recovers_much_faster_than_exponential():
    """The design-choice ablation the paper argues for in Section 3.5."""
    adaptive = AdaptiveTimeout(initial=0.05)
    exponential = ExponentialBackoff(initial=0.05)
    for _ in range(8):
        adaptive.on_timeout()
        exponential.on_timeout()
    assert adaptive.interval < 0.2
    assert exponential.interval > 5 * adaptive.interval


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("timeout"), st.just(0.0)),
            st.tuples(st.just("progress"), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        ),
        max_size=60,
    )
)
@settings(max_examples=60)
def test_interval_always_stays_within_bounds(events):
    """Property: whatever the sequence of timeouts and progress events, the
    interval stays within [MINIMUM_TIMEOUT, MAXIMUM_TIMEOUT] and is never NaN."""
    timeout = AdaptiveTimeout(initial=0.05)
    for kind, waited in events:
        if kind == "timeout":
            timeout.on_timeout()
        else:
            timeout.on_progress(waited)
        assert MINIMUM_TIMEOUT <= timeout.interval <= MAXIMUM_TIMEOUT
