"""Tests for the adaptive timeout policy of Section 3.5."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeouts import AdaptiveTimeout, ExponentialBackoff


def test_timeout_grows_by_constant_epsilon():
    timeout = AdaptiveTimeout(initial=0.05, increment=0.01)
    assert timeout.on_timeout() == pytest.approx(0.06)
    assert timeout.on_timeout() == pytest.approx(0.07)
    assert timeout.consecutive_timeouts == 2


def test_fast_progress_halves_the_interval():
    timeout = AdaptiveTimeout(initial=0.1, increment=0.01, floor_factor=1.0)
    new_interval = timeout.on_progress(waited=0.01)
    assert new_interval == pytest.approx(0.05)
    assert timeout.consecutive_timeouts == 0


def test_slow_progress_keeps_the_interval():
    timeout = AdaptiveTimeout(initial=0.1, increment=0.01)
    assert timeout.on_progress(waited=0.09) == pytest.approx(0.1)


def test_halving_never_collapses_below_observed_delay_floor():
    timeout = AdaptiveTimeout(initial=0.1, increment=0.01, floor_factor=4.0)
    # One long wait establishes the observed delay.
    timeout.on_progress(waited=0.04)
    for _ in range(10):
        timeout.on_progress(waited=0.0)
    # The decayed maximum of the observed delay keeps the floor near 4x it.
    assert timeout.interval >= 4 * 0.04 * (0.9 ** 10)
    assert timeout.interval > timeout.minimum


def test_timeout_respects_maximum_bound():
    timeout = AdaptiveTimeout(initial=0.05, increment=10.0, maximum=1.0)
    timeout.on_timeout()
    assert timeout.interval == 1.0


def test_timeout_reset_restores_initial_state():
    timeout = AdaptiveTimeout(initial=0.05, increment=0.01)
    timeout.on_timeout()
    timeout.on_progress(0.001)
    timeout.reset()
    assert timeout.interval == pytest.approx(0.05)
    assert timeout.consecutive_timeouts == 0


def test_timer_keeps_no_per_view_history():
    # A SpotLess timer adjusts on every view; whatever it keeps must not
    # grow with the number of views a run lasts.
    timeout = AdaptiveTimeout(initial=0.05, increment=0.01)
    for _ in range(1_000):
        timeout.on_timeout()
        timeout.on_progress(waited=0.001)
    assert {type(value) for value in vars(timeout).values()} <= {int, float}


def test_timeout_validation():
    with pytest.raises(ValueError):
        AdaptiveTimeout(initial=0.0, increment=0.01)
    with pytest.raises(ValueError):
        AdaptiveTimeout(initial=0.1, increment=-1.0)
    with pytest.raises(ValueError):
        AdaptiveTimeout(initial=0.1, increment=0.01, fast_fraction=0.0)


def test_exponential_backoff_doubles_and_resets():
    backoff = ExponentialBackoff(initial=0.05)
    assert backoff.on_timeout() == pytest.approx(0.1)
    assert backoff.on_timeout() == pytest.approx(0.2)
    assert backoff.on_progress(0.01) == pytest.approx(0.05)
    backoff.on_timeout()
    backoff.reset()
    assert backoff.interval == pytest.approx(0.05)


def test_exponential_backoff_respects_maximum_and_validation():
    backoff = ExponentialBackoff(initial=1.0, factor=10.0, maximum=5.0)
    assert backoff.on_timeout() == 5.0
    with pytest.raises(ValueError):
        ExponentialBackoff(initial=0.0)
    with pytest.raises(ValueError):
        ExponentialBackoff(initial=1.0, factor=0.5)


def test_adaptive_policy_recovers_much_faster_than_exponential():
    """The design-choice ablation the paper argues for in Section 3.5."""
    adaptive = AdaptiveTimeout(initial=0.05, increment=0.01)
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
    interval stays within [minimum, maximum] and is never NaN."""
    timeout = AdaptiveTimeout(initial=0.05, increment=0.02, minimum=0.001, maximum=2.0)
    for kind, waited in events:
        if kind == "timeout":
            timeout.on_timeout()
        else:
            timeout.on_progress(waited)
        assert 0.001 <= timeout.interval <= 2.0
