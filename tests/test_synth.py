"""The heartbeat generator against a per-beat reference, the sensor grid
of both generators, and the generators' argument checks."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadlens import synth
from loadlens.synth import LOAD, RECOVERY, REST, GenConfig, Protocol, Segment


def reference_rr(protocol: Protocol, config: GenConfig) -> tuple[list[int], list[float]]:
    """``(t_ms, rr)`` of ``gen_rr``, one beat at a time with one branch per
    phase: at rest the base interval plus noise; under load the mean
    falls exponentially from where the segment starts towards its target
    while a negative skew ramps in; in recovery the mean relaxes back to
    the base and a positive skew decays with it. Each beat is rounded to a
    whole ms, half to even, then floored at 1 ms, and each time is the
    integer sum of the beats before it."""
    noise = synth._noise_pairs(np.random.default_rng(config.seed))
    base = config.baseline_rr_ms
    times, rrs = [], []
    t = 0
    mean = base
    for seg in protocol.segments:
        start = t
        end = start + seg.duration_s * 1000.0
        entry = mean
        while t < end:
            z, b = next(noise)
            dt = t - start
            if seg.phase == REST:
                mean = base
                rr = base + synth.NOISE_REST_MS * z
            elif seg.phase == LOAD:
                target = base - seg.intensity * synth.LOAD_DROP_MS
                mean = target + (entry - target) * math.exp(-(dt / 1000.0) / synth.LOAD_ONSET_TAU_S)
                rr = mean + synth.NOISE_REST_MS * z + -synth.SKEW_SCALE_LOAD * seg.intensity * (dt / (end - start)) * b
            elif seg.phase == RECOVERY:
                decay = math.exp(-(dt / 1000.0) / synth.RECOVERY_TAU_S)
                mean = base + (entry - base) * decay
                rr = mean + synth.NOISE_REST_MS * z + synth.SKEW_SCALE_LOAD * seg.intensity * decay * b
            rr = round(rr)
            if rr < 1:
                rr = 1
            times.append(t)
            rrs.append(float(rr))
            t += rr
    return times, rrs


#: Segments of a drawn protocol: any phase order (rest after a load or a
#: recovery included), intensities at both ends of [0, 1], and durations
#: from one that adds nothing to the time reached (no beat) to a minute.
_segments = st.lists(
    st.builds(
        Segment,
        st.sampled_from([REST, LOAD, RECOVERY]),
        st.sampled_from([1e-300, 0.001, 0.4, 2.0, 15.0, 60.0]),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(_segments, st.integers(0, 2**32 - 1), st.sampled_from([351.0, 400.0, 850.0, 1200.0]))
def test_gen_rr_equals_the_per_beat_reference(segments, seed, baseline):
    """Bit for bit, so a term that should be zero at rest, or a changed
    operation order that moves a beat across a rounding boundary, shows;
    low baselines under full load reach the 1 ms floor."""
    protocol, config = Protocol(tuple(segments)), GenConfig(seed=seed, baseline_rr_ms=baseline)
    channel = synth.gen_rr(protocol, config)
    times, rrs = reference_rr(protocol, config)
    assert channel.t_ms.tolist() == times
    assert channel.values.tobytes() == np.array(rrs).tobytes()


@settings(max_examples=100, deadline=None)
@given(_segments, st.integers(0, 2**32 - 1), st.sampled_from([351.0, 400.0, 850.0, 1200.0]))
def test_gen_rr_beats_are_whole_ms_and_times_their_sums(segments, seed, baseline):
    """Every rr is a whole number of ms, at least 1, and every ``t_ms`` is
    the integer sum of the rr values before it."""
    channel = synth.gen_rr(Protocol(tuple(segments)), GenConfig(seed=seed, baseline_rr_ms=baseline))
    rr = channel.values.tolist()
    assert all(v == int(v) and v >= 1 for v in rr)
    assert channel.t_ms.tolist() == list(itertools.accumulate((int(v) for v in rr[:-1]), initial=0))[: len(rr)]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(synth.ACCEL_CLASSES)), st.floats(0.02, 20.0), st.integers(0, 2**32 - 1))
def test_gen_accel_values_are_thousandths(activity_class, duration_s, seed):
    """Every axis value is the double nearest k/1000, and its ``repr`` is
    k/1000 written with at most 3 decimals."""
    values = synth.gen_accel(activity_class, duration_s, GenConfig(seed=seed)).values.ravel().tolist()
    assert all(round(v * 1000) / 1000 == v for v in values)
    assert all(re.fullmatch(r"-?\d+\.\d{1,3}", repr(v)) for v in values)


@pytest.mark.parametrize("duration_s", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_protocol_rejects_a_segment_duration_that_is_not_finite_and_positive(duration_s):
    with pytest.raises(ValueError, match="segment duration"):
        Protocol((Segment(REST, 60.0), Segment(LOAD, duration_s, 0.5)))


@pytest.mark.parametrize("baseline", [math.inf, -math.inf, math.nan, synth.LOAD_DROP_MS])
def test_gen_config_rejects_a_baseline_that_is_not_finite_and_above_the_load_drop(baseline):
    with pytest.raises(ValueError, match="baseline_rr_ms"):
        GenConfig(baseline_rr_ms=baseline)


@pytest.mark.parametrize("baseline", [2000.5, 1e19])
def test_gen_config_rejects_a_baseline_above_the_heartbeat_range(baseline):
    with pytest.raises(ValueError, match="baseline_rr_ms"):
        GenConfig(baseline_rr_ms=baseline)
