"""The paper's hypothesis 2 on the synthetic heartbeat protocols.

PAPER.md: "The hypothesis 2 (experienced physical load and subsequent
restoration as fatigue level can be estimated quantitatively and
distinctive patterns can be recognized) was presented and some ways to
prove it were demonstrated."

Here the estimate is ``metric1``, the distance of a window's plane point
from the normal landmark. Each phase of a protocol gets the median
``metric1`` of the windows whose midpoint falls in it; load must read above
recovery, and recovery above rest. The protocols are those of
``synth.PROTOCOL_PRESETS``; nothing here tunes the generator.
"""

import numpy as np
import pytest

from loadlens import synth
from loadlens.momentplane import metric1
from loadlens.stats import sliding_windows

WINDOW = 300
STRIDE = 30
SEEDS = range(20)


def phase_medians(preset: str, seed: int) -> dict[str, float]:
    """Median ``metric1`` per phase of one generated recording; a phase no
    window midpoint falls in is absent."""
    protocol = synth.PROTOCOL_PRESETS[preset]
    windows = sliding_windows(synth.gen_rr(protocol, synth.GenConfig(seed=seed)), WINDOW, STRIDE)
    ok = ~windows.degenerate
    t_mid = windows.t_mid_ms[ok]
    m1 = np.array([metric1(s * s, k) for s, k in zip(windows.skewness[ok].tolist(), windows.kurtosis[ok].tolist())])
    medians = {}
    start = 0.0
    for seg in protocol.segments:
        end = start + seg.duration_s * 1000.0
        inside = (start <= t_mid) & (t_mid < end)
        if inside.any():
            medians[seg.phase] = float(np.median(m1[inside]))
        start = end
    return medians


@pytest.fixture(scope="module")
def staircase():
    return [phase_medians("staircase", seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def rest():
    return [phase_medians("rest", seed) for seed in SEEDS]


def test_load_reads_above_recovery(staircase):
    above = sum(m[synth.LOAD] > m[synth.RECOVERY] for m in staircase)
    assert above >= 19


def test_recovery_reads_above_rest(staircase, rest):
    above = sum(s[synth.RECOVERY] > r[synth.REST] for s, r in zip(staircase, rest))
    assert above == 20


def test_no_window_centres_in_the_staircase_rest(staircase):
    """The 60 s rest phase holds fewer beats than half a window, so the
    staircase comparisons rest on its load and recovery alone."""
    assert not any(synth.REST in m for m in staircase)
