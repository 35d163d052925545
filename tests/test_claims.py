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

import loadlens
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


def claims_table() -> list[dict[str, str]]:
    """The rows of the claims table in the package docstring, each a dict
    from column name to cell text."""
    lines = [line.strip() for line in loadlens.__doc__.splitlines() if line.startswith("|")]
    header, _rule, *rows = ([cell.strip() for cell in line.strip("|").split("|")] for line in lines)
    return [dict(zip(header, row)) for row in rows]


def test_claims_table_names_these_tests_and_what_they_measure(staircase, rest):
    """Each row of the table names a test of this module, or none, and its
    "measured" cell is what the fixtures compute."""
    load = [m[synth.LOAD] for m in staircase]
    recovery = [m[synth.RECOVERY] for m in staircase]
    at_rest = [r[synth.REST] for r in rest]

    def compared(high, low):
        above = sum(h > lo for h, lo in zip(high, low))
        return f"{above} of {len(SEEDS)} seeds; over seeds, medians {np.median(high):.2f} against {np.median(low):.2f}"

    rest_s = next(seg.duration_s for seg in synth.PROTOCOL_PRESETS["staircase"].segments if seg.phase == synth.REST)
    centred = sum(synth.REST in m for m in staircase)
    measured = {
        "test_load_reads_above_recovery": compared(load, recovery),
        "test_recovery_reads_above_rest": compared(recovery, at_rest),
        "test_no_window_centres_in_the_staircase_rest": (
            f"no window centred in the {rest_s:g} s rest" if not centred else f"windows centred in the rest on {centred} seeds"
        ),
    }
    rows = claims_table()
    named = [row["test"].strip("`") for row in rows if row["test"] != "none"]
    assert named == list(measured)
    assert all(callable(globals().get(name)) for name in named)
    assert [row["measured"] for row in rows if row["test"] != "none"] == list(measured.values())
