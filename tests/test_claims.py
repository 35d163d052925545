"""The paper's hypotheses 1 and 2 on the synthetic data.

PAPER.md: "The hypothesis 1 (activity can be classified not only by
objective parameters, but by subjective parameters also) was proved" and
"The hypothesis 2 (experienced physical load and subsequent restoration as
fatigue level can be estimated quantitatively and distinctive patterns can
be recognized) was presented and some ways to prove it were demonstrated."

H1 is checked on the feature tables of ``synth sessions --n 40`` for data
seeds 0-3, built in this process and split with the data seed: a linear
model of the subjective columns alone must classify the prediction split
better than its majority class, and all columns at least as well.

For H2 the estimate is ``metric1``, the distance of a window's plane point
from the normal landmark. Each phase of a protocol gets the median
``metric1`` of the windows whose midpoint falls in it; load must read above
recovery, and recovery above rest. The protocols are those of
``synth.PROTOCOL_PRESETS``; nothing here tunes the generator.

Each claim has a null control, a test input without the effect, on which
the claim's test must fail; the nulls are built here, not in ``synth``.
For H2 it is the staircase at load and recovery intensity 0. For H1 it is
the feature table with its activity labels permuted across sessions, split
and fitted as the claim's test does.
"""

import dataclasses

import numpy as np
import pytest

import loadlens
from loadlens import synth
from loadlens.features import FeatureTable, extract_features
from loadlens.ingest import accel_magnitude
from loadlens.manifest import _fork_map
from loadlens.learn.data import PRESETS, build_xy, split
from loadlens.learn.evaluate import evaluate_xy
from loadlens.learn.models import fit_lrm_xy
from loadlens.momentplane import metric1
from loadlens.stats import sliding_windows

WINDOW = 300
STRIDE = 30
SEEDS = range(20)
#: H2 holds when load reads above recovery on at least 19 of the 20 seeds,
#: and recovery above rest on all 20.
LOAD_ABOVE_RECOVERY = 19
RECOVERY_ABOVE_REST = 20
STAIRCASE = synth.PROTOCOL_PRESETS["staircase"]
#: The H2 null: the staircase at load and recovery intensity 0, rest in all
#: but name.
NULL_STAIRCASE = synth.Protocol(tuple(dataclasses.replace(seg, intensity=0.0) for seg in STAIRCASE.segments))


def phase_medians(protocol: synth.Protocol, seed: int) -> dict[str, float]:
    """Median ``metric1`` per phase of one generated recording; a phase no
    window midpoint falls in is absent."""
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
    return [phase_medians(STAIRCASE, seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def rest():
    return [phase_medians(synth.PROTOCOL_PRESETS["rest"], seed) for seed in SEEDS]


@pytest.fixture(scope="module")
def null_staircase():
    return [phase_medians(NULL_STAIRCASE, seed) for seed in SEEDS]


def load_above_recovery(staircase) -> int:
    return sum(m[synth.LOAD] > m[synth.RECOVERY] for m in staircase)


def recovery_above_rest(staircase, rest) -> int:
    return sum(s[synth.RECOVERY] > r[synth.REST] for s, r in zip(staircase, rest))


def test_load_reads_above_recovery(staircase):
    assert load_above_recovery(staircase) >= LOAD_ABOVE_RECOVERY


def test_recovery_reads_above_rest(staircase, rest):
    assert recovery_above_rest(staircase, rest) >= RECOVERY_ABOVE_REST


def test_h2_fails_without_load(null_staircase, rest):
    """The H2 null: on the staircase at intensity 0 neither H2 criterion
    holds, so load reads above recovery on fewer than 19 of the 20 seeds
    and recovery above rest on fewer than 20."""
    assert load_above_recovery(null_staircase) < LOAD_ABOVE_RECOVERY
    assert recovery_above_rest(null_staircase, rest) < RECOVERY_ABOVE_REST


def test_no_window_centres_in_the_staircase_rest(staircase):
    """The 60 s rest phase holds fewer beats than half a window, so the
    staircase comparisons rest on its load and recovery alone."""
    assert not any(synth.REST in m for m in staircase)


H1_SEEDS = range(4)
H1_SESSIONS_PER_CLASS = 40
H1_PERMUTATIONS = 99
#: The columns the ``features`` docstring calls subjective, less ``acc_mean``
#: (the mean magnitude, about gravity).
SUBJECTIVE = ("ahr", "mhr", "acc_std", "acc_skewness", "acc_kurtosis", "metric1", "metric2")


def session_features(session) -> list[float]:
    """One drawn session's features, from its channels generated in memory;
    the same values ``features`` computes from its files."""
    meta, protocol, rr_config, accel_class, accel_config = session
    rr = synth.gen_rr(protocol, rr_config)
    accel = accel_magnitude(synth.gen_accel(accel_class, synth.TREMOR_DURATION_S, accel_config))
    return list(extract_features(meta, accel, rr).values())


def accuracy(train: FeatureTable, pred: FeatureTable, columns) -> float:
    """Prediction-split accuracy of ``lrm`` fitted on ``columns`` of ``train``."""
    model = fit_lrm_xy(*build_xy(train, columns)[:2], columns)
    return evaluate_xy(model, *build_xy(pred, columns)[:2]).accuracy


def permuted(table: FeatureTable, rng) -> FeatureTable:
    """``table`` with its activity labels permuted across sessions."""
    return FeatureTable(table.session_id, [table.activity[i] for i in rng.permutation(len(table.activity))], table.values)


@pytest.fixture(scope="module")
def h1() -> list[dict[str, float]]:
    """Per data seed: the majority-class share of the prediction split, the
    accuracy of the subjective columns and of all columns, and the
    permutation p-value of the subjective accuracy: with ``H1_PERMUTATIONS``
    label permutations drawn from ``np.random.default_rng(seed)``, each
    split and fitted as the data is, p is one plus the number of them whose
    subjective accuracy reaches the data's, over one plus their number
    (Ojala and Garriga 2010, JMLR 11). The sessions of every seed are
    generated in one pass of worker processes."""
    drawn = [synth._draw_sessions(H1_SESSIONS_PER_CLASS, seed) for seed in H1_SEEDS]
    values = iter(_fork_map(session_features, [session for sessions in drawn for session in sessions]))
    results = []
    for seed, sessions in zip(H1_SEEDS, drawn):
        metas = [meta for meta, *_ in sessions]
        rows = [next(values) for _ in sessions]
        table = FeatureTable([m.session_id for m in metas], [m.activity for m in metas], rows)
        train, _, pred = split(table, seed=seed)
        baseline = max(map(pred.activity.count, pred.activity)) / len(pred.activity)
        subjective = accuracy(train, pred, SUBJECTIVE)
        rng = np.random.default_rng(seed)
        null = [accuracy(*split(permuted(table, rng), seed=seed)[::2], SUBJECTIVE) for _ in range(H1_PERMUTATIONS)]
        results.append(
            {
                "baseline": baseline,
                "subjective": subjective,
                "all": accuracy(train, pred, PRESETS["all"]),
                "p": (1 + sum(a >= subjective for a in null)) / (1 + H1_PERMUTATIONS),
            }
        )
    return results


def test_subjective_parameters_classify_activity(h1):
    """H1: on every seed, the subjective columns alone beat the majority
    class, and adding the objective ones loses nothing."""
    assert all(r["subjective"] > r["baseline"] for r in h1)
    assert all(r["all"] >= r["subjective"] for r in h1)


def test_subjective_accuracy_beats_permuted_labels(h1):
    """The H1 null: on every seed, the subjective columns classify the
    data better than they classify its label permutations, at p <= 0.05,
    so at most 4 of the 99 permutations reach the data's accuracy."""
    assert all(r["p"] <= 0.05 for r in h1)


def claims_table() -> list[dict[str, str]]:
    """The rows of the claims table in the package docstring, each a dict
    from column name to cell text."""
    lines = [line.strip() for line in loadlens.__doc__.splitlines() if line.startswith("|")]
    header, _rule, *rows = ([cell.strip() for cell in line.strip("|").split("|")] for line in lines)
    return [dict(zip(header, row)) for row in rows]


def test_claims_table_names_these_tests_and_what_they_measure(staircase, rest, null_staircase, h1):
    """Each row of the table names a test of this module, or none, and its
    "measured" cell is what the fixtures compute."""
    load = [m[synth.LOAD] for m in staircase]
    recovery = [m[synth.RECOVERY] for m in staircase]
    at_rest = [r[synth.REST] for r in rest]

    def compared(high, low):
        above = sum(h > lo for h, lo in zip(high, low))
        return f"{above} of {len(SEEDS)} seeds; over seeds, medians {np.median(high):.2f} against {np.median(low):.2f}"

    rest_s = next(seg.duration_s for seg in STAIRCASE.segments if seg.phase == synth.REST)
    centred = sum(synth.REST in m for m in staircase)
    def classified(key):
        scores = [r[key] for r in h1]
        return f"min {min(scores):.3f}, median {np.median(scores):.3f}"

    above = sum(r["subjective"] > r["baseline"] for r in h1)
    p_values = ", ".join(f"{r['p']:.2f}" for r in h1)
    baseline = ", ".join(sorted({f"{r['baseline']:.3f}" for r in h1}))
    measured = {
        "test_load_reads_above_recovery": compared(load, recovery),
        "test_recovery_reads_above_rest": compared(recovery, at_rest),
        "test_no_window_centres_in_the_staircase_rest": (
            f"no window centred in the {rest_s:g} s rest" if not centred else f"windows centred in the rest on {centred} seeds"
        ),
        "test_h2_fails_without_load": (
            f"load above recovery on {load_above_recovery(null_staircase)} of {len(SEEDS)} seeds, recovery above rest on"
            f" {recovery_above_rest(null_staircase, rest)} of {len(SEEDS)}; over seeds, medians"
            f" {np.median([m[synth.LOAD] for m in null_staircase]):.2f}, {np.median([m[synth.RECOVERY] for m in null_staircase]):.2f}"
            f" and {np.median(at_rest):.2f}"
        ),
        "test_subjective_parameters_classify_activity": (
            f"subjective only: {classified('subjective')}, above the {baseline} baseline on {above} of {len(h1)} seeds;"
            f" all: {classified('all')}"
        ),
        "test_subjective_accuracy_beats_permuted_labels": (
            f"p = {p_values} on seeds {H1_SEEDS[0]}-{H1_SEEDS[-1]},"
            f" each against {H1_PERMUTATIONS} label permutations"
        ),
    }
    rows = claims_table()
    named = [row["test"].strip("`") for row in rows if row["test"] != "none"]
    assert named == list(measured)
    assert all(callable(globals().get(name)) for name in named)
    assert [row["measured"] for row in rows if row["test"] != "none"] == list(measured.values())
