"""loadlens: wearable-sensor load/fatigue analytics.

Turns raw acceleration and heartbeat-interval streams into post-processed
statistical features (sliding-window moments, moments-plane trajectories,
load/recovery metrics) and trains baseline/neural models that predict
activity type from them.

The paper's claims, the tests in ``tests/test_claims.py`` that check them,
and what those measure. H2 is checked on the ``synth`` staircase and rest
protocols, seeds 0-19, by the median ``metric1`` of the 300-beat windows
(stride 30) whose midpoint falls in each phase:

| claim | test | measured |
|---|---|---|
| H2: load reads above recovery | ``test_load_reads_above_recovery`` | 19 of 20 seeds; over seeds, medians 1.27 against 0.68 |
| H2: recovery reads above rest | ``test_recovery_reads_above_rest`` | 20 of 20 seeds; over seeds, medians 0.68 against 0.20 |
| H2: the staircase rest holds no window | ``test_no_window_centres_in_the_staircase_rest`` | no window centred in the 60 s rest |
| H1: activity is classified from subjective parameters too | none | not yet checked (ROADMAP item 4) |
"""

__version__ = "0.1.0"
