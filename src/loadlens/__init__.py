"""loadlens: wearable-sensor load/fatigue analytics.

Turns raw acceleration and heartbeat-interval streams into post-processed
statistical features (sliding-window moments, moments-plane trajectories,
load/recovery metrics) and trains baseline/neural models that predict
activity type from them.

The paper's claims, the tests in ``tests/test_claims.py`` that check them,
and what those measure. H2 is checked on the ``synth`` staircase and rest
protocols, seeds 0-19, by the median ``metric1`` of the 300-beat windows
(stride 30) whose midpoint falls in each phase. H1 is checked on the
features of ``synth sessions --n 40``, seeds 0-3 (seeds 0-7 would double
the test's time), each split with its seed, by the accuracy of ``lrm`` on
the 18 rows of the prediction split, with the subjective columns alone
(``ahr``, ``mhr``, ``acc_std``, ``acc_skewness``, ``acc_kurtosis``,
``metric1``, ``metric2``) and with all. Each claim also has a null
control that its test must fail: H2 the staircase at load and recovery
intensity 0, H1 the same tables with their activity labels permuted (99
permutations per seed, scored by the permutation p-value of the
subjective accuracy):

| claim | test | measured |
|---|---|---|
| H2: load reads above recovery | ``test_load_reads_above_recovery`` | 19 of 20 seeds; over seeds, medians 1.27 against 0.68 |
| H2: recovery reads above rest | ``test_recovery_reads_above_rest`` | 20 of 20 seeds; over seeds, medians 0.68 against 0.20 |
| H2: the staircase rest holds no window | ``test_no_window_centres_in_the_staircase_rest`` | no window centred in the 60 s rest |
| H2 null: without load neither comparison holds | ``test_h2_fails_without_load`` | load above recovery on 10 of 20 seeds, recovery above rest on 8 of 20; over seeds, medians 0.16, 0.12 and 0.20 |
| H1: activity is classified from subjective parameters too | ``test_subjective_parameters_classify_activity`` | subjective only: min 0.944, median 0.972, above the 0.333 baseline on 4 of 4 seeds; all: min 1.000, median 1.000 |
| H1 null: permuted labels classify worse | ``test_subjective_accuracy_beats_permuted_labels`` | p = 0.01, 0.01, 0.01, 0.01 on seeds 0-3, each against 99 label permutations |
"""

__version__ = "0.1.0"
