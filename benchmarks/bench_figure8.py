"""Benchmark / regeneration of Figure 8: accuracy on the switch risk model.

Sweeps 1-10 simultaneous object faults inside one switch's scope of the
simulated cluster policy and prints precision/recall for SCOUT, SCORE-1 and
SCORE-0.6.
"""

from repro.experiments import format_accuracy_figure, run_accuracy_figure


def test_figure8_switch_risk_model_accuracy(
    benchmark, deployed_simulation, bench_runs, bench_fault_counts
):
    sweep = benchmark.pedantic(
        run_accuracy_figure,
        args=(8,),
        kwargs=dict(
            deployed=deployed_simulation,
            fault_counts=bench_fault_counts,
            runs=bench_runs,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_accuracy_figure(sweep))

    # Shape check: SCOUT's mean recall across the sweep beats SCORE-1's and
    # its precision stays comparable (within 10% absolute), as in the paper.
    counts = sweep.fault_counts()
    scout_recall = sum(sweep.cell("SCOUT", c).recall_mean for c in counts) / len(counts)
    score_recall = sum(sweep.cell("SCORE-1", c).recall_mean for c in counts) / len(counts)
    scout_precision = sum(sweep.cell("SCOUT", c).precision_mean for c in counts) / len(counts)
    score_precision = sum(sweep.cell("SCORE-1", c).precision_mean for c in counts) / len(counts)
    assert scout_recall > score_recall
    assert scout_precision >= score_precision - 0.1
