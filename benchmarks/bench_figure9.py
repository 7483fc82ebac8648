"""Benchmark / regeneration of Figure 9: accuracy on the controller risk model.

Sweeps 1-10 simultaneous object faults across switches of the simulated
cluster policy, localized on the network-wide controller risk model.
"""

from repro.experiments import format_accuracy_figure, run_accuracy_figure


def test_figure9_controller_risk_model_accuracy(
    benchmark, deployed_simulation, bench_runs, bench_fault_counts
):
    sweep = benchmark.pedantic(
        run_accuracy_figure,
        args=(9,),
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

    counts = sweep.fault_counts()
    scout_recall = sum(sweep.cell("SCOUT", c).recall_mean for c in counts) / len(counts)
    score_recall = sum(sweep.cell("SCORE-1", c).recall_mean for c in counts) / len(counts)
    assert scout_recall > score_recall
    assert scout_recall >= 0.8
