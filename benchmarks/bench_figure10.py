"""Benchmark / regeneration of Figure 10: accuracy on the testbed policy.

Sweeps 1-10 simultaneous faults on the low-sharing testbed policy (SCORE's
threshold fixed at 1.0, 10 runs per point in the paper).
"""

from repro.experiments import format_accuracy_figure, run_accuracy_figure

from conftest import full_scale


def test_figure10_testbed_accuracy(benchmark, deployed_testbed, bench_fault_counts):
    runs = 10 if full_scale() else 5
    sweep = benchmark.pedantic(
        run_accuracy_figure,
        args=(10,),
        kwargs=dict(
            deployed=deployed_testbed,
            fault_counts=bench_fault_counts,
            runs=runs,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_accuracy_figure(sweep))

    counts = sweep.fault_counts()
    scout_recall = sum(sweep.cell("SCOUT", c).recall_mean for c in counts) / len(counts)
    score_recall = sum(sweep.cell("SCORE-1", c).recall_mean for c in counts) / len(counts)
    # The paper: SCOUT's recall is 20-50% better than SCORE's on the testbed,
    # and SCOUT recalls everything below four simultaneous faults.
    assert scout_recall > score_recall
    low_fault_counts = [c for c in counts if c <= 3]
    if low_fault_counts:
        low_recall = sum(sweep.cell("SCOUT", c).recall_mean for c in low_fault_counts) / len(
            low_fault_counts
        )
        assert low_recall >= 0.9
