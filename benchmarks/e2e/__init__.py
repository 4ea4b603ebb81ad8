"""End-to-end and per-layer benchmark of the pointer-analysis stack.

Run it from the repository root::

    python -m benchmarks.e2e run [--workload W] [--seed N] [--seconds S]
                                 [--trace [0|1]] [--json OUT] [--quick]
    python -m benchmarks.e2e compare A.json[,A2.json...] B.json[,B2.json...]
    python -m benchmarks.e2e pin        # regenerate expected.json

``BENCHMARK.json`` at the repository root names the workloads and the
metrics with their units and regression bounds; ``README.md`` next to
this file explains them.
"""
