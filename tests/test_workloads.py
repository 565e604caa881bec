"""One pass of every benchmark workload meets its oracles: each op is made,
run and checked in process as the benchmark's passes do, so a wrong answer
or a failing op shows here before a benchmark run."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The two resolvent breakdowns graph-verdict holds on purpose: each raises
# RuntimeError, and they are why its pass ratio is 0.8.
BREAKDOWNS = {"verdict.breakdown.small_lambda", "verdict.breakdown.absorption"}


# graph-verdict's two smallest lambdas are below the strict-damping threshold
@pytest.mark.filterwarnings("ignore:vertex coupling is not strictly damped:RuntimeWarning")
@pytest.mark.parametrize("workload", ["interval-checks", "graph-orbit", "graph-verdict"])
def test_one_pass_meets_every_oracle(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    raised = set()
    for op in workloads.WORKLOADS[workload](1):
        try:
            out = op.run(*op.make())
        except RuntimeError:
            raised.add(op.kind)
            continue
        list(op.check(out))  # an oracle mismatch raises
    assert raised == (BREAKDOWNS if workload == "graph-verdict" else set())
