"""The benchmark's tracer still fits the package: it patches names and reads
argument positions, so a refactor that moves either breaks it silently."""

from pathlib import Path

import semiflow
from semiflow import cli, network, semigroups

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_spans_every_kernel_and_restores_patches(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        tracer.begin_op(0)
        net = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 1.0], n_cells=20)
        state = semiflow.initial_state(net)
        for solver in ("characteristics", "upwind"):
            network.simulate_flow(net, state, 1.0, solver, n_outputs=3)
        # unit speeds fit one time grid and take the history; a speed off
        # that grid reaches the tracer
        net2 = semiflow.make_network(2, [(0, 1), (1, 0)], [1.0, 2.0 ** 0.5], n_cells=20)
        network.simulate_flow(net2, semiflow.initial_state(net2), 1.0,
                              "characteristics", n_outputs=3)
        network.network_generation_verdict(net, [1.0], 1)
        # the tracer rebuilds each semigroup it wraps with dataclasses.replace
        semigroups.laplace_resolvent(network.network_semigroup(net), 1.0, state, 2.0, 8)
        assert cli.main(["euler", "--grid", "200", "--m-ladder", "4"]) in (0, 1)
        assert cli.main(["resolvent", "--grid", "200", "--horizon", "2",
                         "--steps", "8"]) in (0, 1)
        tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()

    metrics = tracer.layer_metrics(1)
    for kernel in ("kernels.trace", "kernels.upwind", "kernels.damped.panel",
                   "kernels.damped.scalar"):
        assert metrics[f"{kernel}.calls"] >= 1, kernel
    assert metrics["kernels.upwind.cell_steps"] > 0
    assert metrics["semigroups.laplace.calls"] >= 2
    assert metrics["semigroups.apply.calls"] >= 1
    assert patched and not tracer._patches
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
