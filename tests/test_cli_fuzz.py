"""Property test of the CLI's exit-code contract: over random arguments of
every subcommand and over small network documents, ``main`` returns 0, 1 or
2 (or argparse exits 2), and no other exception escapes.

Options are drawn with huge, tiny, negative and malformed values.  The run
time of some options grows with their value and is not bounded by the
program (``--grid``, ``--samples``, ``--steps``, ``--n-max``, the m ladder,
``--outputs`` below the storage limit, and the characteristics time on a
graph with an unfed edge, ROADMAP item 4).  Those are drawn from ranges that
keep one call within milliseconds, plus the huge values the program rejects
before it starts, so that the test exercises the contract, not the limits.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semiflow.cli import main

JUNK = st.sampled_from([None, 5, -1.5, "x", [], {}, [None], {"a": 1}])
EXTREME = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, 1e12]


def number(lo, hi, extreme=EXTREME):
    """Float option text: moderate values, extremes, and strings argparse
    or the program must reject."""
    return st.one_of(st.floats(lo, hi, allow_nan=False).map(repr),
                     st.sampled_from(extreme).map(repr),
                     st.sampled_from(["nan", "-inf", "1e999", "abc", ""]))


def count(lo, hi, huge=()):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(list(huge) + ["2.5", "x"]))


GRID = count(-1, 24)


def options(**strategies):
    """``--name=value`` pairs in random order, each one present or not."""
    pairs = [st.one_of(st.none(), s.map(lambda v, k=k: f"--{k.replace('_', '-')}={v}"))
             for k, s in strategies.items()]
    return st.tuples(*pairs).map(lambda opts: [o for o in opts if o is not None])


def optional(strategy):
    return st.one_of(strategy, JUNK)


EDGE = st.fixed_dictionaries({"tail": optional(st.integers(-1, 3)),
                              "head": optional(st.integers(-1, 3))})


@st.composite
def ring_edges(draw):
    # a ring through every vertex plus chords: no sinks, so often valid
    n = draw(st.integers(1, 3))
    ring = [{"tail": v, "head": (v + 1) % n} for v in range(n)]
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=4 - n))
    return n, ring + [{"tail": a, "head": b} for a, b in chords]


@st.composite
def network_docs(draw):
    if draw(st.booleans()):
        n_vertices, edges = draw(ring_edges())
    else:
        n_vertices = draw(optional(st.integers(-1, 3)))
        edges = draw(optional(st.lists(optional(EDGE), max_size=4)))
    doc = {"vertices": n_vertices, "edges": edges}
    floats = st.floats(-1.0, 2.0, allow_nan=False)
    extra = draw(st.fixed_dictionaries({}, optional={
        "velocities": optional(st.lists(st.floats(-0.5, 2.0, allow_nan=False),
                                        max_size=5)),
        "weights": optional(st.lists(optional(st.fixed_dictionaries({
            "into_edge": st.integers(-1, 4), "from_edge": st.integers(-1, 4),
            "w": st.floats(-0.5, 1.5, allow_nan=False)})), max_size=4)),
        "absorption": optional(st.one_of(floats, st.lists(floats, max_size=5))),
        "grid": optional(st.fixed_dictionaries({"n_cells": optional(st.integers(-1, 12))})),
        "initial": optional(st.lists(optional(floats), max_size=5)),
    }))
    doc.update(extra)
    return draw(st.one_of(st.just(doc), JUNK))


LAMBDAS = st.lists(number(-2.0, 20.0).map(lambda v: f"--lambda={v}"), max_size=3)


@st.composite
def invocations(draw):
    """One argument list and, for network commands, the document it reads."""
    command = draw(st.sampled_from(["check", "check-network", "euler",
                                    "counterexample", "heat", "simulate",
                                    "resolvent"]))
    if command == "check":
        operator = draw(st.sampled_from(["left_shift", "right_translation",
                                         "laplacian"]))
        argv = ["check", f"--operator={operator}", f"--grid={draw(count(2, 24))}"]
        argv += draw(LAMBDAS) + draw(options(samples=count(-3, 4),
                                             seed=count(-2, 2 ** 40)))
        return argv, None
    if command == "check-network":
        return ["check", "--network={doc}"] + draw(LAMBDAS), draw(network_docs())
    if command == "euler":
        ladder = st.one_of(st.lists(st.integers(-1, 20), max_size=4).map(
            lambda ms: ",".join(map(str, ms))), st.sampled_from(["a,4", " ", "4,,8"]))
        return ["euler", f"--grid={draw(GRID)}"] + draw(options(
            operator=st.sampled_from(["left_shift", "right_translation"]),
            t=number(-1.0, 10.0), m_ladder=ladder, x_max=number(-1.0, 30.0),
            n_max=count(-1, 4))), None
    if command in ("counterexample", "heat"):
        return [command, f"--grid={draw(GRID)}"] + draw(options(
            **{"lambda": number(-1.0, 20.0)}, n=count(-1, 6, ["10000000000"]))), None
    if command == "simulate":
        solver = draw(st.sampled_from(["characteristics", "upwind"]))
        # tracing time is exponential in t on a branching graph, and only
        # graphs whose every edge is fed have long times rejected up front
        t = (number(-1.0, 2.0, [e for e in EXTREME if abs(e) < 1.0])
             if solver == "characteristics" else number(-1.0, 20.0))
        argv = ["simulate", "--network={doc}", f"--solver={solver}"] + draw(options(
            t=t, cfl=number(0.2, 1.0),
            outputs=count(-1, 8, ["100000000", str(2 ** 62)])))
        return argv, draw(network_docs())
    return ["resolvent", f"--grid={draw(GRID)}"] + draw(options(
        operator=st.sampled_from(["left_shift", "right_translation"]),
        **{"lambda": number(-1.0, 20.0)},
        input=st.sampled_from(["ones", "bump", "expdecay", "other"]),
        horizon=number(-1.0, 30.0), steps=count(-1, 40))), None


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        assert exc.code == 2, argv
        return 2


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_exit_codes_are_0_1_or_2(invocation):
    argv, doc = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(json.dumps(doc))
        argv = [a.replace("{doc}", str(path)) for a in argv]
        sink = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            warnings.simplefilter("ignore")
            code = exit_code(argv)
    assert code in (0, 1, 2), argv
