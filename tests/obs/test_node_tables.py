"""bench_hotpath's per-node timing shim on the autodiff, lowered and int8
executors: it must not perturb the forward, must leave nothing behind,
and must see every graph node of every forward."""

import argparse
import importlib.util
import os

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.nn.quant import calibrate_detector

pytestmark = pytest.mark.obs

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "..", "scripts",
                      "bench_hotpath.py")
ARGS = argparse.Namespace(frames=8, batch_size=4, input_size=32, width=0.25,
                          conf_threshold=0.3, seed=0)


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_hotpath", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def frames(bench):
    return bench.make_video(ARGS)


@pytest.fixture(scope="module")
def pipelines(bench, frames):
    autodiff = bench.build_pipeline(ARGS)
    lowered = bench.build_pipeline(ARGS, lowered=True)
    calibration = calibrate_detector(lowered.infer_model, np.stack(frames))
    quant = bench.build_pipeline(ARGS, precision="int8",
                                 calibration=calibration)
    for pipeline in (autodiff, lowered, quant):
        pipeline.run(frames, batch_size=ARGS.batch_size)  # build the plans
    return autodiff, lowered, quant


def heads(detector, batch):
    with no_grad():
        return [np.array(out.data) for out in detector(Tensor(batch))]


def shim_owners(detector):
    plans = getattr(detector, "_plans", None)
    return [detector] if plans is None else list(plans.values())


def test_shim_leaves_heads_byte_equal_and_goes_away(bench, frames, pipelines):
    batch = np.stack(frames[:ARGS.batch_size])
    for pipeline in pipelines:
        detector = pipeline.infer_model
        baseline = heads(detector, batch)
        with bench.timed_nodes(detector) as totals:
            timed = heads(detector, batch)
        for expected, got in zip(baseline, timed):
            np.testing.assert_array_equal(expected, got)
        assert all(calls == 1 for _, calls in totals.values())
        assert all("run_node" not in owner.__dict__
                   for owner in shim_owners(detector))


def test_tables_in_graph_order_with_equal_calls(bench, frames, pipelines):
    names = [node.name for node in pipelines[0].detector.graph.nodes]
    tables = [bench.node_table(pipeline, frames, ARGS.batch_size)
              for pipeline in pipelines]
    batches = len(frames) // ARGS.batch_size
    for table in tables:
        assert [row["layer"] for row in table] == names
        assert [row["calls"] for row in table] == [batches] * len(names)
        assert all(row["self_s"] >= 0.0 for row in table)
        assert sum(row["share"] for row in table) == pytest.approx(1.0)
