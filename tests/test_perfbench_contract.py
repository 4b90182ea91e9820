"""The names and return shapes the benchmark's tracer reads.

``perfbench/tracer.py`` wraps the public functions of every ``swkb`` module
by name and reads a few return values (``contour_integrate(...).samples_used``
among them).  A traced child run of a small variant of each benchmark
workload must finish and see every count that ``perfbench/run.py`` expects
to be nonzero on that workload.
"""

import importlib.util
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SMALL = {
    "verify8": ["verify", "--order", "4"],
    "quantize8-cubic": ["quantize", "--order", "4", "--levels", "2", "--json"],
    "compare-mixed": ["compare", "--orders", "0,2", "--levels", "1", "--json"],
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_sees_every_expected_count(workload, tmp_path):
    argv = list(SMALL[workload])
    config = bench.WORKLOADS[workload].config(0)
    if config is not None:
        path = tmp_path / "sp.json"
        path.write_text(json.dumps(config))
        argv[1:1] = ["--config", str(path)]
    rec = bench.run_child(os.path.join(ROOT, "src"), [argv], trace=True)
    run = rec["runs"][0]
    assert run["rc"] == 0 and run["error"] is None, run["error"] or run["stdout"][-500:]
    zero = [k for k in bench.EXPECT_NONZERO[workload] if rec["layers"][k] == 0]
    assert zero == []
