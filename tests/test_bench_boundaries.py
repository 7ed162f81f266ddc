"""The names the benchmark traces stay where it looks for them.

perfbench/run.py reads each per-layer metric from the spans of one
boundary: a public function of one targetcost module that another module
imports.  A boundary that disappears, say because its last importer
stopped importing it, prints that metric as null.  These checks only read
perfbench/; the `run` fixture (conftest.py) loads perfbench/run.py.
"""

import importlib
import inspect

import targetcost


def _function(span_name):
    layer, name = span_name.split(".")
    return getattr(importlib.import_module(f"targetcost.{layer}"), name)


def test_every_metric_boundary_is_traced(run):
    tracer = run.Tracer(targetcost, run.ANNOTATE)
    traced = tracer.boundaries | {"cli.main"}
    missing = sorted({boundary for _unit, boundary, _fn, _moves
                      in run.LAYER_METRICS.values()} - traced)
    assert missing == []


def test_annotated_parameters_exist(run):
    missing = [f"{span}({param})" for span, wanted in run.ANNOTATE.items()
               for param in wanted.values()
               if param not in inspect.signature(_function(span)).parameters]
    assert missing == []


def test_block_size_is_exposed():
    assert isinstance(targetcost.sim.BLOCK, int)


def test_sizing_constants_exist(run):
    # working_set_bytes returns None once a constant it reads is gone.
    assert isinstance(targetcost.ode.GRID_DZ, float)
    assert isinstance(targetcost.ode.DEFAULT_EPSILON, float)
    assert run.working_set_bytes(run.SIZES["full"]) is not None
