"""Every span target of the benchmark tracer (perfbench/spans.py) names a
callable of the package, so a rename cannot silently zero a per-layer
metric: the tracer skips a target it cannot find."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# targets with no callable behind them; their metrics read 0
DEAD = {("assemble", "assemble"), ("assemble", "SparseSymMatrix.full"), ("eigensolve", "solve_gep_largest")}


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


def resolve(target):
    mod_name, attr = target
    obj = importlib.import_module(f"rmplates.{mod_name}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


@pytest.mark.parametrize("target", sorted(set(TARGETS) - DEAD), ids=".".join)
def test_target_resolves(target):
    assert callable(resolve(target))


@pytest.mark.parametrize("target", sorted(DEAD), ids=".".join)
def test_allowlisted_target_is_dead(target):
    # a target that resolves again belongs back among the checked ones
    assert target in TARGETS and resolve(target) is None
