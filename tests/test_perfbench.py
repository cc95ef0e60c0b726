"""The benchmark harness under perfbench/ still binds to the package.

perfbench builds its operations from hardylab's public names and wraps
functions by name for its per-layer trace, so a rename or deletion in
src/ would crash the benchmark long after the suite passed. This builds
every workload and installs the tracer without running any operation.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hardylab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the modules perfbench/run.py imports (run.MODULES; importing run itself
# would pin thread variables in this process)
MODULES = ("scalars", "kernel", "families", "weights", "search", "hardy", "checks", "cli")
# tracer keys of functions deleted from the package: the tracer looks keys up
# by the functions it finds, so a stale key matches nothing and does no harm;
# the next change to perfbench/ removes it, and then its entry here
STALE_KEYS = {"hardy.geometric_probe"}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    mods = SimpleNamespace(package=hardylab, **{
        name: importlib.import_module(f"hardylab.{name}") for name in MODULES})
    return SimpleNamespace(tracer=tracer, workloads=workloads, mods=mods)


def test_every_workload_builds_from_the_package(bench, tmp_path):
    for name, build in bench.workloads.WORKLOADS.items():
        ops = build(bench.mods, 1, tmp_path)
        assert ops and all(callable(op.run) and callable(op.check) for op in ops), name
        assert len({op.name for op in ops}) == len(ops), name


def test_tracer_targets_exist_and_uninstall_restores_them(bench):
    T = bench.tracer
    layers = {name: getattr(bench.mods, name) for name in T.LAYERS}
    keys = list(T.COUNTS) + list(T.TIMES)
    assert STALE_KEYS <= set(keys)
    for key in STALE_KEYS:
        assert not hasattr(layers[key.split(".")[0]], key.split(".")[1]), key
    for key in set(keys) - STALE_KEYS:
        owner = layers[key.split(".")[0]]
        for attr in key.split(".")[1:]:
            owner = getattr(owner, attr)
        assert callable(owner), key

    namespaces = [bench.mods.package] + [getattr(bench.mods, n) for n in MODULES]
    owners = namespaces + [getattr(layers[layer], cls)
                           for layer, methods in T.METHODS.items() for cls, _ in methods]
    before = [dict(vars(owner)) for owner in owners]
    original = bench.mods.hardy.arithmetic_hardy
    tracer = T.Tracer(layers, namespaces)
    tracer.install()
    try:
        assert bench.mods.hardy.arithmetic_hardy is not original
    finally:
        tracer.uninstall()
    for owner, snapshot in zip(owners, before):
        after = vars(owner)
        changed = [k for k, v in snapshot.items() if after.get(k) is not v]
        assert not changed, (owner, changed)
