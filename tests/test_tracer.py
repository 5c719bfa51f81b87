"""The benchmark's tracer, loaded as it ships, against the package as it is.

``perfbench/tracer.py`` wraps solver functions by module and name.  A name it
cannot resolve, or a result its observers cannot read, would otherwise show
only in the traced benchmark run.
"""
import importlib
import importlib.util
from pathlib import Path

import bulktree
import bulktree.framework as framework_mod
import bulktree.gmm as gmm_mod
from bulktree.framework import SolveConfig

from conftest import two_cluster

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bulktree_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_module_attribute():
    tracer = load_tracer()
    for mod, names in tracer.TARGETS.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_install_observe_uninstall():
    tracer = load_tracer().Tracer()
    inst = two_cluster()
    tracer.install()
    try:
        framework_mod.solve_oblivious(inst, SolveConfig(seed=1))
        tilde = tuple(v for _, v, _ in bulktree.rob_lower_bounds(inst, 7))
        framework_mod.ellipsoid_feasibility(inst, 0.0, 3, tilde, bit_budget=4)
        gmm_mod.oracle_tree(inst, bulktree.AlphaVector(alpha={0: 1}, D=16), 1)
    finally:
        tracer.uninstall()
    kinds = {k for k in tracer.counts if k.startswith("framework.separation_oracle.kind.")}
    assert kinds <= {f"framework.separation_oracle.kind.{k}" for k in ("tree_cut", "feasible")}
    assert tracer.counts["framework.ellipsoid_feasibility.status.feasible"] == 1
    for name in ("framework.solve_oblivious", "framework.separation_oracle",
                 "framework.ellipsoid_feasibility", "gmm.oracle_tree"):
        assert tracer.calls[name] >= 1, name


def test_tracer_only_names_are_not_exported():
    # The tracer still wraps these, so they stay module attributes; no
    # solve calls them, so the package does not export them.
    for name in ("EllipsoidResult", "ellipsoid_feasibility", "oracle_tree"):
        assert not hasattr(bulktree, name), name
    assert not {"EllipsoidResult", "ellipsoid_feasibility"} & set(framework_mod.__all__)
    assert "oracle_tree" not in gmm_mod.__all__
