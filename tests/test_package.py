"""Package-level sanity tests: version, public exports, subpackage wiring."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro


class TestTopLevel:
    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_default_phy_exported(self):
        assert repro.DEFAULT_PHY == repro.PhyParameters()


SUBPACKAGES = [
    "repro.phy",
    "repro.topology",
    "repro.mac",
    "repro.core",
    "repro.sim",
    "repro.analysis",
    "repro.experiments",
]


class TestSubpackages:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_importable(self, name):
        module = importlib.import_module(name)
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_scheme_names_usable_end_to_end(self):
        # The four paper schemes can all be instantiated through the kind
        # table and produce policies plus a controller.
        from repro.mac import SCHEME_KINDS

        for name in ("standard-802.11", "idlesense", "wtop-csma", "tora-csma"):
            scheme = SCHEME_KINDS[name].scheme()
            policies = scheme.make_policies(3)
            assert len(policies) == 3
            assert scheme.make_controller() is not None


SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def _annotation_names(node):
    """Names an annotation reads, string forward references included."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            names |= _annotation_names(ast.parse(child.value, mode="eval"))
    return names


def _unused_imports(source):
    """Names ``source`` imports and never reads, ``__all__`` exports and
    ``from __future__`` imports excepted."""
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            used |= _annotation_names(node.returns)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


class TestImports:
    def test_no_module_imports_a_name_it_never_uses(self):
        # A package's ``__init__`` imports names to re-export them.
        unused = {
            str(path.relative_to(SRC)): names
            for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
            for names in [_unused_imports(path.read_text())] if names
        }
        assert unused == {}

    def test_scan_sees_unused_and_annotation_only_imports(self):
        source = ("from __future__ import annotations\n"
                  "import math\n"
                  "from typing import List, Optional\n"
                  "__all__ = ['List']\n"
                  "def f(x: 'Optional[int]') -> None:\n"
                  "    return None\n")
        assert _unused_imports(source) == ["math"]

    @pytest.mark.parametrize("library", ["networkx", "scipy"])
    def test_importing_repro_experiments_loads_no(self, library):
        """The topology model is two radii, so it needs no graph library,
        and scipy is loaded only where a closed form is solved."""
        probe = ("import sys, repro.experiments, repro.experiments.__main__, "
                 f"repro.telemetry.report; print({library!r} in sys.modules)")
        assert _run_python(probe) == "False"

    def test_a_campaign_on_every_backend_runs_without_scipy(self):
        probe = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            from repro.analysis import dcf_saturation_throughput
            from repro.experiments.campaign import (
                CampaignExecutor, RunTask, SchemeSpec, TopologySpec,
            )
            from repro.traffic import ArrivalProcess

            def task(**overrides):
                base = dict(scheme=SchemeSpec.make("idlesense"),
                            topology=TopologySpec.connected(8),
                            seed=1, duration=0.4, warmup=0.5)
                base.update(overrides)
                return RunTask(**base)

            executor = CampaignExecutor(jobs=2)
            results = executor.run([
                task(scheme=SchemeSpec.make("standard-802.11")),
                task(topology=TopologySpec.hidden_disc(8, 16.0, 1),
                     traffic=ArrivalProcess.poisson(100.0)),
                task(simulator="slotted", seed=2),
                task(simulator="event", seed=3),
            ])
            print(executor.last_run_stats.executed)
            print(*(r.extra.get("backend", r.extra["simulator"]) for r in results))
            try:
                dcf_saturation_throughput(10)
            except ImportError:
                print("the closed form needs scipy")
        """)
        assert _run_python(probe).splitlines() == [
            "4", "batched conflict-matrix slotted event-driven",
            "the closed form needs scipy",
        ]


def _run_python(source):
    """Run ``source`` in a fresh interpreter on this tree; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run([sys.executable, "-c", source], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()
