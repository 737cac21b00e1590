"""What a process imports: each entry point loads the layers it runs
and nothing else, and the package exports stay whole while lazy.

Every import-graph check runs in a fresh interpreter, because this one
has imported everything by the time the suite gets here. A check runs
a short script and reads which ``repro.*`` modules were loaded at each
of its checkpoints.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict, Iterable, Set

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imported by the scripts below: ``loaded()`` reads the ``repro``
#: modules this interpreter has loaded so far.
PRELUDE = """
import json, sys
checkpoints = {}
def loaded(label):
    checkpoints[label] = sorted(
        name for name in sys.modules if name == "repro" or name.startswith("repro.")
    )
"""


def run_script(body: str, *argv: str) -> Dict[str, Set[str]]:
    """Run *body* in a fresh interpreter; return its checkpoints."""
    script = PRELUDE + textwrap.dedent(body) + "\nprint(json.dumps(checkpoints))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    return {
        label: set(names)
        for label, names in json.loads(done.stdout.splitlines()[-1]).items()
    }


def under(modules: Iterable[str], *prefixes: str) -> Set[str]:
    """The modules of *modules* that are, or are under, one of the
    ``repro.``-relative *prefixes*."""
    full = [f"repro.{prefix}" for prefix in prefixes]
    return {
        name
        for name in modules
        if any(name == p or name.startswith(p + ".") for p in full)
    }


#: Layers an eager node on a uniform view, without journal, anti-entropy
#: or authenticator, never runs.
UNUSED_BY_EAGER_UDP = (
    "sim",
    "faults",
    "smr",
    "service",
    "experiments",
    "analysis",
    "storage",
    "lazy.process",
    "lazy.pull",
    "lazy.store",
    "sync.manager",
    "auth.guard",
    "auth.keyring",
)


class TestEntryPoints:
    def test_import_repro_loads_only_the_package(self):
        assert run_script("import repro\nloaded('import')")["import"] == {"repro"}

    def test_eager_udp_loads_no_layer_it_does_not_run(self):
        seen = run_script(
            """
            import repro.runtime.udp, repro.runtime.cluster
            loaded("import")
            from repro.core.config import EpToConfig
            from repro.runtime.cluster import AsyncCluster
            from repro.runtime.udp import UdpNetwork
            cluster = AsyncCluster(
                EpToConfig.for_system_size(8, clock="logical", round_interval=125),
                network=UdpNetwork(seed=1),
                pss="uniform",
            )
            cluster.add_nodes(8)
            loaded("built")
            """
        )
        for label in ("import", "built"):
            assert under(seen[label], *UNUSED_BY_EAGER_UDP) == set(), label
        assert "repro.pss.uniform" in seen["built"] - seen["import"]

    def test_the_object_simulator_loads_neither_the_flat_engine_nor_the_runtime(self):
        seen = run_script(
            """
            import repro.sim.cluster
            loaded("import")
            from repro.core.config import EpToConfig
            from repro.sim.cluster import ClusterConfig, SimCluster
            from repro.sim.engine import Simulator
            from repro.sim.network import SimNetwork
            sim = Simulator(seed=1)
            cluster = SimCluster(
                sim, SimNetwork(sim), ClusterConfig(epto=EpToConfig.for_system_size(8))
            )
            cluster.add_nodes(8)
            cluster.broadcast_from(0, "x")
            sim.run(until=2_000)
            loaded("ran")
            """
        )
        for label in ("import", "ran"):
            assert under(seen[label], "sim.flat", "runtime") == set(), label

    def test_the_service_loads_neither_replication_nor_the_simulator(self):
        seen = run_script(
            """
            import repro.service.cluster
            loaded("import")
            from repro.core.config import EpToConfig
            from repro.service.cluster import ServiceCluster
            cluster = ServiceCluster(EpToConfig.for_system_size(4, round_interval=125))
            cluster.open_topic(0)
            cluster.add_hosts(4)
            loaded("built")
            """
        )
        for label in ("import", "built"):
            assert under(seen[label], "smr", "sim") == set(), label

    def test_the_fault_surface_loads_no_fabric_or_driver(self):
        seen = run_script("import repro.fabric\nloaded('import')")
        assert seen["import"] == {"repro", "repro.fabric"}

    def test_experiment_help_loads_no_driver(self):
        seen = run_script(
            """
            from repro.experiments.cli import main
            try:
                main(["--help"])
            except SystemExit:
                pass
            loaded("help")
            """
        )
        drivers = {n for n in seen["help"] if n.startswith("repro.experiments.fig")}
        assert drivers == set()
        assert under(seen["help"], "sim", "runtime", "faults") == set()


class TestConfiguredLayers:
    """A layer loads when a node is built with it, and everything it
    can need later loads then: a run, a crash and a respawn import
    nothing new."""

    def test_a_secure_durable_runtime_node_loads_its_layers_when_built(self, tmp_path):
        seen = run_script(
            """
            import asyncio, sys
            from repro.auth import HmacAuthenticator, KeyRing
            from repro.core.config import EpToConfig
            from repro.runtime.cluster import AsyncCluster
            from repro.runtime.transport import AsyncNetwork
            from repro.sync.config import SyncConfig

            async def scenario():
                cluster = AsyncCluster(
                    EpToConfig(fanout=3, ttl=4, round_interval=10),
                    network=AsyncNetwork(
                        seed=1, authenticator=HmacAuthenticator(KeyRing("k"))
                    ),
                    storage_dir=sys.argv[1],
                    sync=SyncConfig(),
                )
                cluster.add_nodes(5)
                loaded("built")
                cluster.start_all()
                cluster.nodes[0].broadcast("x")
                assert await cluster.wait_for_deliveries(1, timeout=10)
                cluster.crash_node(4)
                cluster.nodes[1].broadcast("y")
                assert await cluster.wait_for_deliveries(2, timeout=10)
                node = await cluster.respawn_node(4)
                node.start()
                await asyncio.sleep(0.1)
                await cluster.stop_all()
                loaded("respawned")

            asyncio.run(scenario())
            """,
            str(tmp_path),
        )
        built = seen["built"]
        layers = ("auth.guard", "auth.keyring", "sync.manager", "storage.journal")
        assert under(built, *layers, "storage.recovery") == {
            f"repro.{name}" for name in (*layers, "storage.recovery")
        }
        assert seen["respawned"] == built
        unused = ("sim", "lazy.process", "pss.cyclon")
        assert under(built, *unused) == set()

    def test_lazy_mode_loads_the_pull_layer_when_built(self):
        seen = run_script(
            """
            from repro.core.config import EpToConfig
            from repro.sim.cluster import ClusterConfig, SimCluster
            from repro.sim.engine import Simulator
            from repro.sim.network import SimNetwork
            loaded("import")
            sim = Simulator(seed=1)
            cluster = SimCluster(
                sim,
                SimNetwork(sim),
                ClusterConfig(epto=EpToConfig.for_system_size(8, mode="lazy")),
            )
            cluster.add_nodes(8)
            loaded("built")
            cluster.broadcast_from(0, "x")
            sim.run(until=2_000)
            loaded("ran")
            """
        )
        lazy = {"repro.lazy.process", "repro.lazy.pull", "repro.lazy.store"}
        assert lazy & seen["import"] == set()
        assert lazy <= seen["built"]
        assert seen["ran"] == seen["built"]

    @pytest.mark.parametrize("kind", ["uniform", "cyclon"])
    def test_only_the_overlay_being_built_is_loaded(self, kind):
        seen = run_script(
            """
            import sys
            from repro.core.config import EpToConfig
            from repro.sim.cluster import ClusterConfig, SimCluster
            from repro.sim.engine import Simulator
            from repro.sim.network import SimNetwork
            sim = Simulator(seed=1)
            cluster = SimCluster(
                sim,
                SimNetwork(sim),
                ClusterConfig(epto=EpToConfig.for_system_size(8), pss=sys.argv[1]),
            )
            cluster.add_nodes(8)
            cluster.broadcast_from(0, "x")
            sim.run(until=2_000)
            loaded("ran")
            """,
            kind,
        )
        overlays = ("pss.uniform", "pss.cyclon")
        assert under(seen["ran"], *overlays) == {f"repro.pss.{kind}"}


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------


def packages() -> list:
    """``repro`` and every package under it."""
    found = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            found.append(info.name)
    return found


PACKAGES = packages()


def defined_in(package: str, name: str, value: object) -> bool:
    """Whether *value* is the object a module under *package* defines
    (or, for a plain constant, binds) under *name*."""
    home = getattr(value, "__module__", None)
    if isinstance(home, str) and (home == package or home.startswith(package + ".")):
        return vars(sys.modules[home]).get(name) is value
    return any(
        vars(module).get(name) is value
        for module_name, module in list(sys.modules.items())
        if module_name.startswith(package + ".") and module is not None
    )


class TestExports:
    def test_every_package_is_covered(self):
        assert {"repro", "repro.core", "repro.runtime", "repro.sim"} <= set(PACKAGES)
        assert len(PACKAGES) >= 17

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_exported_name_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            if name == "__version__":
                continue
            value = getattr(module, name)
            assert defined_in(package, name, value), f"{package}.{name}"
            assert name in listed, f"{package}.{name}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_an_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        assert not hasattr(module, "no_such_name")

    def test_star_import_binds_every_export(self):
        namespace: Dict[str, object] = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        cluster = importlib.import_module("repro.sim.cluster")
        assert namespace["SimCluster"] is cluster.SimCluster
        assert namespace["__version__"] == repro.__version__

    def test_a_submodule_is_still_importable_through_its_package(self):
        from repro.runtime import codec

        assert codec is sys.modules["repro.runtime.codec"]
