"""Structural guard: what a node is made of, what a fault action means
and what Table 1 means are each written in one module, and a ball has
one shape.

Read off the syntax tree of every module under ``src/repro`` — not off
its formatting. A host that grows its own copy of the node wiring (a
fourth constructor of the process, a second dispatch chain, another
recover-and-reopen, its own resume or respawn hold), of the fault
interpreter or of a Table 1 scan fails here, and so does a second
shape of ball, a ball found by testing for a tuple, the return of a
bench driver, byte estimate or second performance harness the
end-to-end benchmark replaced, a peer sampling service beyond the
two the paper evaluates, or a stability predicate, record type or
send-only transport the core no longer has. A fabric that grows its
own partition map, fault window or fault verb fails here too: each
fault is defined once, in ``repro/fabric.py``. And what a caller can set
is pinned: a new configuration field or constructor keyword shows up
here as a diff.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, Iterator, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

STACK = "stack.py"
INTERPRETER = "faults/interpreter.py"

FAULT_ACTIONS = {
    "CrashNodes",
    "PartitionNetwork",
    "HealPartition",
    "LossBurst",
    "LatencySpike",
    "CorruptDatagrams",
    "ByzantineNodes",
    "ScrambleState",
}

#: Load-time checks of what a drill supports, not interpretation:
#: (module, enclosing function) pairs excepted by name.
SCENARIO_CHECKS = {
    ("experiments/drill.py", "run_drill"),
    ("experiments/service_drill.py", "load_scenario"),
}


def modules() -> Dict[str, ast.Module]:
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }


MODULES = modules()


def uses(tree: ast.Module) -> Iterator[Tuple[str, str]]:
    """``(name, enclosing function)`` for every name the module *uses*:
    loaded outside an annotation (imports and string annotations are
    not uses; ``x: Dict[int, SyncManager]`` is not one either)."""

    def walk(node: ast.AST, function: str) -> Iterator[Tuple[str, str]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                    yield child.id, function
                elif isinstance(child, ast.AST):
                    yield from walk(child, function)

    return walk(tree, "")


def modules_where(
    found: Callable[[ast.Module], bool], outside: Tuple[str, ...] = ()
) -> Set[str]:
    return {
        name
        for name, tree in MODULES.items()
        if not name.startswith(outside) and found(tree)
    }


def using(*names: str) -> Callable[[ast.Module], bool]:
    return lambda tree: any(name in names for name, _ in uses(tree))


def test_one_module_builds_the_process():
    assert modules_where(
        using("EpToProcess", "LazyEpToProcess"), outside=("core/", "lazy/")
    ) == {STACK}


def test_one_module_builds_the_sync_manager():
    assert modules_where(using("SyncManager"), outside=("sync/",)) == {STACK}


def test_one_module_opens_a_nodes_journal():
    assert modules_where(using("DeliveryJournal"), outside=("storage/",)) == {STACK}


def test_one_module_recovers_a_node_from_disk():
    def imports_recover(tree: ast.Module) -> bool:
        return any(
            isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("recovery")
            and any(alias.name == "recover" for alias in node.names)
            for node in ast.walk(tree)
        )

    assert modules_where(imports_recover, outside=("storage/",)) == {STACK}


def calls(*methods: str) -> Callable[[ast.Module], bool]:
    """Whether the module calls a method of one of these names."""
    return lambda tree: any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in methods
        for node in ast.walk(tree)
    )


def test_one_module_resumes_and_holds_a_respawned_node():
    """Every host comes back through ``repro.stack.respawn``; none
    resumes a sequence or arms the hold on its own (the processes only
    hand ``resume_sequence`` down to their dissemination layer)."""
    assert modules_where(
        calls("hold", "resume_sequence"), outside=("core/", "lazy/")
    ) == {STACK}


def test_one_module_routes_the_wire_kinds():
    assert modules_where(
        using("LAZY_MESSAGE_TYPES", "SYNC_MESSAGE_TYPES", "OVERLAY_MESSAGE_TYPES"),
        outside=("lazy/", "sync/", "pss/"),
    ) == {STACK}


def test_one_module_interprets_fault_actions():
    def dispatches_on_action_type(name: str, tree: ast.Module) -> bool:
        """An ``isinstance(_, <fault action class[es]>)`` outside the
        drills' load-time scenario checks."""

        def walk(node: ast.AST, function: str) -> bool:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and {
                    n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)
                }
                & FAULT_ACTIONS
                and (name, function) not in SCENARIO_CHECKS
            ):
                return True
            return any(walk(child, function) for child in ast.iter_child_nodes(node))

        return walk(tree, "")

    def expands_actions(tree: ast.Module) -> bool:
        """Reads the fields that turn one action into timed steps."""
        fields = {"recover_after", "heal_after"}
        return any(
            (isinstance(node, ast.Attribute) and node.attr in fields)
            or (isinstance(node, ast.Constant) and node.value in fields)
            for node in ast.walk(tree)
        )

    # The schedule validates its own actions; nobody else may branch on
    # an action's type (the interpreter dispatches on ``action.kind``
    # through one table, so not even it does).
    by_type = {
        name
        for name, tree in MODULES.items()
        if name != "faults/schedule.py" and dispatches_on_action_type(name, tree)
    }
    assert by_type <= {INTERPRETER}
    assert modules_where(expands_actions, outside=("faults/schedule.py",)) == {
        INTERPRETER
    }


#: Shapes a ball had beside :class:`repro.core.event.Ball`.
OTHER_BALL_SHAPES = {"BallEntry", "SharedBall", "MapBall", "BALL_TYPES", "make_ball"}


def mentions(*names: str) -> Callable[[ast.Module], bool]:
    """Whether a module names any of *names* at all: uses, defines,
    imports or reads it as an attribute."""

    def found(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            named = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.alias, ast.ClassDef, ast.FunctionDef)):
                named = node.name
            if named in names:
                return True
        return False

    return found


def checks_type_tuple(tree: ast.Module) -> bool:
    """An ``isinstance(_, ...tuple...)`` or a ``type(_) is tuple``."""

    def names_tuple(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Name) and n.id == "tuple" for n in ast.walk(node))

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and names_tuple(node.args[1])
        ):
            return True
        if (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Is, ast.Eq)) for op in node.ops)
            and any(names_tuple(side) for side in [node.left, *node.comparators])
        ):
            return True
    return False


def test_a_ball_has_one_shape():
    assert modules_where(mentions(*OTHER_BALL_SHAPES)) == set()


#: What the end-to-end benchmark (``benchmarks/e2e``) measures instead:
#: the bench drivers, and the simulator's per-round byte estimate only
#: one of them read.
BENCH_DRIVERS = {"net_bench", "service_bench", "lazy_bench"}
DELETED_FIELDS = {
    "DisseminationStats": {"metadata_bytes", "payload_bytes"},
    "ExperimentSpec": {"payload_size"},
}


def fields_of(class_name: str) -> Set[str]:
    """The annotated fields of every class named *class_name*."""
    return {
        node.target.id
        for tree in MODULES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == class_name
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }


def test_what_the_e2e_benchmark_measures_stays_deleted():
    assert {f"experiments/{name}.py" for name in BENCH_DRIVERS} & set(MODULES) == set()
    assert modules_where(mentions("records_nbytes")) == set()
    for class_name, deleted in DELETED_FIELDS.items():
        assert fields_of(class_name) & deleted == set(), class_name


#: Extension points of the core that no shipped code supplied: a
#: pluggable stability predicate (Algorithm 2's ``isDeliverable`` is
#: ``ttl > TTL`` under both oracles, applied by the ordering component),
#: the per-process record it read, and a transport without ``send_many``.
DELETED_EXTENSION_POINTS = {"is_deliverable", "EventRecord", "FanoutTransport"}


def probes(attribute: str) -> Callable[[ast.Module], bool]:
    """Whether a module asks whether an object has *attribute*: a
    ``getattr`` or ``hasattr`` naming it."""

    def found(tree: ast.Module) -> bool:
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == attribute
            for node in ast.walk(tree)
        )

    return found


def test_stability_is_one_rule_and_every_transport_fans_out():
    assert modules_where(mentions(*DELETED_EXTENSION_POINTS)) == set()
    assert modules_where(probes("send_many")) == set()


#: ``benchmarks/e2e`` is the one performance harness: the micro-harness,
#: the results file it committed and its timing helpers stay deleted.
REPO = SRC.parents[1]
RETIRED_HARNESS = ("benchmarks/perf", "BENCH_core.json")


def test_the_second_performance_surface_stays_deleted():
    assert [path for path in RETIRED_HARNESS if (REPO / path).exists()] == []
    assert "analysis/profiling.py" not in MODULES
    assert modules_where(mentions("time_callable", "profile_callable")) == set()


#: The peer sampling services the paper evaluates: the idealized uniform
#: view and Cyclon (Figure 9). HyParView and Brahms stay deleted until
#: one comes back with a wire kind, a UDP test and a drill row.
PSS_MODULES = {"pss/__init__.py", "pss/base.py", "pss/uniform.py", "pss/cyclon.py"}


def assigned(tree: ast.Module, name: str) -> object:
    """The literal a module assigns to *name* at its top level."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_the_paper_overlays_are_the_only_overlays():
    assert {path for path in MODULES if path.startswith("pss/")} == PSS_MODULES
    assert assigned(MODULES[STACK], "PSS_KINDS") == ("uniform", "cyclon")


def test_every_ball_entry_is_written_on_the_event_record():
    """Kinds 7 and 9 sit on the varint record like kind 1: their
    fixed-width entry layouts and the lazy layer's fixed id-entry size
    stay deleted, and the record's third size is its head's."""
    deleted = ("_ID_ENTRY", "_SIGNED_ENTRY", "ID_ENTRY_BYTES", "metadata_nbytes")
    assert modules_where(mentions(*deleted)) == set()
    assert mentions("wire_head", "parse_head")(MODULES["runtime/codec.py"])


def test_no_module_finds_a_ball_by_testing_for_a_tuple():
    assert modules_where(checks_type_tuple) == set()


#: Table 1 is judged by one module: the survivor checker and the report
#: classes it and the authenticity scan had stay deleted, and each scan
#: is written once.
CHECKER = "metrics/checker.py"
RETIRED_CHECKS = ("SurvivorReport", "AuthenticityReport")


def writes(text: str) -> Callable[[ast.Module], bool]:
    """Whether a module has a string constant (or f-string part)
    containing *text*."""
    return lambda tree: any(
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and text in node.value
        for node in ast.walk(tree)
    )


def test_table_one_is_judged_in_one_module():
    assert "faults/verify.py" not in MODULES
    assert modules_where(mentions(*RETIRED_CHECKS)) == set()
    assert modules_where(writes("delivered forged content")) == {CHECKER}
    assert modules_where(writes("non-increasing order keys")) == {CHECKER}


#: Each fault's state, verbs and rule live in one module; the fabrics
#: inherit them (docs/FAULTS.md).
FABRIC = "fabric.py"
FAULT_DEFINITIONS = {
    "_crosses_partition",
    "set_partition",
    "heal_partition",
    "set_loss_burst",
    "set_latency_spike",
    "set_corruption",
}


def defines(*names: str) -> Callable[[ast.Module], bool]:
    """Whether a module defines a function or method named one of
    *names*."""
    return lambda tree: any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in names
        for node in ast.walk(tree)
    )


def test_each_fault_is_defined_in_one_module():
    assert modules_where(defines(*FAULT_DEFINITIONS)) == {FABRIC}
    for name in FAULT_DEFINITIONS:
        assert defines(name)(MODULES[FABRIC]), name


def test_the_guard_sees_what_it_guards():
    """The rules above are not vacuous: the names they look for exist
    where they are allowed to."""
    assert using("EpToProcess")(MODULES["lazy/process.py"])
    assert using("DeliveryJournal")(MODULES[STACK])
    assert not using("DeliveryJournal")(MODULES["sim/cluster.py"])  # annotations only
    assert calls("resume_sequence")(MODULES["core/process.py"])
    assert not calls("hold")(ast.parse("stack.hold"))  # read, not called
    assert ("isinstance", "load_scenario") in set(
        uses(MODULES["experiments/service_drill.py"])
    )
    # The fabrics and the inbox find a ball by its one type.
    assert mentions("is_deliverable")(ast.parse("oracle.is_deliverable(record)"))
    assert mentions("EventRecord")(ast.parse("class EventRecord: pass"))
    assert probes("send_many")(ast.parse('getattr(transport, "send_many", None)'))
    assert not probes("send_many")(ast.parse("transport.send_many(0, [1], ball)"))
    assert using("Ball")(MODULES[STACK])
    assert using("Ball")(MODULES["sim/network.py"])
    assert mentions("Ball")(MODULES["core/event.py"])
    assert checks_type_tuple(ast.parse("isinstance(message, (tuple, Other))"))
    assert checks_type_tuple(ast.parse("type(message) is tuple"))
    # The deleted fields' classes are still there to be read.
    assert "entries_relayed" in fields_of("DisseminationStats")
    assert "mode" in fields_of("ExperimentSpec")
    assert "experiments/service_drill.py" in MODULES
    # The checker's scans are found by the strings they write.
    assert writes("twice")(MODULES[CHECKER])
    assert writes("forged content")(ast.parse('f"node {n} delivered forged content"'))
    # A fault verb is found where it is defined, not where it is called.
    assert defines("heal_partition")(ast.parse("class N:\n def heal_partition(self): pass"))
    assert not defines("heal_partition")(MODULES["faults/interpreter.py"])
    # A method's parameters are read after self, keyword-only ones too.
    assert parameters_of(STACK, "NodeStack", "__init__")[:2] == ("node_id", "config")
    assert parameters_of("service/service.py", "BroadcastService", "publish") == (
        "topic",
        "payload",
        "wait",
    )


# ----------------------------------------------------------------------
# The settable surface
# ----------------------------------------------------------------------

#: Every field of the configuration objects.
CONFIG_FIELDS = {
    "EpToConfig": {
        "fanout",
        "ttl",
        "round_interval",
        "clock",
        "tagged_delivery",
        "expose_stability",
        "mode",
    },
    "ClusterConfig": {"epto", "pss", "drift", "expected_size", "round_phase"},
    "SyncConfig": {"interval_rounds"},
}

#: (module, class, method) -> its parameters after ``self``, in order.
#: Sizes, timeouts and caps no caller sets are module constants.
PARAMETERS = {
    ("sim/cluster.py", "SimCluster", "__init__"): (
        "sim",
        "network",
        "config",
        "collector",
        "process_factory",
        "storage_dir",
        "storage_fsync",
        "sync",
    ),
    ("runtime/cluster.py", "AsyncCluster", "__init__"): (
        "config",
        "network",
        "pss",
        "drift_fraction",
        "seed",
        "expected_size",
        "storage_dir",
        "storage_fsync",
        "sync",
    ),
    ("service/cluster.py", "ServiceCluster", "__init__"): (
        "config",
        "network",
        "storage_dir",
        "storage_fsync",
        "sync",
        "expected_size",
        "seed",
    ),
    ("service/service.py", "BroadcastService", "__init__"): (
        "host_id",
        "config",
        "network",
        "directories",
        "storage_dir",
        "storage_fsync",
        "sync",
        "expected_size",
        "seed",
    ),
    ("runtime/node.py", "AsyncEpToNode", "__init__"): (
        "node_id",
        "config",
        "network",
        "peer_sampler",
        "on_deliver",
        "on_out_of_order",
        "drift_fraction",
        "seed",
        "system_size_hint",
        "journal",
        "sync_config",
    ),
    ("runtime/node.py", "AsyncEpToNode", "catch_up"): (),
    ("lazy/process.py", "LazyEpToProcess", "__init__"): (
        "node_id",
        "config",
        "peer_sampler",
        "transport",
        "on_deliver",
        "on_out_of_order",
        "time_source",
        "rng",
        "oracle",
        "system_size_hint",
    ),
    ("storage/journal.py", "DeliveryJournal", "__init__"): (
        "directory",
        "fsync",
        "segment_max_bytes",
        "resume",
    ),
    ("sim/latency.py", "PlanetLabLatency", "__init__"): (),
}


def parameters_of(module: str, class_name: str, method: str) -> Tuple[str, ...]:
    """The parameters after ``self`` of *class_name*.*method* in
    *module*; none when the class defines no such method."""
    for cls in ast.walk(MODULES[module]):
        if isinstance(cls, ast.ClassDef) and cls.name == class_name:
            for node in cls.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == method
                ):
                    arguments = node.args.args[1:] + node.args.kwonlyargs
                    return tuple(argument.arg for argument in arguments)
            return ()
    raise LookupError(f"{module}: no class {class_name}")


def test_the_settable_surface_is_pinned():
    for class_name, names in CONFIG_FIELDS.items():
        assert fields_of(class_name) == names, class_name
    for where, names in PARAMETERS.items():
        assert parameters_of(*where) == names, where
