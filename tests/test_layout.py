"""Package layout: what the bench wraps exists, and every top-level definition
that no CLI path reaches has a stated reason to stay."""

import ast
import importlib
from pathlib import Path

import pytest

from s3double import cli

PACKAGE = Path(cli.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

ORACLE = "oracle: tests compare the fast path against it"
PAPER = "paper circuit: waits for a CLI record (ROADMAP items 4 and 11)"
ENGINE = "F-move engine of ROADMAP item 6"
BENCH_WRAPPED = "bench-wrapped: bench/layers.py traces it by name"

# Every top-level definition that the name walk from cli.py does not reach.
UNREACHED = {
    "algebra.tensor_matrix": ORACLE,
    "category.restrict": ORACLE,
    "circuits.QuditRegister": PAPER,
    "circuits._controlled_mu_ops": PAPER,
    "circuits._controlled_sigma_ops": PAPER,
    "circuits._flux_exponent_ops": PAPER,
    "circuits._flux_parity_ops": PAPER,
    "circuits._l_minus_ops": PAPER,
    "circuits._l_plus_ops": PAPER,
    "circuits._neg": PAPER,
    "circuits._qubit_controlled_mu_ops": PAPER,
    "circuits.build_K_circuit": PAPER,
    "circuits.build_LT_circuit": PAPER,
    "circuits.choi_matrix": BENCH_WRAPPED,
    "circuits.classify_K_transcript": PAPER,
    "circuits.embed_ribbon_circuit": PAPER,
    "circuits.gate_unitary": ORACLE,
    "circuits.lattice_from_register": PAPER,
    "circuits.lt_operator": ORACLE,
    "circuits.measure_site_circuit": PAPER,
    "circuits.register_from_lattice": PAPER,
    "circuits.simulate": BENCH_WRAPPED,
    "concat_code.codewords": ORACLE,
    "concat_code.naive_transversal_check": PAPER,
    "concat_code.schur_obstruction_check": PAPER,
    "fusion_sim.FusionState": ENGINE,
    "fusion_sim._node_indices": ENGINE,
    "fusion_sim._subtrees": ENGINE,
    "fusion_sim._vertex_slots": ENGINE,
    "fusion_sim.braid": ENGINE,
    "fusion_sim.f_move": ENGINE,
    "fusion_sim.left_comb_shape": ENGINE,
    "fusion_sim.qutrit_state": BENCH_WRAPPED,
    "fusion_sim.to_left_comb": ENGINE,
    "lattice.apply_plaquette": BENCH_WRAPPED,
    "lattice.apply_ribbon": BENCH_WRAPPED,
    "lattice.apply_vertex": ORACLE,
    "lattice.dense_vector": ORACLE,
    "lattice.expanded": BENCH_WRAPPED,
    "lattice.from_dense": ORACLE,
    "lattice.ground_space_rank": ORACLE,
    "lattice.ribbon_operator_matrix": BENCH_WRAPPED,
    "lattice.stabilizer_expectations": ORACLE,
    "lattice.vertex_projector": ORACLE,
    "protocols.step_support": ORACLE,
}


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        return importlib.import_module("layers")


def _bindings(tree):
    """Package imports of one module: ({alias: module} from ``from . import
    x as alias``, {local name: (module, name)} from ``from .x import name``)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return modules, names


def unreached_definitions():
    """{"module.name": line count} of the top-level functions and classes
    outside cli.py that no name chain from cli.py or from module-level code
    reaches.  Names resolve per module: a bare name to that module's own
    definition or its ``from .x import name`` binding, ``alias.name`` through
    ``from . import x as alias``.  A local that shadows a top-level name of
    its own module still counts, so the walk errs towards reachable."""
    defs, roots, bindings = {}, [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        bindings[module] = _bindings(tree)
        for node in tree.body:
            if module != "cli" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            else:
                roots.append((module, node))

    def resolve(module, name):
        while (module, name) not in defs:
            if name not in bindings[module][1]:
                return None
            module, name = bindings[module][1][name]
        return module, name

    def references(module, node):
        aliases = bindings[module][0]
        found = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                found.add(resolve(module, n.id))
            elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in aliases:
                found.add(resolve(aliases[n.value.id], n.attr))
        return found - {None}

    reached, todo = set(), set().union(*(references(m, node) for m, node in roots))
    while todo:
        key = todo.pop()
        reached.add(key)
        todo |= references(key[0], defs[key]) - reached
    return {
        f"{module}.{name}": node.end_lineno - min(
            [node.lineno] + [d.lineno for d in node.decorator_list]
        ) + 1
        for (module, name), node in defs.items()
        if (module, name) not in reached
    }


class TestBenchNames:
    def test_traced_names_exist(self, layers):
        for module, fns in layers.LAYERS.items():
            mod = importlib.import_module("s3double." + module)
            for fn in fns:
                assert callable(getattr(mod, fn.name, None)), f"{module}.{fn.name}"

    def test_aliases_exist(self, layers):
        for (module, name), aliases in layers.ALIASES.items():
            for target in (module,) + aliases:
                mod = importlib.import_module("s3double." + target)
                assert callable(getattr(mod, name, None)), f"{target}.{name}"


class TestReachability:
    def test_every_unreached_definition_has_a_reason(self):
        unreached = unreached_definitions()
        # a new dead definition, or a listed one that is gone or now reachable
        assert sorted(set(unreached) - set(UNREACHED)) == []
        assert sorted(set(UNREACHED) - set(unreached)) == []

    def test_bench_wrapped_reasons_are_traced(self, layers):
        traced = {f"{m}.{fn.name}" for m, fns in layers.LAYERS.items() for fn in fns}
        wrapped = {name for name, reason in UNREACHED.items() if reason == BENCH_WRAPPED}
        assert sorted(wrapped - traced) == []


class TestSampling:
    def test_no_module_calls_choice(self):
        # every categorical draw goes through sampling.law and sampling.draw
        calls = [
            f"{path.stem}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice"
        ]
        assert calls == []

    def test_only_fault_draws_call_random(self):
        # no module outside sampling calls Generator.random: qec's per-edge
        # Bernoulli fault is drawn by sampling.hits_below, at one site; no
        # module draws with Generator.integers (a mixed ancilla is a law)
        calls, faults, integers = [], [], []
        sites = {"random": calls, "hits_below": faults, "integers": integers}
        for path in sorted(PACKAGE.glob("*.py")):
            if path.stem == "sampling":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                attr = getattr(getattr(node, "func", None), "attr", None)
                if attr in sites:
                    sites[attr].append(f"{path.stem}:{node.lineno}")
        assert calls == []
        assert len(faults) == 1 and faults[0].startswith("qec:"), faults
        assert integers == []


class TestOneCategory:
    """The label layer runs on the shipped category alone."""

    def test_label_layer_takes_no_category(self):
        # a function of fusion_sim or qec with a `data` parameter could be
        # handed a second table
        takers = [
            f"{module}.{node.name}"
            for module in ("fusion_sim", "qec")
            for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
            if isinstance(node, ast.FunctionDef)
            and any(arg.arg == "data" for arg in ast.walk(node.args) if isinstance(arg, ast.arg))
        ]
        assert takers == []

    def test_no_table_cache_on_the_category(self):
        uses = [
            f"{path.stem}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Attribute) and node.attr == "_derived")
            or (isinstance(node, ast.Name) and node.id == "_derived")
        ]
        assert uses == []


class TestOneGadget:
    """The concatenated code's logical CC runs from its block count alone."""

    def test_block_count_is_the_only_input(self):
        # a schedule object, a recovery switch or a second fault list would
        # restate what the block count already fixes
        tree = ast.parse((PACKAGE / "concat_code.py").read_text())
        retired = [
            f"{node.name}({arg.arg})"
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            for arg in ast.walk(node.args)
            if isinstance(arg, ast.arg) and arg.arg in ("correct", "schedule", "extra_errors")
        ]
        retired += [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "GateSchedule"
        ]
        assert retired == []

    def test_one_code_builder(self):
        # every code of the gadget is one Shor-type family, built in one place
        tree = ast.parse((PACKAGE / "concat_code.py").read_text())
        builders = [
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(
                isinstance(call, ast.Call) and getattr(call.func, "id", None) == "QuditCSSCode"
                for call in ast.walk(node)
            )
        ]
        assert builders == ["shor_code"]

    def test_branches_are_picked_by_row_mask(self):
        # a Python selector per branch would restate what a mask of the
        # block-bit rows (or of the pool indices) already says
        tree = ast.parse((PACKAGE / "concat_code.py").read_text())
        calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_transform_pool"
        ]
        assert calls
        assert [call.lineno for call in calls if isinstance(call.args[1], ast.Lambda)] == []


class TestOneQutritState:
    """The logical-qutrit protocols run on pair arrays alone."""

    PROTOCOLS = ("measure_MA", "measure_MU", "merge_qutrits", "split_qutrit", "factor_halves")
    TREE_NAMES = {"FusionState", "qutrit_state", "validate"}

    @staticmethod
    def _names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
        }

    def test_no_protocol_path_names_a_fusion_tree(self):
        # a fusion tree built, or validated, on the way into or out of a
        # protocol, directly or through a fusion_sim helper, or by the CLI
        tree = ast.parse((PACKAGE / "fusion_sim.py").read_text())
        defs = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        found, seen, todo = [], set(), list(self.PROTOCOLS)
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            names = self._names(defs[name])
            found += [f"fusion_sim.{name}: {n}" for n in sorted(names & self.TREE_NAMES)]
            todo += sorted(names & set(defs))
        cli_names = self._names(ast.parse((PACKAGE / "cli.py").read_text()))
        found += [f"cli: {n}" for n in sorted(cli_names & self.TREE_NAMES)]
        assert found == []
