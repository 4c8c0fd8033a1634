"""The package exports only names that the package itself runs, its
classes define only methods the package itself calls, it accepts only the
options some caller reads, and its modules import each other without a
cycle."""

import argparse
import ast
import dataclasses
import graphlib
import importlib
import inspect
from pathlib import Path

import pytest

import prolate_calculus
from prolate_calculus import asymptotics, cli, legendre, nystrom, prolate, transforms, ucalc, verify

PACKAGE = Path(prolate_calculus.__file__).parent


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _loaded_names():
    """Every name and attribute name the package's modules load.  Imports
    are not loads, and ``__init__``'s export table names each export as a
    string, so the table adds nothing."""
    loaded = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def _package_imports(tree):
    """Package modules that a module imports when it runs: its relative
    imports, less those under ``if TYPE_CHECKING:``."""
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")
        for inner in ast.walk(node)
    }
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in typing_only:
            assert node.level == 1, ast.unparse(node)
            imported |= {node.module} if node.module else {a.name for a in node.names}
    return imported


def test_module_imports_form_layers():
    graph = {name[:-3]: _package_imports(tree) for name, tree in _modules()}
    # The translation series sits below prolate, so prolate may call it.
    assert graph["ucalc"] == {"errors", "legendre"}
    assert set().union(*graph.values()) <= set(graph)
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError


def test_every_export_is_loaded_outside_init():
    exported = set(prolate_calculus._EXPORTS)
    assert exported
    unused = sorted(exported - _loaded_names())
    assert not unused, f"exported but never loaded by the package: {unused}"


def test_export_table_resolves_each_name_in_its_module():
    for name, module_name in prolate_calculus._EXPORTS.items():
        module = importlib.import_module(f"prolate_calculus.{module_name}")
        obj = getattr(prolate_calculus, name)
        assert obj is vars(module)[name], name
        assert obj.__module__ == module.__name__, f"{name} is defined in {obj.__module__}"
        # Read through, never cached: a rebinding in the module shows.
        assert name not in vars(prolate_calculus), name
    assert sorted(prolate_calculus.__all__) == sorted(prolate_calculus._EXPORTS)
    assert set(prolate_calculus._EXPORTS) <= set(dir(prolate_calculus))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        prolate_calculus.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from prolate_calculus import no_such_name  # noqa: F401


# Members kept only for ``perfbench/bench_jobs.check_operator``, which reads
# the whole matrix of an exported operator and of T, and which a code change
# does not edit (ROADMAP item 14).  The package itself works on parity blocks.
BENCHMARK_ONLY = {"legendre.py:BandedSymMatrix.to_dense", "transforms.py:OperatorMatrix.entries"}


def test_every_public_method_is_loaded_by_the_package():
    # By name, as for the exports: a method or property counts as used when
    # some module loads an attribute of that name.
    defined = {
        f"{module}:{cls.name}.{item.name}"
        for module, tree in _modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    } - BENCHMARK_ONLY
    loaded = _loaded_names()
    unused = sorted(name for name in defined if name.rsplit(".", 1)[1] not in loaded)
    assert not unused, f"public methods the package never calls: {unused}"


def test_benchmark_only_members_are_read_by_the_benchmark_alone():
    names = {name.rsplit(".", 1)[1] for name in BENCHMARK_ONLY}
    read = {
        node.attr
        for _, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert not names & read
    bench = (PACKAGE.parents[1] / "perfbench" / "bench_jobs.py").read_text(encoding="utf-8")
    assert all(f".{name}" in bench for name in names)


# Each command's argument slots: its positionals by dest, its options by flag.
COMMAND_FLAGS = {
    "pswf": {"--c", "--n-trunc", "--out", "--format"},
    "verify": {"--suite", "--c", "--n-trunc", "--variant", "--seed", "--out", "--format"},
    "export-operator": {"which", "--c", "--n-trunc", "--variant", "--out", "--format"},
    "nystrom": {"--c", "--out", "--format"},
}
REMOVED_FLAGS = [
    ("pswf", "--tol"), ("pswf", "--variant"), ("pswf", "--seed"),
    ("verify", "--tol"),
    ("export-operator", "--tol"), ("export-operator", "--seed"),
    ("nystrom", "--n-trunc"), ("nystrom", "--tol"), ("nystrom", "--variant"), ("nystrom", "--seed"),
    ("nystrom", "--n-nodes"), ("nystrom", "--n-modes"),
]
REMOVED_PARAMETERS = [
    (transforms.finite_fourier_direct, "q_order"),
    (transforms.sinc_kernel_direct, "q_order"),
    (transforms.reconstruct_fourier, "q_xi"),
    (transforms.reconstruct_sinc, "q_xi"),
    (legendre.legendre_table, "extrapolate"),
    (prolate.pswf_eval, "extrapolate"),
    (asymptotics.small_c_diagonal_terms, "k_max"),
    (asymptotics.small_c_operator, "k_max"),
    (ucalc.u_series_scalar, "k_max"),
    (ucalc.u_series_scalar, "tol"),
    (ucalc.boundary_ratios, "n_modes"),
    (nystrom.nystrom_sinc_eigen, "n_nodes"),
    (nystrom.nystrom_sinc_eigen, "n_modes"),
    (transforms._fourier_weights, "variant"),
    (transforms._sinc_weights, "variant"),
    (asymptotics.wkb_value, "b_coeff"),
    (asymptotics.bessel_i0_series, "tol"),
    (verify.VerificationReport.add, "direction"),
]


def _command_slots():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {
            action.option_strings[0] if action.option_strings else action.dest
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for name, sub in commands.choices.items()
    }


def test_each_command_declares_only_the_flags_it_reads():
    slots = _command_slots()
    assert slots == COMMAND_FLAGS
    assert sum(map(len, slots.values())) == 20


@pytest.mark.parametrize(
    "argv", [["pswf"], ["verify", "--suite", "commutation"], ["export-operator", "T"], ["nystrom"]],
    ids=lambda argv: argv[0],
)
def test_a_flag_left_out_takes_its_run_config_default(argv):
    # Each default is written once, in RunConfig: the parser holds none, and
    # a flag left out is absent from the namespace.
    assert not any("default" in spec for spec in cli._FLAGS.values())
    args = cli.build_parser().parse_args(argv)
    assert set(vars(args)) <= {"command", "suite", "which"}
    assert cli.config_from_args(args) == verify.RunConfig()


def test_removed_parameters_are_gone():
    for fn, name in REMOVED_PARAMETERS:
        assert name not in inspect.signature(fn).parameters, (fn.__qualname__, name)
    assert "tol" not in {f.name for f in dataclasses.fields(verify.RunConfig)}
    # Every check passes when its value is at most its tolerance.
    assert [f.name for f in dataclasses.fields(verify.CheckRecord)] == ["name", "value", "tol"]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_removed_flag_is_a_usage_error(command, flag, capsys, tmp_path):
    argv = {"verify": ["verify", "--suite", "commutation"],
            "export-operator": ["export-operator", "T"]}.get(command, [command])
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*argv, flag, "1", "--out", str(tmp_path / "unused.json")])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} 1" in captured.err
    assert captured.out == ""
