"""The package's public names, which load their submodules on first use.

Each check runs in a fresh interpreter, so that no other test has imported
a submodule first.
"""

import ast
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import probstruct
from probstruct import coats_ds

SRC = str(Path(probstruct.__file__).resolve().parent.parent)

PUBLIC = [
    "DocumentError",
    "EquivalenceReport",
    "FIXTURES",
    "Formula",
    "FormulaAlgebra",
    "FormulaSyntaxError",
    "GenParams",
    "IncidenceMap",
    "Interval",
    "Language",
    "LanguageMismatchError",
    "MeasureFn",
    "NotMeasurableError",
    "NotTotalError",
    "ProbabilitySpace",
    "ProbabilityStructure",
    "ProbstructError",
    "SampleSpace",
    "SetAlgebra",
    "StructureKind",
    "UndefinedIncidenceError",
    "UnknownPropositionError",
    "ValidationError",
    "ValidationReport",
    "WorldSet",
    "WrongKindError",
    "basis_of",
    "bel",
    "coats_ds",
    "coats_ic",
    "discrete_algebra",
    "ds_to_ic",
    "equivalent",
    "false_formula",
    "format_formula",
    "format_rational",
    "from_json",
    "full_algebra",
    "generate_algebra",
    "ic_to_ds",
    "incidence",
    "inner_measure",
    "interval",
    "is_total",
    "load",
    "lower_incidence",
    "measure",
    "mobius_mass",
    "parse_formula",
    "parse_rational",
    "plb",
    "random_ic",
    "random_total_ds",
    "round_trip_check",
    "save",
    "to_json",
    "trivial_algebra",
    "true_formula",
    "upper_incidence",
    "validate",
]


def run(code: str, stdin: bytes = b"") -> None:
    """Runs ``code`` in a fresh interpreter that finds only this package."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        input=stdin,
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()


def test_all_is_unchanged():
    assert probstruct.__all__ == PUBLIC
    run(f"import probstruct; assert probstruct.__all__ == {PUBLIC!r}")


@pytest.mark.parametrize("first", ["probstruct.docio", "probstruct.structures", "probstruct.measure"])
def test_measure_stays_the_function_whatever_is_imported_first(first):
    run(
        f"import {first}\n"
        "import probstruct, types\n"
        "assert probstruct.measure is sys.modules['probstruct.measure'].measure\n"
        "assert not isinstance(probstruct.measure, types.ModuleType)\n"
    )


@pytest.mark.parametrize("submodules_first", [False, True])
def test_every_public_name_is_its_defining_modules_object(submodules_first):
    run(
        "import importlib, probstruct\n"
        f"if {submodules_first}:\n"
        "    for module in ('docio', 'errors', 'fixtures', 'logic', 'measure', 'structures', 'translate'):\n"
        "        importlib.import_module('probstruct.' + module)\n"
        "for name in probstruct.__all__:\n"
        "    obj = getattr(probstruct, name)\n"
        "    home = getattr(obj, '__module__', 'probstruct.fixtures')  # FIXTURES is a dict\n"
        "    assert home.startswith('probstruct.'), name\n"
        "    assert getattr(importlib.import_module(home), name) is obj, name\n"
    )


def test_star_import_and_dir_cover_all():
    run(
        "import probstruct\n"
        "assert set(probstruct.__all__) <= set(dir(probstruct))\n"
        "names = {}\n"
        "exec('from probstruct import *', names)\n"
        "assert set(probstruct.__all__) <= set(names)\n"
    )


def test_unknown_names_raise():
    run(
        "import probstruct\n"
        "try:\n"
        "    probstruct.nope\n"
        "except AttributeError as e:\n"
        "    assert str(e) == \"module 'probstruct' has no attribute 'nope'\", e\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "try:\n"
        "    from probstruct import nope\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no ImportError')\n"
    )
    assert not hasattr(probstruct, "nope")


def test_a_pickled_structure_loads_after_importing_only_the_package():
    run(
        "import pickle, probstruct\n"
        "st = pickle.loads(sys.stdin.buffer.read())\n"
        "assert type(st) is probstruct.ProbabilityStructure\n"
        "assert st == probstruct.coats_ds()\n",
        stdin=pickle.dumps(coats_ds()),
    )


def test_the_package_imports_only_itself_and_the_standard_library():
    modules = sorted(Path(probstruct.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one
                continue
            outside += [f"{path.name}: {name}" for name in names if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_private_module_name_has_a_reader():
    # a module-level private function, class or constant that no other statement
    # of the package reads is dead code, left behind by a deletion
    defined, readers = [], []  # (module, name, statement); (statement, names read)
    for path in sorted(Path(probstruct.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(path.name, name, node) for name in names if name[:1] == "_" and name[:2] != "__"]
            readers.append((node, {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                                   or isinstance(n, ast.Attribute)}))
    assert len(defined) >= 20
    orphans = [f"{module}: {name}" for module, name, node in defined
               if not any(name in read for other, read in readers if other is not node)]
    assert orphans == []


def test_every_imported_name_is_read():
    # a name a module imports and never reads is left behind by a change;
    # ``__init__`` imports its names to hand them on, so it is not checked
    imported, unread = 0, []
    for path in sorted(Path(probstruct.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
                imported += len(names)
                unread += [f"{path.name}: {name}" for name in names if name not in read]
    assert imported >= 30
    assert unread == []


def test_no_class_defines_ne_and_only_value_defines_of():
    # ``!=`` comes from ``Value.__eq__``, and ``Value._of`` is the one unchecked constructor
    defines = {"__ne__": [], "_of": []}
    for path in sorted(Path(probstruct.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in defines:
                        defines[item.name].append(f"{path.name}: {node.name}")
    assert defines == {"__ne__": [], "_of": ["value.py: Value"]}


def test_readme_limits_state_the_caps():
    from probstruct.logic import MAX_NESTING, MAX_PROPS
    from probstruct.measure import MAX_WORLDS
    from probstruct.structures import MAX_MOBIUS_PROPS
    from probstruct.translate import _ATOM_WORLD_PROPS

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    limits = " ".join(readme.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0].split())
    assert (MAX_PROPS, MAX_WORLDS, MAX_MOBIUS_PROPS, _ATOM_WORLD_PROPS, MAX_NESTING) == (16, 64, 3, 6, 100)
    for stated in [
        f"capped at {MAX_PROPS} propositions and sample spaces at {MAX_WORLDS} worlds",
        f"`mobius_mass`, which does enumerate the formulas, is capped at {MAX_MOBIUS_PROPS} propositions",
        f"{_ATOM_WORLD_PROPS} propositions, the most whose atoms `ic_to_ds` can each make a world, and {MAX_WORLDS} worlds",
        f"refuses a language of more than {_ATOM_WORLD_PROPS} propositions",
        f"nest parentheses at most {MAX_NESTING} deep (`logic.MAX_NESTING`)",
        f"at most {sys.int_info.default_max_str_digits:,} digits",
    ]:
        assert stated in limits
