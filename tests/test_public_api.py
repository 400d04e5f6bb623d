"""The exported surface: every advertised name resolves and is used, and every
integer field and every float field of a value type follows one rule per kind."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rotubes
from rotubes.curves import RotationCurve, TimeGrid
from rotubes.errors import InvalidDof

MODULES = sorted(m.name for m in pkgutil.iter_modules(rotubes.__path__, "rotubes."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # The import list in rotubes/__init__.py is the package's one export list;
    # no submodule keeps a second copy of it in __all__.
    assert not hasattr(importlib.import_module(name), "__all__")


def test_package_reexports_are_public_names():
    # Each name rotubes re-exports is the module's own object.
    with open(rotubes.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rotubes.{node.module}")
        for alias in node.names:
            assert getattr(rotubes, alias.name) is getattr(module, alias.name)


# Public, yet called by no module of the package: exports for library users,
# the writers of two formats the package reads, and the console-script entry.
KEPT = {"curves.curve_length", "curves.length_loss", "so3.geodesic_distance",
        "simulation.mc_quantile_oracle", "io.write_curve_csv", "io.action_to_dict",
        "cli.main"}


def _terminal(node):
    """`b` of the reference `a.b`, or the referenced name itself."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_export_is_used_by_the_package():
    # Every public module-level function and class, and every public method or
    # classmethod, defined in the package is referenced by a package module
    # other than __init__.  References are read from the syntax tree, so a
    # mention in a docstring does not count, nor does the def or class
    # statement itself.  `Cls.meth` credits the method of class Cls only;
    # `obj.meth` credits every method named meth.  Dunders and properties are
    # left out.
    package = Path(rotubes.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py") if path.name != "__init__.py"}
    functions, methods = {}, {}              # name -> qualified names
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                functions.setdefault(node.name, set()).add(f"{stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        and not any(_terminal(d) in ("property", "setter")
                                    for d in item.decorator_list)):
                    methods.setdefault(item.name, set()).add(f"{stem}.{node.name}.{item.name}")
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _terminal(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
            used |= functions.get(name, set())
            if isinstance(node, ast.Attribute):
                owner = _terminal(node.value)
                used |= {q for q in methods.get(name, ())
                         if owner not in functions or q.split(".")[1] == owner}
    defined = set().union(*functions.values(), *methods.values())
    assert KEPT <= defined
    assert sorted(defined - used - KEPT) == []


def test_every_private_function_has_a_caller():
    # A private module-level function is referenced by name somewhere in the
    # package (an import of it alone does not count), so a helper that loses
    # its last caller fails here rather than lingering.
    package = Path(rotubes.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.endswith("__")}
    used = {_terminal(node) for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert private and sorted(private - used) == []


def modules_loaded_by(statement):
    """The names in sys.modules after `statement` runs in a fresh interpreter."""
    code = f"import sys; {statement}; print(*sys.modules)"
    src = os.path.dirname(os.path.dirname(rotubes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def scipy_modules(names):
    return sorted(m for m in names if m == "scipy" or m.startswith("scipy."))


def test_import_loads_no_pipeline_modules():
    # `import rotubes` stays light: scipy (each part is imported where it runs),
    # the file formats and the CLI (whose parser is built at import) load on use.
    loaded = modules_loaded_by("import rotubes")
    heavy = ["scipy.optimize", "scipy.spatial", "rotubes.io", "rotubes.cli"]
    assert [m for m in heavy if m in loaded] == []
    assert scipy_modules(loaded) == []


def test_cli_import_loads_no_scipy():
    assert scipy_modules(modules_loaded_by("import rotubes.cli")) == []


def test_bench_hook_targets_are_bound():
    # bench/run.py --trace 1 exits 2 when a hook target of bench/tracing.py is
    # gone or bound by no module; a rename that would do that fails here too.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = {m: dict(vars(importlib.import_module(m))) for m in tracing.MODULES}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer._restore
    finally:
        tracer.uninstall()
    for name, attrs in before.items():
        module = vars(importlib.import_module(name))
        assert all(module[attr] is value for attr, value in attrs.items()), name


def test_readme_states_the_package_line_count():
    # README's "The package is N lines" is `wc -l src/rotubes/*.py`.
    package = Path(rotubes.__file__).parent
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"The package is\s+(\d+)\s+lines", readme)
    counted = sum(path.read_text(encoding="utf-8").count("\n") for path in package.glob("*.py"))
    assert stated == [str(counted)]


def int_field_types():
    """{"module.Class": (class, names of its fields annotated `int`)} over the package."""
    found = {}
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == name:
                ints = [f.name for f in dataclasses.fields(obj) if f.type == "int"]
                if ints:
                    found[f"{name.split('.')[1]}.{obj.__name__}"] = (obj, ints)
    return found


# Valid keyword arguments of each value type with a field annotated `int`.
VALID_FIELDS = {
    "gkf.EcContext": lambda: dict(n=10, l1=1.0),
    "simulation.ErrorProcessSpec": lambda: dict(i=2, l=2, j=1, sigma=0.05),
    "tubes.ConfidenceTube": lambda: dict(center=RotationCurve.identity(TimeGrid.uniform(5)),
                                         s=0.01 * np.broadcast_to(np.eye(3), (5, 3, 3)),
                                         hquant=1.0, alpha=0.05, n=10),
    "io.DatasetManifest": lambda: dict(sessions={"a": ["a.csv"]}, grid_size=11),
}

# Result types that only the package builds, from values it has already checked.
BUILT_BY_THE_PACKAGE = {
    "simulation.CoverageReport": "coverage_experiment fills it from a checked spec, n and reps",
    "tubes.TubeIngredients": "tube_ingredients takes n from the sample's size",
    "battery.BatteryEntry": "run_battery copies a ROWS key and its checked report",
}


def test_every_int_field_type_is_listed():
    # A new value type with an `int` field joins one of the two tables above.
    assert sorted(int_field_types()) == sorted(VALID_FIELDS.keys() | BUILT_BY_THE_PACKAGE.keys())


@pytest.mark.parametrize("qualname", sorted(VALID_FIELDS))
def test_int_fields_refuse_bools_and_fractions(qualname):
    # One rule for every integer field: an Integral, numpy's included, that is
    # not a bool, refused at construction by an error that names the field.
    cls, ints = int_field_types()[qualname]
    kwargs = VALID_FIELDS[qualname]()
    for field in ints:
        for bad in (True, 2.5, kwargs[field] + 0.5):   # the last passes every range check
            with pytest.raises((ValueError, InvalidDof), match=rf"(?i)\b{field}\b"):
                cls(**{**kwargs, field: bad})
        assert getattr(cls(**{**kwargs, field: np.int64(kwargs[field])}), field) == kwargs[field]


# Float fields of the value types in VALID_FIELDS, each with an int it accepts (or None).
FLOAT_FIELDS = [("gkf.EcContext", "l1", 2), ("simulation.ErrorProcessSpec", "sigma", 1),
                ("tubes.ConfidenceTube", "hquant", 3), ("tubes.ConfidenceTube", "alpha", None)]


@pytest.mark.parametrize("qualname, field, whole", FLOAT_FIELDS)
def test_float_fields_refuse_bools_and_strings(qualname, field, whole):
    # One rule for every float field: a Real, numpy's and the ints included, that
    # is not a bool, refused at construction by an error that names the field.
    cls = int_field_types()[qualname][0]
    kwargs = VALID_FIELDS[qualname]()
    for bad in (True, str(kwargs[field]), None):
        with pytest.raises(ValueError, match=rf"(?i)^{field}\b"):
            cls(**{**kwargs, field: bad})
    for good in (np.float64(kwargs[field]), whole):
        if good is not None:
            assert getattr(cls(**{**kwargs, field: good}), field) == good


@pytest.mark.parametrize("qualname, field, whole", FLOAT_FIELDS)
def test_float_fields_store_python_floats(qualname, field, whole):
    # As an integer field stores int(value), a float field stores float(value),
    # so a float32 argument does not carry float32 arithmetic along.
    cls = int_field_types()[qualname][0]
    kwargs = VALID_FIELDS[qualname]()
    for value in (np.float32(kwargs[field]), np.float64(kwargs[field]), whole):
        if value is not None:
            stored = getattr(cls(**{**kwargs, field: value}), field)
            assert type(stored) is float and stored == float(value)
