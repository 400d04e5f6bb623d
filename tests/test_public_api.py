"""The exported surface: every advertised name resolves and is used."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rotubes

MODULES = sorted(m.name for m in pkgutil.iter_modules(rotubes.__path__, "rotubes."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_reexports_are_public_names():
    # Each name rotubes re-exports is the module's own object and, where the
    # module declares __all__, listed there.
    with open(rotubes.__file__) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"rotubes.{node.module}")
        for alias in node.names:
            assert getattr(rotubes, alias.name) is getattr(module, alias.name)
            assert alias.name in getattr(module, "__all__", [alias.name]), alias.name


# Exported for library users although no module of the package calls them.
KEPT_EXPORTS = {"curve_length", "length_loss", "geodesic_distance", "mc_quantile_oracle"}


def test_every_export_is_used_by_the_package():
    # A re-exported name must be referenced in a package module other than
    # __init__.  References are read from the syntax tree, so a mention in a
    # docstring does not count, nor does the def or class statement itself.
    package = Path(rotubes.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    exported = {alias.name for node in ast.parse(Path(rotubes.__file__).read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(exported - used - KEPT_EXPORTS) == []


def test_import_loads_no_pipeline_modules():
    # `import rotubes` stays light: the optimizer, the rotation parser, the
    # file formats and the CLI (whose parser is built at import) load on use.
    heavy = ["scipy.optimize", "scipy.spatial", "rotubes.io", "rotubes.cli"]
    code = f"import sys, rotubes; print([m for m in {heavy!r} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(rotubes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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
