"""The exported surface: every advertised name resolves."""

import ast
import importlib
import importlib.util
import os
import pkgutil
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
