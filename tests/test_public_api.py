"""The package loads each submodule the first time one of its names is used;
the public API it exposes is the same objects, the same ``__all__`` and the
same star-import as an eagerly importing package would give."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roughmarket

SRC = Path(roughmarket.__file__).resolve().parents[1]
TRACING_DIR = Path(__file__).resolve().parents[1] / "roughbench"


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter on this ``src``; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TRACING_DIR)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = """\
import json, sys
def loaded():
    return sorted(n for n in sys.modules if n == "roughmarket" or n.startswith("roughmarket."))
import roughmarket as rm
out = {"import": loaded()}
rm.var_phi
out["var_phi"] = loaded()
out["bound"] = "var_phi" in vars(rm)
rm.verify_prop3_bound
out["verify_prop3_bound"] = loaded()
out["mixtures"] = rm.mixtures.__name__
print(json.dumps(out))
"""


def test_a_process_loads_only_the_modules_its_names_need():
    out = _fresh(LOADED)
    assert out["import"] == ["roughmarket", "roughmarket._version"]
    assert set(out["var_phi"]) - set(out["import"]) == {
        "roughmarket.errors", "roughmarket.paths", "roughmarket.variation"}
    assert set(out["verify_prop3_bound"]) - set(out["var_phi"]) == {
        "roughmarket.strategies", "roughmarket.mixtures"}
    assert out["bound"]  # later lookups are plain attribute hits
    assert out["mixtures"] == "roughmarket.mixtures"


def test_every_public_name_is_its_home_modules_object():
    def is_homes(name):
        obj = getattr(roughmarket, name)
        home = "roughmarket._version" if name == "__version__" else obj.__module__
        return getattr(importlib.import_module(home), name) is obj

    assert [name for name in roughmarket.__all__ if not is_homes(name)] == []


def test_dir_lists_every_public_name():
    assert set(roughmarket.__all__) <= set(dir(roughmarket))


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from roughmarket import *", namespace)
    assert set(roughmarket.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(roughmarket, name) for name in roughmarket.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'roughmarket' has no attribute 'no_such_name'"):
        roughmarket.no_such_name
    assert getattr(roughmarket, "default_backend", None) is None


TRACER = """\
import json, sys
import roughmarket, tracing
tracer = tracing.Tracer()
tracer.install(roughmarket)
originals = {name: getattr(roughmarket, name).__wrapped__ for name in tracing.SPANS.values()}
tracer.uninstall()
print(json.dumps({
    "absent": sorted(tracer.absent),
    "restored": all(getattr(roughmarket, name) is fn for name, fn in originals.items()),
    "homes": all(getattr(sys.modules[fn.__module__], name) is fn for name, fn in originals.items()),
}))
"""


def test_tracer_finds_every_name_after_a_bare_import():
    """The benchmark's tracer resolves each traced name on the package itself."""
    assert _fresh(TRACER) == {"absent": [], "restored": True, "homes": True}
