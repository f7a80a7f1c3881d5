"""README code references resolve against the package.

Every backticked reference that starts with a module of `src/qedtangle`
(`amplitudes._leg`, `qedtangle.constants.DEFAULT`, `xsection.py`, ...) must
name a file there, or an attribute or dataclass field reached from it.
"""
import dataclasses
import importlib
from pathlib import Path
import re

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qedtangle"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
REFERENCE = re.compile(r"`(?:qedtangle\.)?(" + "|".join(MODULES) + r")((?:\.\w+)+)")


def _resolves(module: str, dotted: str) -> bool:
    if dotted == ".py":
        return (PACKAGE / f"{module}.py").is_file()
    obj = importlib.import_module(f"qedtangle.{module}")
    for name in dotted.lstrip(".").split("."):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
            obj = None          # a field: nothing further resolves through it
        else:
            return False
    return True


def test_readme_module_references_resolve():
    refs = sorted(set(REFERENCE.findall((ROOT / "README.md").read_text())))
    assert len(refs) > 10           # the pattern still finds the references
    missing = [module + dotted for module, dotted in refs if not _resolves(module, dotted)]
    assert not missing, f"README names what the package lacks: {missing}"
