"""README code references resolve against the package, and its CLI examples run.

Every backticked reference that starts with a module of `src/qedtangle`
(`amplitudes._leg`, `qedtangle.constants.DEFAULT`, `xsection.py`, ...) must
name a file there, or an attribute or dataclass field reached from it.
Every `qedtangle` command of the CLI section's example block must exit 0.
"""
import dataclasses
import importlib
import os
from pathlib import Path
import re
import shlex
import subprocess
import sys

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


def _cli_examples() -> list[list[str]]:
    """The `qedtangle` commands of the first sh block under '## CLI', as argv lists."""
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.startswith("qedtangle ")]


def test_readme_cli_examples_run(tmp_path):
    examples = _cli_examples()
    assert [argv[1] for argv in examples] == ["scan", "threshold", "point", "xsec", "audit"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    for argv in examples:
        # the files a command writes go to tmp_path
        for option in ("--out", "--plot-script"):
            if option in argv:
                at = argv.index(option) + 1
                argv[at] = str(tmp_path / argv[at])
        proc = subprocess.run([sys.executable, "-m", "qedtangle", *argv[1:]], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stdout[-2000:], proc.stderr[-2000:])
    assert (tmp_path / "moller.csv").read_text().count("\n") == 300 * 300 + 1
    assert (tmp_path / "moller.gp").is_file()
