"""Every module-level import in the package is read by its module.

An import kept on purpose (a name that tracing tools resolve through the
module, say) carries `# noqa: F401` on its line.  `__init__.py` is left out:
its imports are the package's exports.

No query loads numpy, and none loads OpenSSL: `hashlib` is imported only
where PLTS export digests environments.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qbisim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each module-level import that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = ("from dataclasses import dataclass, field\n"
              "import json  # noqa: F401\n"
              "@dataclass\nclass A:\n    x: int = 0\n")
    assert unused_imports(source) == [(1, "field")]


QUERIES_WITHOUT_HASHLIB = textwrap.dedent("""
    import sys
    baseline = set(sys.modules)
    import qbisim
    from qbisim import (PLTS, QuantumState, QubitRegister, System,
                        decide_bisim, decide_state_based, distance_upper_bound,
                        parse_module, verify_security)
    from qbisim.cli import main
    assert verify_security(1).value == 0.0
    plus = QuantumState.product(QubitRegister.of(["q1"]), {"q1": "+"})
    s = System(parse_module("Dummy := nil"))
    c = s.config("meas Mcomp[q1; x] . nil", plus)
    d = s.config("apply Dephase[q1] . nil", plus)
    assert not decide_state_based(c, d, s).holds
    assert decide_bisim(s.dirac(c), s.dirac(d), s).holds
    assert distance_upper_bound(s.dirac(c), s.dirac(d), s).value == 0.0
    assert main(["check", sys.argv[1], "--left", "C", "--right", "D",
                 "--rho", "q=+", "--replay", "--output", sys.argv[2]]) == 0
    loaded = sorted(set(sys.modules) - baseline)
    for name in ("numpy", "hashlib", "_hashlib"):
        assert name not in loaded, (name, loaded)
    states = PLTS(s, s.dirac(c)).to_json()["states"]
    assert all(len(node["env_digest"]) == 16 for node in states)
    print("ok")
""")


def test_queries_load_no_hashlib(tmp_path):
    """numpy's import was most of a cold start, and OpenSSL costs every
    engine process a few megabytes; no query needs either, and export
    still digests environments."""
    module = tmp_path / "m.qp"
    module.write_text("C(; q) := meas Mcomp[q; x] . nil\nD(; q) := apply Dephase[q] . nil\n")
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", QUERIES_WITHOUT_HASHLIB, str(module),
                           str(tmp_path / "report.json")],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]
    report = json.loads((tmp_path / "report.json").read_text())
    assert (report["report"]["verdict"], report["replay"]) == ("holds", True)
