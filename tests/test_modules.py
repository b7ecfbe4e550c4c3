"""The package's modules reach each other only through public names.

A private name (a leading underscore) is a decision its module keeps to
itself: the trie encoding, for one, stays behind `chainsum.chain_trie`
and `chainsum.trie_walk`.  So no module of `src/zetaflat` imports a
private name from another; tests may still reach into a module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zetaflat"
SOURCES = sorted(PACKAGE.glob("*.py"))


def private_imports(source):
    """(module, name) of each `from .module import _name` in `source`."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_the_scan_sees_a_private_import():
    assert private_imports("from .mzv_real import _trie, budget_runs\n"
                           "from ._kernels import dp_sum\n"
                           "from .chainsum import (Residue,\n    _plan)\n") == [
        ("mzv_real", "_trie"), ("chainsum", "_plan")]
    assert private_imports("from itertools import _grouper\n") == []


def test_no_module_imports_a_private_name_of_another():
    assert len(SOURCES) > 5
    found = {path.name: private_imports(path.read_text()) for path in SOURCES}
    assert {name: hits for name, hits in found.items() if hits} == {}
