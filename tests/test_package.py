import ast
import types
from pathlib import Path

import soclelab


def test_every_exported_name_resolves_once():
    assert len(soclelab.__all__) == len(set(soclelab.__all__))
    missing = [name for name in soclelab.__all__ if not hasattr(soclelab, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    public = {
        name
        for name, value in vars(soclelab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(soclelab.__all__)) == []


def _unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_check_sees_leftovers():
    source = "import os\nimport re\nfrom x import a, b as c\nre.compile(c)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "a")]


def test_no_unused_module_level_imports():
    # __init__.py re-exports what it imports, so it is exempt.
    package = Path(soclelab.__file__).parent
    unused = {
        path.name: _unused_imports(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}


def _module_names(tree):
    """Names that the imports of ``tree`` bind to a module, mapped to the
    module's last dotted component; ``import a.b`` binds ``a`` to "a"."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if alias.asname:
                    names[alias.asname] = parts[-1]
                else:
                    names[parts[0]] = parts[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


def _module_of(node, modules):
    """The module that ``node`` (a name, or a dotted chain of names
    starting at one bound by an import) refers to, or None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in modules:
        return None
    return chain[0] if chain else modules[node.id]


def _definitions(sources):
    """Module-level functions and classes of ``sources`` (file names to
    code) as (file name, name), and the references the code makes outside
    the definition that binds them: every name it reads, and as (file
    name, name) every attribute it reads off a module (``linalg.rank``
    names rank in linalg.py; ``span.rank`` names nothing)."""
    defined = []
    referenced = set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        modules = _module_names(tree)
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append((fname, own))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id != own:
                    referenced.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr != own:
                    module = _module_of(sub.value, modules)
                    if module is not None:
                        referenced.add((f"{module}.py", sub.attr))
    return defined, referenced


def _is_referenced(definition, referenced):
    return definition[1] in referenced or definition in referenced


def _unreferenced_private_definitions(sources):
    """Private module-level functions and classes that no code names
    outside their own definition; ``sources`` maps file names to code."""
    defined, referenced = _definitions(sources)
    private = [d for d in defined if d[1].startswith("_") and not d[1].startswith("__")]
    return sorted(d for d in private if not _is_referenced(d, referenced))


def _unreferenced_public_definitions(package, others, exported):
    """Public module-level functions and classes of ``package`` (file
    names to code) that are not ``exported`` and that no code of
    ``package`` or ``others`` names outside their own definition."""
    defined, referenced = _definitions(package)
    referenced |= _definitions(others)[1]
    return sorted(
        d for d in defined
        if not d[1].startswith("_")
        and not _is_referenced(d, referenced)
        and d[1] not in exported
    )


def test_private_definition_check_sees_leftovers():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _rec(n):\n    return _rec(n - 1)\n"
        "class _Gone:\n    pass\n",
        "b.py": "from a import _used\n\ndef f():\n    return _used()\n",
        "c.py": "import a\n\ndef _helper():\n    return a._used\n\nx = _helper()\n",
    }
    assert _unreferenced_private_definitions(sources) == [("a.py", "_Gone"), ("a.py", "_rec")]


def test_every_private_definition_is_referenced():
    package = Path(soclelab.__file__).parent
    sources = {
        path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))
    }
    assert _unreferenced_private_definitions(sources) == []


def _test_only_public_definitions(package, others, exported):
    """Names of the public module-level functions and classes of
    ``package`` that are not ``exported``, that no code of ``package``
    names outside their own definition, and that ``others`` name."""
    defined, referenced = _definitions(package)
    named_by_others = _definitions(others)[1]
    return sorted(
        d[1] for d in defined
        if not d[1].startswith("_")
        and not _is_referenced(d, referenced)
        and d[1] not in exported
        and _is_referenced(d, named_by_others)
    )


def test_public_definition_check_sees_leftovers():
    package = {
        "a.py": "def used():\n    pass\n\ndef tested():\n    pass\n\ndef shown():\n    pass\n\n"
        "def rec(n):\n    return rec(n - 1)\n\nclass Gone:\n    pass\n",
        "b.py": "from a import used\n\nx = used()\n",
    }
    others = {"test_a.py": "from a import tested\n\ndef test_it():\n    tested()\n"}
    found = _unreferenced_public_definitions(package, others, {"shown"})
    assert found == [("a.py", "Gone"), ("a.py", "rec")]


def test_an_attribute_names_only_the_definition_of_its_module():
    # Span.rank, a property, is spelled like linalg.rank, a function
    # that only a test calls.
    package = {
        "linalg.py": "def rank(rows):\n    pass\n\nclass Span:\n    @property\n"
        "    def rank(self):\n        return 0\n\ndef _width(span):\n    return span.rank\n",
        "b.py": "from linalg import Span, _width\n\nx = _width(Span()).rank\n",
    }
    assert _unreferenced_public_definitions(package, {}, set()) == [("linalg.py", "rank")]
    for test in (
        "import linalg\n\nlinalg.rank([])\n",
        "import pkg.linalg as la\n\nla.rank([])\n",
        "import pkg.linalg\n\npkg.linalg.rank([])\n",
        "from pkg import linalg\n\nlinalg.rank([])\n",
    ):
        others = {"test_b.py": test}
        assert _unreferenced_public_definitions(package, others, set()) == [], test
        assert _test_only_public_definitions(package, others, set()) == ["rank"], test
    others = {"test_b.py": "import b\n\nb.rank\n"}
    assert _test_only_public_definitions(package, others, set()) == []
    package["b.py"] += "\ndef _rank(x):\n    pass\n\nclass Q:\n    def run(self):\n        return self._rank\n"
    assert _unreferenced_private_definitions(package) == [("b.py", "_rank")]


def test_every_public_definition_is_exported_or_used():
    package = Path(soclelab.__file__).parent
    tests = Path(__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    others = {path.name: path.read_text(encoding="utf-8") for path in sorted(tests.glob("*.py"))}
    assert _unreferenced_public_definitions(sources, others, set(soclelab.__all__)) == []


def test_test_only_definition_check_sees_leftovers():
    package = {
        "a.py": "def used():\n    pass\n\ndef tested():\n    pass\n\ndef shown():\n    pass\n",
        "b.py": "from a import used\n\nx = used()\n",
    }
    others = {"test_a.py": "import a\n\ndef test_it():\n    a.tested(), a.shown(), a.used()\n"}
    assert _test_only_public_definitions(package, others, {"shown"}) == ["tested"]


def test_only_the_named_definitions_serve_the_tests_alone():
    # Each public, unexported definition that no package code uses must
    # have a reason to stay in the package:
    # - nullspace and EliminationOrder: perfbench's tracer wraps both by
    #   name (linalg.nullspace, orders.EliminationOrder.key);
    # - ext_k_piece: the direct linear-algebra check of Ext^i_R(k, M),
    #   independent of the Tor route that ext_k_begin takes.
    # A helper that only test references use belongs in the tests.
    package = Path(soclelab.__file__).parent
    tests = Path(__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    others = {path.name: path.read_text(encoding="utf-8") for path in sorted(tests.glob("*.py"))}
    found = _test_only_public_definitions(sources, others, set(soclelab.__all__))
    assert found == ["EliminationOrder", "ext_k_piece", "nullspace"]
