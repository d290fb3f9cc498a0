"""Every function, class and method in src/ is named by other src/ code.

Code that only the tests reach is not part of the program: it belongs in
tests/ or nowhere. This walks src/secregress with ast and lists each
definition that no other src/ code names (a reference inside the
definition's own body does not count). Exempt are the public API (names
in an __all__, and the methods of classes in one), dunders, overrides of
a base-class method, and the allowlist below.
"""

import ast
import importlib
import pathlib
import re

import secregress

SRC = pathlib.Path(secregress.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent

# name -> (the file that needs it, why it stays although no src/ code
# names it)
ALLOWED = {
    "Frame.encode_stream": ("tests/test_acceptance.py",
                            "the golden-frame test pins the wire format "
                            "against this reference encoder"),
    "mul_op_count": ("perfbench/tracer.py",
                     "perfbench reads the multiplication counter"),
    "extract_leakage": ("tests/test_acceptance.py",
                        "acceptance criterion 5 and the OTI leakage ledger "
                        "read it"),
    # No src/ code calls it (the engines take their halves from
    # triple_halves); the walker passes it only because smm1_steps has a
    # parameter named half.
    "Triple.half": ("tests/test_acceptance.py",
                    "criteria 1, 2 and 5 take both halves of whole "
                    "triples, zero masks included"),
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class _Walker(ast.NodeVisitor):
    """Definitions with their qualified names, and every name reference
    with the definitions it sits inside."""

    def __init__(self, module: str):
        self.module = module
        self.stack: list[ast.AST] = []
        self.qual: list[str] = []
        self.defs: list[tuple[ast.AST, str, str, ast.ClassDef | None]] = []
        self.refs: list[tuple[str, frozenset]] = []

    def _define(self, node):
        owner = self.stack[-1] if self.stack else None
        cls = owner if isinstance(owner, ast.ClassDef) else None
        self.defs.append((node, node.name, ".".join(self.qual + [node.name]),
                          cls))
        self.stack.append(node)
        self.qual.append(node.name)
        self.generic_visit(node)
        self.qual.pop()
        self.stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _ref(self, name: str):
        self.refs.append((name, frozenset(map(id, self.stack))))

    def visit_Name(self, node):
        self._ref(node.id)

    def visit_Attribute(self, node):
        self._ref(node.attr)
        self.generic_visit(node)


def _public(tree) -> set[str]:
    out = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            out |= set(ast.literal_eval(node.value))
    return out


def _overrides(module: str, qualname: str) -> bool:
    """Whether the method at module.qualname redefines a base class's."""
    owner, _, name = qualname.rpartition(".")
    obj = importlib.import_module(module)
    for part in owner.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return any(name in vars(base) for base in obj.__mro__[1:])


def _walk():
    walkers, public = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        walker = _Walker(_module_name(path))
        walker.visit(tree)
        walkers.append(walker)
        public |= _public(tree)
    return walkers, public


def unreached_names() -> list[str]:
    walkers, public = _walk()
    refs = [r for w in walkers for r in w.refs]
    out = []
    for w in walkers:
        for node, name, qual, cls in w.defs:
            if (name.startswith("__") and name.endswith("__")
                    or qual in ALLOWED or name in public
                    or cls is not None and cls.name in public
                    or cls is not None and _overrides(w.module, qual)):
                continue
            if not any(ref == name and id(node) not in inside
                       for ref, inside in refs):
                out.append(f"{w.module}.{qual}")
    return out


def test_every_src_definition_is_named_by_src_code():
    assert unreached_names() == []


def test_the_allowlist_names_only_what_exists():
    walkers, _public = _walk()
    assert set(ALLOWED) <= {qual for w in walkers for _n, _m, qual, _c
                            in w.defs}


def test_each_allowlisted_name_is_used_by_the_file_it_names():
    for qual, (path, _why) in ALLOWED.items():
        name = qual.rpartition(".")[2]
        text = (REPO / path).read_text()
        assert re.search(rf"\b{name}\b", text), f"{path} never names {qual}"
