"""Every code name that docs/sign_ledger.md cites exists in src/ or tests/.

Inside each backticked span of the ledger: a file path must exist; a
`module.name` must be defined at the top level of that module, and a
`Class.name` in that class or a base of it; a bare snake_case name must be
defined or taken as a parameter somewhere in src/ or tests/.  A math
symbol with a one-letter subscript (`q_j`, `dz_j`, `v_i`) is not a code
name."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
LEDGER = ROOT / "docs" / "sign_ledger.md"
SOURCES = sorted((ROOT / "src" / "defalg").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)

SPAN = re.compile(r"`([^`]+)`")
PATH = re.compile(r"[\w/]+\.(?:py|json|md)\b")
QUALIFIED = re.compile(r"(?<![\w.])((?:tests/)?[A-Za-z_]\w*)\.([A-Za-z_]\w*)")
SNAKE = re.compile(r"(?<![\w.])_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b")
MATH = re.compile(r"[a-z]{1,2}_[a-z0-9]")


def _definitions():
    """(top-level names per module, (members, base names) per class, every
    name defined or taken as a parameter anywhere)."""
    modules, classes, anywhere = {}, {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                top.update(t.id for t in targets if isinstance(t, ast.Name))
        modules[path.stem] = top
        if path.parent.name == "tests":
            modules[f"tests/{path.stem}"] = top
        anywhere.add(path.stem)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                anywhere.add(node.name)
            elif isinstance(node, ast.arg):
                anywhere.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                anywhere.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                anywhere.add(node.attr)
            if isinstance(node, ast.ClassDef):
                members = {
                    t.id
                    for stmt in node.body
                    if isinstance(stmt, ast.Assign)
                    for t in stmt.targets
                    if isinstance(t, ast.Name)
                }
                for sub in ast.walk(node):
                    if isinstance(sub, ast.FunctionDef):
                        members.add(sub.name)
                    elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                        members.add(sub.attr)
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                classes[node.name] = (members, bases)
    return modules, classes, anywhere


MODULES, CLASSES, ANYWHERE = _definitions()


def _in_class(cls, name):
    if cls not in CLASSES:
        return False
    members, bases = CLASSES[cls]
    return name in members or any(_in_class(base, name) for base in bases)


def missing_names(text):
    """The citations in the backticked spans of `text` that name no file,
    definition or parameter of src/ or tests/, in order."""
    missing = []
    for span in SPAN.findall(text):
        for path in PATH.findall(span):
            if not (ROOT / path).exists():
                missing.append(path)
        span = PATH.sub(" ", span)
        for match in QUALIFIED.finditer(span):
            owner, name = match.groups()
            if owner in MODULES:
                found = name in MODULES[owner]
            else:
                found = _in_class(owner, name)
            if not found:
                missing.append(match.group(0))
        span = QUALIFIED.sub(" ", span)
        for name in SNAKE.findall(span):
            if not MATH.fullmatch(name) and name not in ANYWHERE:
                missing.append(name)
    return missing


def test_every_name_the_ledger_cites_exists():
    assert missing_names(LEDGER.read_text(encoding="utf-8")) == []


def test_the_ledger_guard_catches_a_stale_name():
    # X1 once cited `identities_check`, which was never defined
    text = (
        "reported by `identities_check`, by `lefschetz.identities_check`, "
        "by `Echelon.rref` and in `tests/no_such_oracles.py`; the symbols "
        "`q_j`, `dz_j` and `v_i` and the real `identities_report` pass"
    )
    assert missing_names(text) == [
        "identities_check",
        "lefschetz.identities_check",
        "Echelon.rref",
        "tests/no_such_oracles.py",
    ]
