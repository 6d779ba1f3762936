"""The design budget of ROADMAP aim 2: how many settings and lines the
package has.

A knob is a value a caller may leave out: every defaulted positional or
keyword-only parameter of a ``def`` or ``lambda``, and every annotated
field with a default in a ``@dataclass`` class, counted over the source of
``src/valvehealth``. A change may remove knobs; adding one needs two real
callers that want different values, and a raise of the bound below.

Lines are counted as ``wc -l src/valvehealth/*.py`` counts them. A change
that adds lines raises ``LINE_BUDGET`` and says why; one that removes lines
lowers it to the new total.
"""

import ast
from pathlib import Path

KNOB_BUDGET = 33
LINE_BUDGET = 2371
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "valvehealth"


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def knob_count(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def test_rule_counts_each_kind_of_knob():
    source = '''
def f(a, b=1, *, c, d=2): pass
g = lambda x=0: x
@dataclass(frozen=True)
class C:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
class Plain:
    w: int = 0
'''
    assert knob_count(ast.parse(source)) == 5


def test_package_within_knob_budget():
    total = sum(knob_count(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py"))
    assert total <= KNOB_BUDGET


def test_package_within_line_budget():
    total = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert total <= LINE_BUDGET
