"""Library code that nothing runs stays out of the package.

Every top-level function and class of `src/localcut` must be named, as a
variable or an attribute, somewhere in the package outside its own
definition.  The names `__init__` lists as exports are strings and do not
count as uses, and the interpreter calls the module dunders.  The exempt
names below are called from outside the package only, each by the caller
given; an exemption that a package use makes needless goes.
"""

import ast
import pathlib

import localcut

PACKAGE = pathlib.Path(localcut.__file__).parent

EXEMPT = {
    "probability_bounds": "acceptance criteria 1 and 2",
    "telescoping_check": "acceptance criterion 3",
    "check_family_condition": "acceptance criterion 4",
    "hypercube_digraph": "acceptance criterion 4",
    "risk_table_exact": "acceptance criteria 1-3 build their tables with "
                        "it; perfbench/spans.py binds it by name",
    "exact_prob": "perfbench/spans.py binds it by name",
    "cond_prob": "perfbench/spans.py binds it by name",
}


def top_level_names_and_uses():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                defined.append((path.name, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return defined, used


def test_every_top_level_name_is_used_in_the_package():
    defined, used = top_level_names_and_uses()
    unused = [f"{module}: {name}" for module, name in defined
              if name not in used and name not in EXEMPT
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []
    assert set(EXEMPT) <= {name for _, name in defined}
    assert set(EXEMPT) & used == set()
