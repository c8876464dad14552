"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mildbbm"


def test_every_function_reads_each_of_its_parameters():
    # a parameter its function never reads is a setting no caller can use;
    # lambdas are left out, since each fills a call shape set by its caller
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs]
            params += [p.arg for p in (args.vararg, args.kwarg) if p is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [f"{path.name}:{node.lineno} {node.name}({p})" for p in params if p not in read]
    assert unread == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    # a private name (_x, not a dunder) is read only by the module that
    # defines it: by a def or class, or by assigning it as a name or an
    # attribute; an import of a private name is always a read from elsewhere
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                foreign += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if _is_private(a.name)]
            elif isinstance(node, ast.Attribute) and _is_private(node.attr) and node.attr not in defined:
                foreign.append(f"{path.name}:{node.lineno} {node.attr}")
    assert foreign == []
