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
