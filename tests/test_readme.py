"""The Python session in README.md runs as written and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _session_block() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1, "README should hold exactly one Python session"
    return blocks[0]


def test_readme_session_runs_and_its_hausdorff_comments_hold():
    source = _session_block()
    lines = source.splitlines()
    namespace: dict = {}
    results = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            if "is_hausdorff()" in code:
                comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
                results.append((value, comment.split(":", 1)[0]))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert results == [(False, "False"), (True, "True")]
