"""The README's library tour runs as written and states true values."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# Tour expression -> the value its comment states.
STATED = {
    "sswcn_lattice(3, 2).text()": (
        "B0*B2*C2^3*C0 + 2*B0*B2*C4*C2^2*C0 + B0*B2*C4^2*C2*C0 + B0^2*C2^2*C0^2"
    ),
    "bounded_sequence(3, 4, 6, modulus=7)": [1, 1, 5, 0, 5, 6],
    "height_triangle_row(3, 4).entries": {2: 1, 4: 88, 6: 252, 8: 121},
    "next(enumerate_paths(3, 2))": (1, 1, 2, 2, 3, 3),
}


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    return text[start : text.index("```", start)]


def test_readme_tour_runs_and_states_true_values():
    source = _tour()
    namespace: dict = {}
    values = {}
    for statement in ast.parse(source).body:
        segment = ast.get_source_segment(source, statement)
        if isinstance(statement, ast.Expr):
            values[segment] = eval(segment, namespace)
        else:
            exec(segment, namespace)
    for expression, stated in STATED.items():
        assert repr(stated) in source, expression
        assert values[expression] == stated, expression
