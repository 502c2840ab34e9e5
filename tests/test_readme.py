from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_map_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library map"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    exec(compile(code, f"{README}:Library map", "exec"), {})
