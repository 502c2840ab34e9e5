from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_map_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library map"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    exec(compile(code, f"{README}:Library map", "exec"), {})


def test_certificate_paragraph_names_every_node_field(a1_half):
    from torsod import certificate_to_obj, generation_certificate

    text = README.read_text(encoding="utf-8")
    start = text.index("**Generation certificate**")
    paragraph = text[start:text.index("\n\n", start)]
    obj = certificate_to_obj(generation_certificate(a1_half.datum, [(1, 1)]))
    missing = [key for key in obj["nodes"][0] if f"`{key}`" not in paragraph]
    assert not missing, missing
