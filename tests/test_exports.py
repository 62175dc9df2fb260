from pathlib import Path

import oddsaudit


def test_public_names_resolve_once_in_sorted_order():
    names = oddsaudit.__all__
    assert all(hasattr(oddsaudit, name) for name in names)
    assert len(names) == len(set(names))
    assert names == sorted(names)
    # One fixed evidence cap, and no error for raising it.
    for listed in (names, dir(oddsaudit)):
        assert [name for name in listed if "EVIDENCE" in name] == ["MAX_EVIDENCE"]
        assert not [name for name in listed if name.endswith("CapError")]


def test_readme_library_sketch_runs(capsys):
    """The README's library sketch runs as written, so it names only what exists."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("hypotheses: 3\n")
