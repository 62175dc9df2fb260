import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import oddsaudit

PUBLIC_NAMES = (
    "AuditReport ConditionalSpec DEFAULT_MAX_MODELS DegeneratePriorError EXAMPLE_NAMES "
    "ImpossibleEvidenceError IndependenceViolation InvalidModelError MAX_EVIDENCE Model "
    "ModelError ModelFormatError PairIdentities Side SweepConfig SweepLimitError SweepResult "
    "SweepViolation TheoremOutcome ZeroProbabilityError bits_to_signs check_assumptions "
    "check_pair_identities dump dumps example_model from_conditionals load loads "
    "measurement_scenario odds_posteriors parse_rational render_report sign_vectors "
    "signs_to_bits spec_from_grid sweep witness_filename"
).split()


def test_public_names_resolve_once_in_sorted_order():
    names = oddsaudit.__all__
    assert names == PUBLIC_NAMES
    for name in names:  # each is a plain attribute of the package's own modules
        value = getattr(oddsaudit, name)
        assert getattr(value, "__module__", "oddsaudit").startswith("oddsaudit")
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


def _fresh_interpreter(script: str) -> None:
    """Run ``script`` in a new interpreter that imports this checkout's package."""
    src = str(Path(oddsaudit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_only_a_sweep_imports_numpy(tmp_path):
    """A CLI start loads only its command's modules: ``import oddsaudit`` loads
    none of them, ``example`` and
    ``posterior`` load neither the audit nor the sweep, nor ``dataclasses`` (and
    with it ``inspect``); ``audit`` and ``scenario`` do not load the sweep, nor
    either of those.  numpy is the sweep kernel's alone (it loads ``inspect``,
    but no command loads ``dataclasses``), and after a sweep ``oddsaudit.sweep``
    is still the function, even once the submodule is imported by name."""
    _fresh_interpreter(textwrap.dedent(f"""
        import sys, types
        import oddsaudit
        assert [name for name in sys.modules if name.startswith("oddsaudit.")] == []
        from oddsaudit.cli import main
        path, scenario = {str(tmp_path / "g.model")!r}, {str(tmp_path / "s.model")!r}

        def loaded(*names):
            return [name for name in names if name in sys.modules]

        assert main(["example", "glymour", "-o", path]) == 0
        assert main(["posterior", path, "--all", "--method", "odds"]) == 0
        assert main(["posterior", path, "-i", "1", "--observe", "E1=1"]) == 0
        assert loaded("oddsaudit.audit", "oddsaudit.sweep", "dataclasses", "inspect", "numpy") == []
        assert main(["audit", path]) == 0
        assert main(["scenario", "--values", "0,1,2", "--weights", "1/2,1/4,1/4",
                     "--noise", "0:1", "--thresholds", "0,1", "-o", scenario]) == 0
        assert loaded("oddsaudit.audit", "oddsaudit.sweep", "numpy") == ["oddsaudit.audit"]
        assert loaded("dataclasses", "inspect") == []
        assert main(["sweep", "--n", "3", "--m", "2", "--denominator", "2"]) == 0
        assert loaded("oddsaudit.sweep", "numpy", "dataclasses") == ["oddsaudit.sweep", "numpy"]
        import oddsaudit.sweep
        assert not isinstance(oddsaudit.sweep, types.ModuleType)
        assert oddsaudit.sweep is sys.modules["oddsaudit.sweep"].sweep
    """))


def test_public_names_hold_in_any_import_order():
    """The package resolves its public names on first use, yet lists them all at
    once, and a submodule imported first does not hide the name it shares."""
    _fresh_interpreter(textwrap.dedent("""
        import oddsaudit.sweep
        import sys, types
        from oddsaudit import sweep
        assert sweep is oddsaudit.sweep is sys.modules["oddsaudit.sweep"].sweep
        assert not isinstance(sweep, types.ModuleType)
        import oddsaudit.sweep as again
        assert again is sweep
    """))
    _fresh_interpreter(textwrap.dedent("""
        import oddsaudit
        assert set(oddsaudit.__all__) <= set(dir(oddsaudit))
        try:
            oddsaudit.no_such_name
        except AttributeError as exc:
            assert str(exc) == "module 'oddsaudit' has no attribute 'no_such_name'"
        else:
            raise AssertionError("an unknown name resolved")
    """))


def test_no_module_imports_dataclasses():
    """Every value type is on ``model._Immutable``: no module of the package
    imports ``dataclasses``, even inside a function."""
    package = Path(oddsaudit.__file__).resolve().parent
    imported = [
        (path.name, alias.name if isinstance(node, ast.Import) else node.module)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not [(module, name) for module, name in imported
                             if name and name.split(".")[0] == "dataclasses"]


def test_no_module_uses_assert():
    """Every check in the package raises explicitly: no module holds an
    ``assert`` statement, which ``python -O`` strips."""
    package = Path(oddsaudit.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    asserts = [
        (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert modules and asserts == []


def test_package_has_no_dead_imports_or_private_names():
    """Every import in ``src/oddsaudit`` is used in its module, and every private
    top-level function, class or constant, private method of a class and
    private attribute set with ``object.__setattr__`` is referenced somewhere
    in the package; a name the package exports (its ``_MODULES`` table, which
    ``__all__`` is sorted from) counts as used."""
    package = Path(oddsaudit.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}

    def loaded(tree):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_MODULES" for target in node.targets
            ):
                names.update(*ast.literal_eval(node.value).values())
        return names

    used = {module: loaded(tree) for module, tree in trees.items()}
    imported_anywhere = {
        alias.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dead = []

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if (alias.asname or alias.name.split(".")[0]) not in used[module]:
                        dead.append(f"{module}: import {alias.name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in defined:
                if private(name) and name not in imported_anywhere and not any(
                    name in names for names in used.values()
                ):
                    dead.append(f"{module}: {name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                members = [
                    (item.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            elif (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "object.__setattr__"
                and isinstance(node.args[1], ast.Constant)
            ):
                members = [(node.args[1].value, f"attribute {node.args[1].value}")]
            else:
                continue
            for name, label in members:
                if private(name) and not any(name in names for names in used.values()):
                    dead.append(f"{module}: {label}")
    assert dead == []
