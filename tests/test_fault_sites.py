"""Every fault site in ``repro.faults.SITES`` is consulted somewhere in
the package and named in README.md, and every site the package consults
is registered in ``SITES``."""

import ast
import pathlib

from repro import faults

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SOURCES = sorted((_ROOT / "src" / "repro").rglob("*.py"))
_DRAWS = {"raise_if", "raise_os_if", "should_fault", "site_active"}


def _trees():
    for path in _SOURCES:
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _string_literals(tree):
    return {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _drawn_sites(tree):
    """The literal first argument of every fault draw in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        site = node.args[0]
        if name in _DRAWS and isinstance(site, ast.Constant):
            yield site.value


def test_every_site_is_consulted_outside_the_registry():
    literals = set()
    for path, tree in _trees():
        if path.name != "faults.py":
            literals |= _string_literals(tree)
    unused = [site for site in faults.SITES if site not in literals]
    assert not unused, f"registered but never consulted: {unused}"


def test_every_drawn_site_is_registered():
    unknown = sorted(
        f"{path.relative_to(_ROOT)}: {site}"
        for path, tree in _trees()
        for site in _drawn_sites(tree)
        if site not in faults.SITES
    )
    assert not unknown, f"drawn but not in SITES: {unknown}"


def test_readme_names_every_site():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    missing = [site for site in faults.SITES if f"`{site}`" not in readme]
    assert not missing, f"missing from README.md: {missing}"
