"""Checks on the library's source, read as syntax trees: every imported
name is used, and no module but surface.py touches the private state of a
Surface."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / 'src' / 'ribbonflow'
MODULES = sorted(SRC.glob('*.py'))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _imported(tree: ast.Module):
    """(name, line) for each name an import binds, at any depth; the
    __future__ switches bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split('.')[0], node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != '__future__'):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _surface_private() -> set:
    """The underscore names of class Surface that are not dunders: its
    methods and the attributes its methods set on self."""
    cls = next(node for node in _tree(SRC / 'surface.py').body
               if isinstance(node, ast.ClassDef) and node.name == 'Surface')
    names = {node.name for node in cls.body
             if isinstance(node, ast.FunctionDef)}
    names |= {node.attr for node in ast.walk(cls)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == 'self'
              and isinstance(node.ctx, ast.Store)}
    return {n for n in names if n.startswith('_') and not n.endswith('__')}


@pytest.mark.parametrize('path', MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ['%s (line %d)' % (name, line)
              for name, line in _imported(tree) if name not in used]
    assert not unused, '%s imports unused names: %s' % (path.name, unused)


@pytest.mark.parametrize('path', [p for p in MODULES
                                  if p.name != 'surface.py'],
                         ids=lambda p: p.name)
def test_only_surface_touches_the_private_state_of_a_surface(path):
    private = _surface_private()
    assert {'_rotation', '_widths', '_heights'} <= private
    touched = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and node.attr in private:
            touched.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ('getattr', 'setattr', 'hasattr')
              and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in private):
            touched.append((node.args[1].value, node.lineno))
    assert not touched, '%s touches Surface state: %s' % (path.name, touched)
