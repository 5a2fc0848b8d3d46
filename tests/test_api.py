"""The package's public names. Every name in ``__all__`` is served by
``semgraph`` as the object its module defines; a frontend's names and the
frontend module itself are served on first use (PEP 562), so the checks that
need no frontend loaded yet run in a fresh interpreter."""

import importlib
import os
import subprocess
import sys

import pytest

import semgraph

# Module -> the names the package exports from it.
EXPORTS = {
    "model": ("BAD_INDEX_SET", "DANGLING_TARGET", "DUPLICATE_ROLE_SLOT",
              "EDGE_FROM_NON_CONCEPT", "ENTITY_OUT_EDGE", "INDEXING_MISMATCH",
              "OMITTED_OUT_EDGE", "UNKNOWN_CONCEPT", "UNKNOWN_ROLE", "VIOLATION_CODES",
              "ConceptCatalogue", "ConceptDefinition", "ConceptNode", "Edge", "EntityNode",
              "GraphError", "InvalidGraphError", "OmittedNode", "RoleLabel", "RoleSpec",
              "SemanticGraph", "SourceError", "Violation", "merge", "validate"),
    "xmlio": ("catalogue_from_xml", "catalogue_to_xml", "from_xml", "to_xml"),
    "dot": ("to_dot",),
    "penman": ("PenmanTree", "UmrDocument", "amr_to_graph", "parse_penman",
               "parse_penman_file", "parse_umr_document", "umr_to_graph"),
    "kg": ("TripleStore", "events_to_graph", "parse_turtle"),
    "conll": ("causation_catalogue", "causation_to_graph", "parse_conll"),
    "ucca": ("parse_ucca", "ucca_to_graph"),
}
FRONTENDS = ["penman", "kg", "conll", "ucca"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports the
    package from this checkout."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_all_names_every_export_once():
    assert sorted(semgraph.__all__) == sorted(n for names in EXPORTS.values() for n in names)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_the_object_its_module_defines(module, name):
    assert getattr(semgraph, name) is getattr(importlib.import_module(f"semgraph.{module}"), name)


def test_a_bare_import_loads_no_frontend_and_serves_each_on_first_use():
    out = fresh("import sys, semgraph\n"
                "print(*sorted(m for m in sys.modules if m.startswith('semgraph.')))\n"
                f"for name in {FRONTENDS!r}:\n"
                "    module = getattr(semgraph, name)\n"
                "    print(name, module is sys.modules['semgraph.' + name])\n"
                "print(semgraph.kg.parse_turtle is semgraph.parse_turtle,"
                " 'parse_turtle' in vars(semgraph))\n")
    assert out.splitlines() == ["semgraph.dot semgraph.model semgraph.xmlio",
                                *(f"{name} True" for name in FRONTENDS), "True True"]


def test_star_import_binds_every_name():
    out = fresh("import semgraph\n"
                "from semgraph import *\n"
                "print([n for n in semgraph.__all__ if globals().get(n) is not"
                " getattr(semgraph, n)])\n")
    assert out == "[]\n"


def test_dir_lists_all_and_the_frontends_before_they_load():
    out = fresh("import sys, semgraph\n"
                f"print(set(semgraph.__all__ + {FRONTENDS!r}) - set(dir(semgraph)),"
                " 'semgraph.penman' in sys.modules)\n")
    assert out == "set() False\n"


def test_unknown_name_raises_the_usual_attribute_error():
    with pytest.raises(AttributeError) as caught:
        semgraph.no_such_name
    assert str(caught.value) == "module 'semgraph' has no attribute 'no_such_name'"
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from semgraph import no_such_name  # noqa: F401
