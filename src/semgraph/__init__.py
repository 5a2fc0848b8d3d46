"""Semantic graph toolkit: a validated concept/entity/omitted-node graph model
with a canonical XML exchange format, DOT rendering, and converters from
AMR/UMR (PENMAN), knowledge-graph triples (Turtle subset), CoNLL-style
causation annotations and UCCA passages."""

import importlib

from .model import (
    BAD_INDEX_SET,
    DANGLING_TARGET,
    DUPLICATE_ROLE_SLOT,
    EDGE_FROM_NON_CONCEPT,
    ENTITY_OUT_EDGE,
    INDEXING_MISMATCH,
    OMITTED_OUT_EDGE,
    UNKNOWN_CONCEPT,
    UNKNOWN_ROLE,
    VIOLATION_CODES,
    ConceptCatalogue,
    ConceptDefinition,
    ConceptNode,
    Edge,
    EntityNode,
    GraphError,
    InvalidGraphError,
    OmittedNode,
    RoleLabel,
    RoleSpec,
    SemanticGraph,
    SourceError,
    Violation,
    merge,
    validate,
)
from .xmlio import catalogue_from_xml, catalogue_to_xml, from_xml, to_xml
from .dot import to_dot

# The frontends load on first use (PEP 562's module ``__getattr__``), so that a
# run imports only the one it reads: each module, and the exports it serves.
_FRONTENDS = {
    "penman": ("PenmanTree", "UmrDocument", "amr_to_graph", "parse_penman",
               "parse_penman_file", "parse_umr_document", "umr_to_graph"),
    "kg": ("TripleStore", "events_to_graph", "parse_turtle"),
    "conll": ("causation_catalogue", "causation_to_graph", "parse_conll"),
    "ucca": ("parse_ucca", "ucca_to_graph"),
}
_LAZY = {name: module for module, names in _FRONTENDS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = [
    "BAD_INDEX_SET",
    "DANGLING_TARGET",
    "DUPLICATE_ROLE_SLOT",
    "EDGE_FROM_NON_CONCEPT",
    "ENTITY_OUT_EDGE",
    "INDEXING_MISMATCH",
    "OMITTED_OUT_EDGE",
    "UNKNOWN_CONCEPT",
    "UNKNOWN_ROLE",
    "VIOLATION_CODES",
    "ConceptCatalogue",
    "ConceptDefinition",
    "ConceptNode",
    "Edge",
    "EntityNode",
    "GraphError",
    "InvalidGraphError",
    "OmittedNode",
    "PenmanTree",
    "RoleLabel",
    "RoleSpec",
    "SemanticGraph",
    "SourceError",
    "TripleStore",
    "UmrDocument",
    "Violation",
    "amr_to_graph",
    "catalogue_from_xml",
    "catalogue_to_xml",
    "causation_catalogue",
    "causation_to_graph",
    "events_to_graph",
    "from_xml",
    "merge",
    "parse_conll",
    "parse_penman",
    "parse_penman_file",
    "parse_turtle",
    "parse_ucca",
    "parse_umr_document",
    "to_dot",
    "to_xml",
    "ucca_to_graph",
    "umr_to_graph",
    "validate",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")  # binds the submodule here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
