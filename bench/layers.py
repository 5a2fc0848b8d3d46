"""Outside-in tracing of semgraph's layers for the benchmark's traced run.

``install`` replaces the public functions of each module with wrappers that
record a span per call (name, start, end, parent span, job), and replaces
``SemanticGraph.add_edge``, which runs once per edge, with a counter that
adds its calls and time to the job and to the enclosing span instead. The
by-name imports inside the package (``xmlio.validate``, ``dot.validate`` and
``add_planned_edges`` in the frontends) are wrapped too, so every call path
is seen. Spans stay in memory until ``dump`` writes them out.

Nothing under ``src/`` changes; the wrappers live only in the traced child.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# Layer name -> (kind, the (module, attribute) references to wrap). The layer
# name is the module and function in ``src/semgraph/`` where it is defined.
LAYERS = {
    "cli.main": ("span", [("cli", "main")]),
    "model.merge": ("span", [("model", "merge")]),
    "model.add_planned_edges": ("span", [("model", "add_planned_edges"),
                                         ("penman", "add_planned_edges"),
                                         ("kg", "add_planned_edges"),
                                         ("ucca", "add_planned_edges")]),
    "model.validate": ("span", [("model", "validate"), ("xmlio", "validate"),
                                ("dot", "validate")]),
    "model.add_edge": ("counter", [("model", "SemanticGraph.add_edge")]),
    "penman.parse_penman_file": ("span", [("penman", "parse_penman_file")]),
    "penman.amr_to_graph": ("span", [("penman", "amr_to_graph")]),
    "penman.parse_umr_document": ("span", [("penman", "parse_umr_document")]),
    "penman.umr_to_graph": ("span", [("penman", "umr_to_graph")]),
    "kg.parse_turtle": ("span", [("kg", "parse_turtle")]),
    "kg.events_to_graph": ("span", [("kg", "events_to_graph")]),
    "kg.split_events": ("span", [("kg", "split_events")]),
    "conll.parse_conll": ("span", [("conll", "parse_conll")]),
    "conll.causation_to_graph": ("span", [("conll", "causation_to_graph")]),
    "ucca.parse_ucca": ("span", [("ucca", "parse_ucca")]),
    "ucca.ucca_to_graph": ("span", [("ucca", "ucca_to_graph")]),
    "xmlio.to_xml": ("span", [("xmlio", "to_xml")]),
    "xmlio.from_xml": ("span", [("xmlio", "from_xml")]),
    "xmlio.catalogue_from_xml": ("span", [("xmlio", "catalogue_from_xml")]),
    "dot.to_dot": ("span", [("dot", "to_dot")]),
}


def _elements(graph) -> int:
    return len(graph.nodes) + len(graph.edges)


# Work a call did, in the layer's own unit, from its arguments and result.
WORK = {
    "penman.parse_penman_file": lambda args, result: len(args[0]),  # characters
    "kg.parse_turtle": lambda args, result: len(result.triples),
    "xmlio.from_xml": lambda args, result: _elements(result),
    # merge copies both operands into a fresh graph.
    "model.merge": lambda args, result: _elements(args[0]) + _elements(args[1]),
    "xmlio.to_xml": lambda args, result: _elements(args[0]),
    "dot.to_dot": lambda args, result: _elements(args[0]),
}


class Tracer:
    """Spans and per-job counters of one traced pass."""

    def __init__(self):
        self.job: int | None = None
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.counters: dict[tuple[int | None, str], list] = {}  # -> [calls, seconds]
        self.wrapped: list[str] = []  # layers with at least one reference wrapped
        self.missing: list[str] = []  # references that no longer exist

    def span(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = {"id": len(self.spans), "parent": parent["id"] if parent else None,
                      "name": name, "job": self.job, "child_s": 0.0, "work": 0}
            self.spans.append(record)
            self._stack.append(record)
            record["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent["child_s"] += record["end"] - record["start"]
            if work is not None:
                record["work"] = work(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry = self.counters.setdefault((self.job, name), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                if self._stack:
                    self._stack[-1]["child_s"] += elapsed

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "wrapped": self.wrapped, "missing": self.missing,
                       "counters": [[job, name, calls, s] for (job, name), (calls, s)
                                    in self.counters.items()]}, handle)


def install() -> Tracer:
    """Wrap every reference in ``LAYERS``. A reference that no longer exists is
    listed in ``Tracer.missing``; a layer with no reference left reports
    nothing, so that a rename shows as missing metrics rather than zeros."""
    tracer = Tracer()
    wrapped: dict[int, object] = {}  # id of the original -> its wrapper
    for name, (kind, refs) in LAYERS.items():
        for module_name, attr in refs:
            owner = importlib.import_module(f"semgraph.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            if id(original) not in wrapped:
                make = tracer.span if kind == "span" else tracer.counter
                wrapped[id(original)] = make(name, original)
            setattr(owner, leaf, wrapped[id(original)])
            if name not in tracer.wrapped:
                tracer.wrapped.append(name)
    return tracer
