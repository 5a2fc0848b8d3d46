"""Seeded pseudo-random generator of valid semantic graphs.

Built only through the guarded add_* API, so every generated graph passes
lax validation by construction. The name/value pools deliberately include
XML-hostile characters, whitespace and non-ASCII text.
"""

import random

from semgraph.model import ConceptNode, RoleLabel, SemanticGraph

CONCEPT_NAMES = [
    "Bottom", "Well", "Lighting", "Room", "IsA", "sem:Event", "UCCA.Unit",
    "say-01", "Räume", "A&B", 'quote"name', "x<y>", "it's", "multi word concept",
]
ROLE_NAMES = [
    "Container", "Contained", "Object", "Degree", "subEvent",
    "rdfs:label", "élément", "arg0-of", "A", "value",
]
VALUES = [
    "4", "wd:Q1073320", "55", "-", "la pioggia", "München",
    "a&b<c>\"d'", "line\nbreak", "tab\tsep", "1789-07-14",
]
CLASSES = ["5-level degree", "UCCA.Terminal", "UnanalysedSubtree", "Probability", "Äß"]


def random_graph(rng: random.Random, max_nodes: int = 30, max_edges: int = 60,
                 min_nodes: int = 0) -> SemanticGraph:
    graph = SemanticGraph()
    for _ in range(rng.randint(min_nodes, max_nodes)):
        kind = rng.random()
        if kind < 0.55:
            graph.add_concept(rng.choice(CONCEPT_NAMES))
        elif kind < 0.85:
            graph.add_entity(rng.choice(VALUES), rng.sample(CLASSES, rng.randint(0, 3)))
        else:
            graph.add_omitted()
    ids = list(graph.nodes)
    concepts = [i for i in ids if isinstance(graph.nodes[i], ConceptNode)]
    if not concepts:
        return graph
    plain_slots = set()
    next_index = {}
    for _ in range(rng.randint(0, max_edges)):
        source = rng.choice(concepts)
        role = rng.choice(ROLE_NAMES)
        target = rng.choice(ids)
        if rng.random() < 0.3:
            index = next_index.get((source, role), 0) + 1
            next_index[(source, role)] = index
            graph.add_edge(source, RoleLabel(role, index), target)
        else:
            if (source, role) in plain_slots:
                continue
            plain_slots.add((source, role))
            graph.add_edge(source, RoleLabel(role), target)
    return graph


def corpus(seed: int, count: int, **kwargs) -> list[SemanticGraph]:
    rng = random.Random(seed)
    return [random_graph(rng, **kwargs) for _ in range(count)]

