"""Seeded generators for the benchmark's input files.

Every generator returns the file text together with the counts the file
should produce: nodes by kind, edges, and (for XML graphs) violations by
code. The counts come from the generator's own structure, following the
conversion rules the README and the docstrings state, never from running
semgraph, so they are an independent reference for the output checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

CONCEPT = "concept"
ENTITY = "entity"
OMITTED = "omitted"

LAX_CODES = ("ENTITY_OUT_EDGE", "OMITTED_OUT_EDGE", "DUPLICATE_ROLE_SLOT", "BAD_INDEX_SET")
STRICT_CODES = ("UNKNOWN_CONCEPT", "UNKNOWN_ROLE", "INDEXING_MISMATCH")


@dataclass
class Counts:
    """Expected graph shape: nodes by kind plus edges."""

    concept: int = 0
    entity: int = 0
    omitted: int = 0
    edges: int = 0

    def add(self, other: Counts) -> None:
        self.concept += other.concept
        self.entity += other.entity
        self.omitted += other.omitted
        self.edges += other.edges

    def elements(self) -> int:
        return self.concept + self.entity + self.omitted + self.edges

    def as_dict(self) -> dict:
        return {CONCEPT: self.concept, ENTITY: self.entity, OMITTED: self.omitted,
                "edges": self.edges}


WORDS = ["storm", "river", "bank", "city", "council", "vote", "flood", "road", "market",
         "price", "school", "teacher", "child", "farmer", "rain", "harvest", "bridge",
         "mayor", "plan", "report", "München", "Zürich", "café", "naïve"]
PREDICATES = ["want-01", "say-01", "cause-01", "build-01", "rise-01", "close-01",
              "meet-03", "plan-01", "report-01", "flood-01", "vote-01", "know-01"]
NOUNS = ["person", "city", "river", "government", "storm", "thing", "school", "road",
         "company", "date-entity", "country", "organization"]
AMR_ROLES = ["ARG0", "ARG1", "ARG2", "ARG3", "mod", "time", "location", "manner", "poss"]


def _sizes(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """``count`` sizes cycling through low..high, in seeded order: the seed
    changes which sentence is large, not how much work the file holds."""
    sizes = [low + i % (high - low + 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


# --------------------------------------------------------------------- AMR

AMR_VARIABLES = (4, 14)  # smallest and largest sentence, in variables

@dataclass
class _AmrNode:
    var: str
    concept: str
    slots: list = field(default_factory=list)  # (role, kind, payload)


def _amr_tree(rng: random.Random, prefix: str, n_vars: int) -> tuple[_AmrNode, Counts]:
    """A random PENMAN tree: inline children, re-entrant references, ``-of``
    roles, repeated ``:op`` roles and constants (quoted, numeric, polarity)."""
    counts = Counts()
    nodes = [_AmrNode(f"{prefix}v1", rng.choice(PREDICATES))]
    for i in range(2, n_vars + 1):
        parent = rng.choice(nodes)
        child = _AmrNode(f"{prefix}v{i}", rng.choice(PREDICATES + NOUNS))
        roll = rng.random()
        if roll < 0.15:
            role = rng.choice(["ARG0", "ARG1", "mod"]) + "-of"
        elif roll < 0.30:
            role = "op"  # repeated on purpose: the converter re-indexes it
        else:
            role = rng.choice(AMR_ROLES)
        parent.slots.append((role, "node", child))
        nodes.append(child)
    counts.concept = n_vars
    counts.edges = n_vars - 1
    for node in nodes:
        roll = rng.random()
        if roll < 0.35:
            node.slots.append(("name", "const", '"' + rng.choice(WORDS).title() + '"'))
        elif roll < 0.55:
            node.slots.append(("quant", "const", str(rng.randint(1, 999))))
        elif roll < 0.65:
            node.slots.append(("polarity", "const", "-"))
        else:
            continue
        counts.entity += 1
        counts.edges += 1
    # Re-entrancies: references to another variable of the same sentence.
    for _ in range(max(1, n_vars // 5)):
        if n_vars < 2:
            break
        owner, target = rng.sample(nodes, 2)
        role = rng.choice(AMR_ROLES + ["ARG0-of", "ARG1-of"])
        owner.slots.append((role, "ref", target.var))
        counts.edges += 1
    return nodes[0], counts


def _render_amr(rng: random.Random, node: _AmrNode, depth: int, out: list[str]) -> None:
    concept = node.concept
    if rng.random() < 0.5:
        concept += f"~e.{rng.randint(0, 40)}"
    out.append(f"({node.var} / {concept}")
    indent = "\n" + "    " * (depth + 1)
    for role, kind, payload in node.slots:
        marker = f"~e.{rng.randint(0, 40)}" if rng.random() < 0.2 else ""
        out.append(f"{indent}:{role}{marker} ")
        if kind == "node":
            _render_amr(rng, payload, depth + 1, out)
        else:
            out.append(payload)
    out.append(")")


def amr_file(rng: random.Random, doc: str, sentences: int) -> tuple[str, Counts]:
    """A file of blank-line-separated AMR sentences with ``# ::id``/``# ::snt``
    comments. Returns the text and the combined graph's counts."""
    counts = Counts()
    blocks = []
    for s, n_vars in enumerate(_sizes(rng, sentences, *AMR_VARIABLES), start=1):
        root, sentence_counts = _amr_tree(rng, "", n_vars)
        counts.add(sentence_counts)
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randint(5, 15)))
        body: list[str] = []
        _render_amr(rng, root, 0, body)
        blocks.append(f"# ::id {doc}.{s}\n# ::snt {words} .\n" + "".join(body) + "\n")
    return "\n".join(blocks), counts


# --------------------------------------------------------------------- UMR

def umr_file(rng: random.Random, sentences: int) -> tuple[str, Counts]:
    """A UMR document: sentence graphs with document-unique variables, temporal
    anchors as bare constants, and ``# doc`` blocks whose relations make some
    constants the source of an edge, which promotes them to one shared
    concept each."""
    counts = Counts()
    blocks = []
    roots: list[str] = []
    anchors: list[str] = []  # sentence-local constants, one occurrence each
    shared = ["DCT", "author"]  # constants that occur in many sentences
    shared_uses = {token: 0 for token in shared}
    for s, n_vars in enumerate(_sizes(rng, sentences, 4, 12), start=1):
        root, c = _amr_tree(rng, f"s{s}", n_vars)
        anchor = f"s{s}t{rng.randint(1, 9)}"
        root.slots.append(("temporal", "const", anchor))
        anchors.append(anchor)
        c.edges += 1
        c.entity += 1
        if rng.random() < 0.5:
            token = rng.choice(shared)
            root.slots.append(("modal" if token == "author" else "time", "const", token))
            shared_uses[token] += 1
            c.edges += 1
            c.entity += 1
        counts.add(c)
        roots.append(root.var)
        body: list[str] = []
        _render_amr(rng, root, 0, body)
        blocks.append(f"# ::id umr.{s}\n" + "".join(body) + "\n")
    relations = [f"({roots[s]} before {roots[s - 1]})" for s in range(1, sentences)]
    # Promote every third anchor: as the source of a `contained` edge its one
    # occurrence becomes a concept instead of an entity.
    for s in range(0, sentences, 3):
        target = anchors[s + 1] if s + 1 < sentences else roots[0]
        relations.append(f"({anchors[s]} contained {target})")
        counts.entity -= 1
        counts.concept += 1
    # Promote the first shared constant that occurs: all its occurrences fuse
    # into one concept.
    for token in shared:
        if shared_uses[token]:
            relations.append(f"({token} depends-on {roots[0]})")
            counts.entity -= shared_uses[token]
            counts.concept += 1
            break
    counts.edges += len(relations)
    for start in range(0, len(relations), 50):
        blocks.append("# doc\n" + "\n".join(relations[start:start + 50]) + "\n")
    return "\n".join(blocks), counts


# ------------------------------------------------------------------ Turtle

_TTL_PREFIXES = """\
@prefix sem: <http://semanticweb.cs.vu.nl/2009/11/sem/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix ex: <http://example.org/> .
"""
_TTL_PREDICATES = ["ex:actor", "ex:place", "ex:date", "ex:topic", "ex:source", "ex:cost"]
_LANGS = ["en", "de", "fr", "it", "en-GB"]


def _ttl_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def turtle_file(rng: random.Random, events: int,
                tree_size: tuple[int, int] = (1, 12)) -> tuple[str, Counts, list[Counts]]:
    """Event data: typed events grouped into sub-event trees, multilingual
    labels, repeated predicates and island triples whose subject is no event.

    Returns the text, the combined graph's counts and, per top-level event in
    document order, the counts of the graph ``--no-combine`` writes for it.
    """
    counts = Counts()
    trees: list[Counts] = []
    lines = [_TTL_PREFIXES]
    made = 0
    while made < events:
        size = min(rng.randint(*tree_size), events - made)
        tree = Counts()
        members: list[str] = []
        for k in range(size):
            name = f"ex:ev{made + k + 1}"
            statements = ["a sem:Event"]
            c = Counts(concept=1, entity=1, edges=1)  # the event and its id
            labels = [f"{_ttl_string(rng.choice(WORDS) + ' ' + rng.choice(WORDS))}@"
                      f"{rng.choice(_LANGS)}" for _ in range(rng.choice([0, 1, 1, 2, 3]))]
            if labels:
                statements.append("rdfs:label " + ", ".join(labels))
                c.entity += len(labels)
                c.edges += len(labels)
            if members:
                statements.append(f"sem:subEventOf {rng.choice(members)}")
                c.edges += 1  # the parent's subEvent[i] role
            own = 0
            for predicate in rng.sample(_TTL_PREDICATES, rng.randint(1, 4)):
                repeat = 2 if predicate == "ex:actor" and rng.random() < 0.5 else 1
                if predicate == "ex:date":
                    objects = [f'"{rng.randint(1990, 2024)}-0{rng.randint(1, 9)}-1'
                               f'{rng.randint(0, 9)}"^^xsd:date']
                elif predicate == "ex:cost":
                    objects = [f'"{rng.randint(1, 10**6)}"' for _ in range(repeat)]
                else:
                    objects = [f"ex:{rng.choice(WORDS)}{rng.randint(1, 99)}"
                               for _ in range(repeat)]
                statements.append(f"{predicate} " + ", ".join(objects))
                own += len(objects)
            # Each remaining triple: a predicate concept plus its leaf.
            c.concept += own
            c.entity += own
            c.edges += 2 * own
            lines.append(f"{name} " + " ;\n    ".join(statements) + " .\n")
            tree.add(c)
            members.append(name)
        made += size
        counts.add(tree)
        trees.append(tree)
        if rng.random() < 0.4:
            # Island triples: kept by the combined graph, dropped by the split.
            island = rng.randint(1, 3)
            objects = ", ".join(_ttl_string(rng.choice(WORDS)) for _ in range(island))
            lines.append(f"ex:place{made} rdfs:label {objects} .\n")
            counts.add(Counts(concept=island, entity=island, edges=island))
    return "".join(lines), counts, trees


# ------------------------------------------------------------------- CoNLL

_CONLL_UPOS = ["NOUN", "VERB", "ADJ", "ADP", "DET", "PRON", "ADV"]


def _conll_sentence(rng: random.Random, sid: str) -> tuple[str, Counts]:
    n_cause = rng.choice([0, 1, 1, 1, 2, 3])
    n_effect = rng.choice([1, 1, 2, 3]) if n_cause == 0 else rng.choice([0, 1, 1, 2, 3])
    labels = ["Cause"] * n_cause + ["Effect"] * n_effect
    rng.shuffle(labels)
    tags: list[str] = []
    for label in labels:
        tags.extend(["O"] * rng.randint(0, 3))
        length = rng.randint(1, 5)
        tags.extend([f"B-{label}"] + [f"I-{label}"] * (length - 1))
    tags.extend(["O"] * rng.randint(0, 3))
    lines = [f"# sent_id = {sid}"]
    if rng.random() < 0.5:
        lines.append(f"# lang = {rng.choice(_LANGS)}")
    for i, tag in enumerate(tags, start=1):
        form = rng.choice(WORDS)
        upos = rng.choice(_CONLL_UPOS)
        head = 0 if i == 1 else rng.randint(1, i - 1)
        lines.append(f"{i}\t{form}\t{form.lower()}\t{upos}\t_\t_\t{head}\tdep\t{tag}")
    spans = len(labels)
    counts = Counts(
        concept=3,  # Sentence, Causation, LanguageDoc
        entity=spans + 1,  # one per span, plus the language
        omitted=(n_cause == 0) + (n_effect == 0),
        edges=2 + max(n_cause, 1) + max(n_effect, 1) + 1 + spans,
    )
    return "\n".join(lines) + "\n", counts


def conll_file(rng: random.Random, doc: str, sentences: int) -> tuple[str, Counts]:
    """Blank-line-separated CoNLL sentences with multi-span Cause/Effect
    annotations and optional ``# lang`` comments."""
    counts = Counts()
    blocks = []
    for s in range(1, sentences + 1):
        text, c = _conll_sentence(rng, f"{doc}-{s}")
        blocks.append(text)
        counts.add(c)
    return "\n".join(blocks), counts


# -------------------------------------------------------------------- UCCA

_UCCA_CATEGORIES = ["P", "A", "D", "C", "E", "N", "R", "L", "F"]
_UCCA_FANOUT = 40  # new nodes attach to one of the last this many units


def ucca_file(rng: random.Random, nodes: int) -> tuple[str, Counts]:
    """A passage of ``nodes`` units and terminals. The root has high fan-out
    (parallel scenes under one category), inner units reuse categories, and
    some units get a second, remote parent."""
    lines = ["# passage", "unit 1.1", "root 1.1"]
    edges: list[str] = []
    units = ["1.1"]
    n_units = 1
    n_terms = 0
    total = 1
    while total < nodes:
        if n_units < nodes // 3 and (rng.random() < 0.35 or len(units) == 1):
            n_units += 1
            uid = f"1.{n_units}"
            # Scenes hang under the root; the rest under a recent unit.
            parent = "1.1" if rng.random() < 0.3 else rng.choice(units[-_UCCA_FANOUT:])
            category = "H" if parent == "1.1" else rng.choice(_UCCA_CATEGORIES)
            lines.append(f"unit {uid}")
            edges.append(f"edge {parent} {uid} {category}")
            units.append(uid)
        else:
            n_terms += 1
            tid = f"0.{n_terms}"
            text = rng.choice(WORDS)
            if rng.random() < 0.05:
                text += " " + rng.choice(WORDS)
            lines.append(f"term {tid} {text}")
            parent = rng.choice(units[-_UCCA_FANOUT:]) if len(units) > 1 else "1.1"
            edges.append(f"edge {parent} {tid} {rng.choice(_UCCA_CATEGORIES)}")
        total += 1
    for _ in range(len(units) // 10):  # remote edges between units
        parent, child = rng.sample(units, 2)
        if child != "1.1":
            edges.append(f"edge {parent} {child} A")
    counts = Counts(concept=n_units, entity=n_terms, edges=len(edges))
    return "\n".join(lines + edges) + "\n", counts


# --------------------------------------------------------------------- XML

@dataclass
class CatalogueSpec:
    """The catalogue the XML graphs are drawn from: name -> [(role, indexed)]."""

    concepts: dict[str, list[tuple[str, bool]]]

    def xml(self) -> str:
        parts = ['<catalogue version="1">\n']
        for name, roles in self.concepts.items():  # deliberately not sorted
            if not roles:
                parts.append(f'  <concept name="{name}"/>\n')
                continue
            parts.append(f'  <concept name="{name}">\n')
            for role, indexed in roles:
                # Unindexed roles spell out the default now and then.
                flag = ' indexed="true"' if indexed else (' indexed="false"'
                                                          if len(role) % 2 else "")
                parts.append(f'    <role name="{role}"{flag}/>\n')
            parts.append("  </concept>\n")
        parts.append("</catalogue>\n")
        return "".join(parts)

    def listing(self) -> list[str]:
        """The lines `semgraph catalogue list` prints, per its documented format."""
        return [f"{name}(" + ", ".join(r + ("[]" if indexed else "") for r, indexed in
                                       self.concepts[name]) + ")"
                for name in sorted(self.concepts)]


def catalogue_spec(rng: random.Random, size: int) -> CatalogueSpec:
    role_pool = [f"r{i}" for i in range(24)]
    concepts: dict[str, list[tuple[str, bool]]] = {}
    for i in range(size):
        name = f"{rng.choice(NOUNS + PREDICATES)}.{i}"
        roles = rng.sample(role_pool, rng.randint(0, 6))
        concepts[name] = [(r, rng.random() < 0.3) for r in roles]
    # At least one concept with an indexed and an unindexed role, so every
    # injected violation has a concept to use.
    concepts["hub.0"] = [("part", True), ("owner", False), ("topic", False)]
    return CatalogueSpec(concepts)


def xml_graph(rng: random.Random, catalogue: CatalogueSpec, nodes: int,
              lax_faults: int, strict_faults: int) -> tuple[str, Counts, dict, dict]:
    """A graph document written directly (not through ``to_xml``), in a
    non-canonical layout and node order, drawn from ``catalogue``.

    ``lax_faults``/``strict_faults`` inject that many violations of each lax
    and strict-only code, each on nodes and roles of its own so that no
    injected fault can trigger another code. Returns the text, the counts,
    and the expected violations by code in lax and in strict mode.
    """
    names = [n for n, roles in catalogue.concepts.items() if roles]
    ids: list[str] = []
    kinds: dict[str, str] = {}
    concept_name: dict[str, str] = {}
    entity_payload: dict[str, tuple[str, list[str]]] = {}
    roles: dict[str, list[tuple[str, int | None, str]]] = {}

    def new(kind: str) -> str:
        node_id = f"{kind[0]}{len(ids) + 1}"
        ids.append(node_id)
        kinds[node_id] = kind
        roles[node_id] = []
        return node_id

    n_concepts = max(2, nodes // 2)
    for _ in range(n_concepts):
        cid = new(CONCEPT)
        concept_name[cid] = rng.choice(names)
    for _ in range(nodes - n_concepts):
        if rng.random() < 0.85:
            eid = new(ENTITY)
            classes = rng.sample(["Person", "Place", "Time", "Amount"], rng.randint(0, 2))
            entity_payload[eid] = (rng.choice(WORDS) + f" #{len(ids)}", classes)
        else:
            new(OMITTED)
    for cid, name in list(concept_name.items()):
        for role, indexed in catalogue.concepts[name]:
            if rng.random() < 0.3:
                continue
            if indexed:
                for index in range(1, rng.randint(1, 4) + 1):
                    roles[cid].append((role, index, rng.choice(ids)))
            else:
                roles[cid].append((role, None, rng.choice(ids)))
    lax = {code: 0 for code in LAX_CODES}
    strict_only = {code: 0 for code in STRICT_CODES}
    entities = [i for i in ids if kinds[i] == ENTITY]
    omitted = [i for i in ids if kinds[i] == OMITTED] or [new(OMITTED)]
    for k in range(lax_faults):
        # A role name of its own per fault, so two faults on one leaf do not
        # also fill one slot twice.
        roles[rng.choice(entities)].append((f"stray{k}", None, rng.choice(ids)))
        lax["ENTITY_OUT_EDGE"] += 1
        roles[rng.choice(omitted)].append((f"stray{k}", None, rng.choice(ids)))
        lax["OMITTED_OUT_EDGE"] += 1
        hub = new(CONCEPT)
        concept_name[hub] = "hub.0"
        roles[hub] = [("owner", None, rng.choice(ids)), ("owner", None, rng.choice(ids))]
        lax["DUPLICATE_ROLE_SLOT"] += 1
        hub = new(CONCEPT)
        concept_name[hub] = "hub.0"
        roles[hub] = [("part", 1, rng.choice(ids)), ("part", 3, rng.choice(ids))]
        lax["BAD_INDEX_SET"] += 1
    for _ in range(strict_faults):
        stranger = new(CONCEPT)
        concept_name[stranger] = f"undefined.{len(ids)}"
        roles[stranger] = [("anything", None, rng.choice(ids))]
        strict_only["UNKNOWN_CONCEPT"] += 1
        hub = new(CONCEPT)
        concept_name[hub] = "hub.0"
        roles[hub] = [("undeclared", None, rng.choice(ids))]
        strict_only["UNKNOWN_ROLE"] += 1
        hub = new(CONCEPT)
        concept_name[hub] = "hub.0"
        roles[hub] = [("part", None, rng.choice(ids))]
        strict_only["INDEXING_MISMATCH"] += 1
    # Strict mode reports the lax codes too; its own checks skip edges whose
    # source is not a concept, so the leaf faults add no strict-only code.
    order = list(ids)
    rng.shuffle(order)
    parts = ['<?xml version="1.0" encoding="utf-8"?>\n<semanticgraph version="1">\n']
    counts = Counts()
    for node_id in order:
        kind = kinds[node_id]
        children = [f'<role name="{r}"' + ("" if i is None else f' index="{i}"')
                    + f' target="{t}"/>' for r, i, t in roles[node_id]]
        counts.edges += len(children)
        if kind == CONCEPT:
            counts.concept += 1
            head = f'  <concept id="{node_id}" name="{concept_name[node_id]}"'
        elif kind == ENTITY:
            counts.entity += 1
            value, classes = entity_payload[node_id]
            head = f'  <entity id="{node_id}" value="{value}"'
            children = [f'<class name="{c}"/>' for c in classes] + children
        else:
            counts.omitted += 1
            head = f'  <omitted id="{node_id}"'
        if children:
            parts.append(head + ">\n    " + "\n    ".join(children) + "\n  </"
                         + kind + ">\n")
        else:
            parts.append(head + "/>\n")
    parts.append("</semanticgraph>\n")
    strict = dict(lax)
    strict.update(strict_only)
    return "".join(parts), counts, {k: v for k, v in lax.items() if v}, \
        {k: v for k, v in strict.items() if v}
