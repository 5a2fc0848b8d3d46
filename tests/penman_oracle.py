"""The recursive PENMAN parser that the one-loop ``_parse_tokens`` in
``semgraph.penman`` replaced, kept as an oracle for differential tests.

On the same tokens it returns the same ``PenmanTree``, or raises
``PenmanError`` with the same reason, line and column, as
``penman._parse_tokens``; on an expression nested deeper than Python's
recursion limit it raises ``RecursionError``.
"""

from semgraph.penman import CONST, NODE, REF, PenmanError, PenmanTree, Slot, _Token


class _TokenStream:
    def __init__(self, tokens: list[_Token], text: str, end: int):
        self._tokens = tokens
        self._pos = 0
        self.text = text
        self.end = end

    def fail(self, reason: str, offset: int) -> PenmanError:
        return PenmanError(reason, self.text, offset)

    def peek(self) -> _Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise self.fail("unexpected end of input", self.end)
        self._pos += 1
        return token


def _parse_node(stream: _TokenStream, concepts: dict[str, str], slots: list[Slot]) -> str:
    opening = stream.next()
    if opening.kind != "(":
        raise stream.fail("expected '('", opening.offset)
    var_token = stream.next()
    if var_token.kind != "token":
        raise stream.fail("expected a variable name", var_token.offset)
    var = var_token.value
    slash = stream.next()
    if slash.kind != "/":
        raise stream.fail(f"expected '/' after variable '{var}'", slash.offset)
    concept_token = stream.next()
    if concept_token.kind != "token":
        raise stream.fail("expected a concept label", concept_token.offset)
    if var in concepts:
        raise stream.fail(f"variable '{var}' defined twice", var_token.offset)
    concepts[var] = concept_token.value
    while True:
        token = stream.peek()
        if token is None:
            raise stream.fail("unbalanced parentheses: missing ')'", stream.end)
        if token.kind == ")":
            stream.next()
            return var
        if token.kind != "role":
            raise stream.fail("expected a role or ')'", token.offset)
        stream.next()
        role = token.value
        value = stream.peek()
        if value is None or value.kind in ("role", ")"):
            offset = value.offset if value is not None else stream.end
            raise stream.fail(f"role ':{role}' has no value", offset)
        if value.kind == "(":
            slot = Slot(var, role, NODE, "")
            slots.append(slot)
            slot.value = _parse_node(stream, concepts, slots)
        elif value.kind == "string":
            stream.next()
            slots.append(Slot(var, role, CONST, value.value))
        elif value.kind == "token":
            stream.next()
            slots.append(Slot(var, role, REF, value.value))  # resolved below
        else:
            raise stream.fail("unexpected '/'", value.offset)


def parse_tokens(tokens: list[_Token], text: str, end: int) -> PenmanTree:
    stream = _TokenStream(tokens, text, end)
    concepts: dict[str, str] = {}
    slots: list[Slot] = []
    root = _parse_node(stream, concepts, slots)
    trailing = stream.peek()
    if trailing is not None:
        raise stream.fail("unexpected trailing content", trailing.offset)
    for slot in slots:
        if slot.kind == REF and slot.value not in concepts:
            slot.kind = CONST
    return PenmanTree(root, concepts, slots)
