"""The PENMAN lexer and recursive parser that ``semgraph.penman`` replaced,
kept as oracles for differential tests.

``tokenize`` tries every alternative of its regex at each character, blank
ones too, and sorts each token by its first character. It returns the same
``(kind, value, offset)`` tokens, or raises ``PenmanError`` with the same
reason, line and column, as ``penman._tokenize``.

On the same tokens ``parse_tokens`` returns the same ``PenmanTree``, or
raises ``PenmanError`` with the same reason, line and column, as
``penman._parse_tokens``; on an expression nested deeper than Python's
recursion limit it raises ``RecursionError``.
"""

import re

from semgraph.penman import CONST, NODE, REF, PenmanError, PenmanTree, Slot

Token = tuple[str, str, int]

# A whole "#" comment line is one token, skipped, so that a quote inside it
# opens no string; a "#word" after other text on its line stays a token. The
# last alternative catches a quote that opens no complete string.
_TOKEN_RE = re.compile(r'(?P<comment>^[^\S\n]*#.*)|"(?:[^"\\]|\\.)*"|[()/]|[^\s()/"]+|"',
                       re.MULTILINE)
_UNESCAPE_RE = re.compile(r"\\(.)")
_PUNCTUATION = {"(": "open", ")": "close", "/": "slash"}


def tokenize(text: str, start: int, end: int) -> list[Token]:
    """Tokens of ``text[start:end]``, with offsets into the whole ``text``."""
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text, start, end):
        if match.lastgroup == "comment":
            continue
        at = match.start()
        value = match.group(0)
        if value == '"':
            raise PenmanError("unexpected character '\"'", text, at)
        if value.startswith('"'):
            inner = _UNESCAPE_RE.sub(r"\1", value[1:-1])
            if not inner:
                raise PenmanError("empty string constant", text, at)
            tokens.append(("string", inner, at))
        elif value in "()/":
            tokens.append((_PUNCTUATION[value], value, at))
        elif value.startswith(":"):
            name = value[1:].split("~", 1)[0]
            if not name:
                raise PenmanError("role token ':' has no name", text, at)
            tokens.append(("role", name, at))
        elif value.startswith("~"):
            continue  # alignment marker, ignored
        else:
            bare = value.split("~", 1)[0]
            if bare:
                tokens.append(("token", bare, at))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token], text: str, end: int):
        self._tokens = tokens
        self._pos = 0
        self.text = text
        self.end = end

    def fail(self, reason: str, offset: int) -> PenmanError:
        return PenmanError(reason, self.text, offset)

    def peek(self) -> Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self.fail("unexpected end of input", self.end)
        self._pos += 1
        return token


def _parse_node(stream: _TokenStream, concepts: dict[str, str], slots: list[Slot]) -> str:
    kind, _, offset = stream.next()
    if kind != "open":
        raise stream.fail("expected '('", offset)
    kind, var, var_offset = stream.next()
    if kind != "token":
        raise stream.fail("expected a variable name", var_offset)
    kind, _, offset = stream.next()
    if kind != "slash":
        raise stream.fail(f"expected '/' after variable '{var}'", offset)
    kind, concept, offset = stream.next()
    if kind != "token":
        raise stream.fail("expected a concept label", offset)
    if var in concepts:
        raise stream.fail(f"variable '{var}' defined twice", var_offset)
    concepts[var] = concept
    while True:
        token = stream.peek()
        if token is None:
            raise stream.fail("unbalanced parentheses: missing ')'", stream.end)
        kind, role, offset = token
        if kind == "close":
            stream.next()
            return var
        if kind != "role":
            raise stream.fail("expected a role or ')'", offset)
        stream.next()
        value = stream.peek()
        if value is None or value[0] in ("role", "close"):
            offset = value[2] if value is not None else stream.end
            raise stream.fail(f"role ':{role}' has no value", offset)
        kind, text, offset = value
        if kind == "open":
            slot = Slot(var, role, NODE, "")
            slots.append(slot)
            slot.value = _parse_node(stream, concepts, slots)
        elif kind == "string":
            stream.next()
            slots.append(Slot(var, role, CONST, text))
        elif kind == "token":
            stream.next()
            slots.append(Slot(var, role, REF, text))  # resolved below
        else:
            raise stream.fail("unexpected '/'", offset)


def parse_tokens(tokens: list[Token], text: str, end: int) -> PenmanTree:
    stream = _TokenStream(tokens, text, end)
    concepts: dict[str, str] = {}
    slots: list[Slot] = []
    root = _parse_node(stream, concepts, slots)
    trailing = stream.peek()
    if trailing is not None:
        raise stream.fail("unexpected trailing content", trailing[2])
    for slot in slots:
        if slot.kind == REF and slot.value not in concepts:
            slot.kind = CONST
    return PenmanTree(root, concepts, slots)
