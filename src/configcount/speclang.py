"""The .ccspec problem-description language: parser, validator, printer.

A spec file is a sequence of blocks::

    problem <ident> { <field>* }

Fields are ``key: value`` pairs.  Keys come from the fixed set {kind, cols,
rows, variant, word, layout, rows-data, adjacency, distinct-cells}.  Values
are bare identifiers, decimal integers, quoted strings (with \\" and \\\\
escapes), or ``[`` comma-separated quoted strings ``]``.  ``#`` starts a
comment to end of line.  Whitespace separates tokens and is otherwise
insignificant.  Identifiers are a letter followed by letters, digits,
underscores, or hyphens.

Two problem kinds exist:

* ``squares`` with ``cols``, ``rows`` (positive integers) and ``variant``
  (``axis`` or ``all``);
* ``word-paths`` with ``word`` (non-empty string), ``layout``
  (``manhattan-rings`` or ``explicit``), ``rows-data`` (list of equal-length
  row strings, required exactly when the layout is explicit), ``adjacency``
  (``side``, ``king``, or ``none``) and optional ``distinct-cells``
  (``true``/``false``, default false).

The manhattan-rings layout additionally requires an odd word length.

The parser reads one item per regex match: a block head ``problem NAME {``,
a ``key: value`` field (a list value whole), or a closing ``}``.  Where that
regex does not match well-formed text, the same parser reads that one item a
token at a time, and only this token path raises syntax errors, so every
message, position and precedence is the tokenizer's.  Both paths give a
field to the same checks (known key, no duplicate, the value's kind and
enum) and a block to the same ``_validate``.  No line or column is kept while
parsing: ``_error`` works a position out from the offset only when a
``ParseError`` is raised.  Lines and columns are 1-based, and a tab or a
carriage return counts as one column.
"""

from __future__ import annotations

import re

from .record import Record, set_field


class SpecError(ValueError):
    """Base class for everything that can go wrong with a spec file."""


class ParseError(SpecError):
    """A syntax violation, positioned at the offending token."""

    def __init__(self, line: int, column: int, message: str, expected: str | None = None):
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected
        text = f"{line}:{column}: {message}"
        if expected is not None:
            text += f" (expected {expected})"
        super().__init__(text)


class ValidationError(SpecError):
    """A well-formed but semantically invalid problem description."""


class ProblemSpec(Record):
    """One parsed counting problem."""

    name: str
    kind: str
    cols: int | None
    rows: int | None
    variant: str | None
    word: str | None
    layout: str | None
    rows_data: tuple[str, ...] | None
    adjacency: str | None
    distinct_cells: bool

    def __init__(self, name: str, kind: str, cols: int | None = None, rows: int | None = None,
                 variant: str | None = None, word: str | None = None, layout: str | None = None,
                 rows_data: tuple[str, ...] | None = None, adjacency: str | None = None,
                 distinct_cells: bool = False):
        set_field(self, "name", name)
        set_field(self, "kind", kind)
        set_field(self, "cols", cols)
        set_field(self, "rows", rows)
        set_field(self, "variant", variant)
        set_field(self, "word", word)
        set_field(self, "layout", layout)
        set_field(self, "rows_data", rows_data)
        set_field(self, "adjacency", adjacency)
        set_field(self, "distinct_cells", distinct_cells)


_IDENTIFIER = ("ident", None, "an identifier", "identifier")

# Every field, with the token its value starts with: kind, value (None for
# any), what the field takes, and the expected text of the error.
_FIELDS = {
    "kind": _IDENTIFIER,
    "cols": ("int", None, "an integer", "integer"),
    "rows": ("int", None, "an integer", "integer"),
    "variant": _IDENTIFIER,
    "word": ("string", None, "a quoted string", "quoted string"),
    "layout": _IDENTIFIER,
    "rows-data": ("punct", "[", "a list of quoted strings", "'['"),
    "adjacency": _IDENTIFIER,
    "distinct-cells": _IDENTIFIER,
}

_ENUM_VALUES = {
    "kind": ("squares", "word-paths"),
    "variant": ("axis", "all"),
    "layout": ("manhattan-rings", "explicit"),
    "adjacency": ("side", "king", "none"),
    "distinct-cells": ("true", "false"),
}


# Whitespace and comments, then at most one token.  \d is str.isdecimal, the
# digits int() accepts, and [\w-] is isalnum() or "_-"; [^\W\d_] also admits
# non-decimal digits such as "²", so an identifier's first character is
# checked with isalpha() as well.  A string group stops before the first
# character that cannot continue it; that character decides the outcome.
_TOKEN = re.compile(r"""
    (?:[ \t\r\n]|\#[^\n]*)*
    (?:(?P<punct>[{}:,\[\]])
      |(?P<string>"(?:[^"\\\x00-\x1f\x7f]|\\["\\])*)
      |(?P<int>\d+)
      |(?P<ident>[^\W\d_][\w-]*))?
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")

# The most digits an integer may have: Python's default int() limit, checked
# here, since the command line lifts that limit to print counts of any length.
MAX_DIGITS = 4300

# Whitespace and comments, then one well-formed item: a block head, a field, a
# closing brace or the end of the source.  A comment runs to its line's end, so
# a match never starts an item inside one.  A key or an identifier value starts
# with an ASCII letter (a name's first character is checked with isalpha()),
# and a value may not run into a letter, digit, "_" or "-"; an integer has at
# most MAX_DIGITS digits, and a list holds no comment, so _LISTED reads its
# strings.  What the regex does not match is read a token at a time.
_SPACE = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_STRING = r'"[^"\\\x00-\x1f\x7f]*(?:\\["\\][^"\\\x00-\x1f\x7f]*)*"'
_ITEM = re.compile(rf"""
    {_SPACE}
    (?:(?P<head>problem(?![\w-]){_SPACE}(?P<name>[^\W\d_][\w-]*){_SPACE}\{{)
      |(?P<key>[A-Za-z][\w-]*){_SPACE}:{_SPACE}
       (?:(?P<int>\d{{1,{MAX_DIGITS}}})
         |(?P<ident>[A-Za-z][\w-]*)
         |(?P<string>{_STRING})
         |(?P<list>\[[ \t\r\n]*(?:{_STRING}(?:[ \t\r\n]*,[ \t\r\n]*{_STRING})*[ \t\r\n]*)?\]))
       (?![\w-])
      |(?P<close>\}})
      |(?P<eof>\Z))
""", re.VERBOSE)
_LISTED = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"')


def _error(source: str, offset: int, message: str, expected: str | None = None) -> ParseError:
    """The ParseError for ``message`` at ``offset``, with its 1-based line and column."""
    line_start = source.rfind("\n", 0, offset) + 1
    return ParseError(source.count("\n", 0, line_start) + 1, offset - line_start + 1,
                      message, expected)


def _unescape(body: str) -> str:
    """A quoted string's value, from the text between its quotes."""
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def _token(source: str, pos: int) -> tuple:
    """The ``(kind, value, offset, end)`` of the token after ``pos``: eof at the end."""
    match = _TOKEN.match(source, pos)
    kind = match.lastgroup
    pos = match.end()
    if kind is None:
        if pos == len(source):
            return "eof", None, pos, pos
        raise _error(source, pos, f"unexpected character {source[pos]!r}")
    start = match.start(kind)
    value = match.group(kind)
    if kind == "ident" and not value[0].isalpha():
        raise _error(source, start, f"unexpected character {value[0]!r}")
    if kind == "int":
        if len(value) > MAX_DIGITS:
            raise _error(source, start, f"integer literal too long ({len(value)} digits)")
        value = int(value)
    elif kind == "string":
        end = source[pos:pos + 1]
        if end == "\\" and pos + 1 < len(source):
            raise _error(source, pos + 1, f"invalid escape \\{source[pos + 1]}")
        if end != '"':
            raise _error(source, start, "unterminated string" if end in ("", "\\", "\n")
                         else "control character in string")
        pos += 1
        value = _unescape(value[1:])
    return kind, value, start, pos


class _Parser:
    # Reads one item per _ITEM match where it can, and otherwise that one item
    # a token at a time, never reading ahead of it.  Tokens are made only when
    # asked for, and a matched item holds none that could fail, so an early
    # parse error is reported before a tokenizer error further down the file.
    # Both routes give an item's key and value to the same checks.
    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def _next(self) -> tuple:
        """The next ``(kind, value, offset)`` token."""
        kind, value, start, self.pos = _token(self.source, self.pos)
        return kind, value, start

    def _expect(self, tok: tuple, kind: str, value: str | None, what: str,
                message: str | None = None):
        """The value of ``tok`` if it has this kind (and value, unless None)."""
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise _error(self.source, tok[2], message or f"expected {what}", expected=what)
        return tok[1]

    def parse_file(self) -> list[ProblemSpec]:
        specs = []
        names = set()
        while True:
            item = _ITEM.match(self.source, self.pos)
            kind = item.lastgroup if item else None
            if kind == "eof":
                break
            if kind == "head" and item["name"][0].isalpha():
                self.pos = item.end()
                name = item["name"]
            else:
                tok = self._next()
                if tok[0] == "eof":
                    break
                name = self._parse_head(tok)
            spec = self._parse_block(name)
            if spec.name in names:
                raise ValidationError(f"duplicate problem name: {spec.name}")
            names.add(spec.name)
            specs.append(spec)
        return specs

    def _parse_head(self, keyword: tuple) -> str:
        self._expect(keyword, "ident", "problem", "'problem'")
        name = self._expect(self._next(), "ident", None, "problem name")
        self._expect(self._next(), "punct", "{", "'{'")
        return name

    def _parse_block(self, name: str) -> ProblemSpec:
        fields: dict[str, object] = {}
        while True:
            item = _ITEM.match(self.source, self.pos)
            kind = item.lastgroup if item else None
            if kind == "close":
                self.pos = item.end()
                break
            if kind in ("int", "ident", "string", "list"):
                key = item["key"]
                self._check_key(fields, key, item.start("key"))
                self.pos = item.end()
                value, offset = item[kind], item.start(kind)
                if kind == "int":
                    value = int(value)
                elif kind == "string":
                    value = _unescape(value[1:-1])
                elif kind == "list":
                    self._check_value(key, ("punct", "[", offset))
                    fields[key] = tuple(map(_unescape, _LISTED.findall(value)))
                    continue
                fields[key] = self._check_value(key, (kind, value, offset))
                continue
            tok = self._next()
            kind, key, offset = tok
            if kind == "punct" and key == "}":
                break
            if kind == "eof":
                raise _error(self.source, offset, "unterminated problem block", expected="'}'")
            self._expect(tok, "ident", None, "field name")
            self._check_key(fields, key, offset)
            self._expect(self._next(), "punct", ":", "':'")
            fields[key] = self._parse_value(key)
        return _validate(name, fields)

    def _check_key(self, fields: dict, key: str, offset: int) -> None:
        if key not in _FIELDS:
            raise _error(self.source, offset, f"unknown field: {key}")
        if key in fields:
            raise _error(self.source, offset, f"duplicate field: {key}")

    def _check_value(self, key: str, tok: tuple):
        """The value of ``tok``, the token a field's value starts with."""
        kind, value, takes, what = _FIELDS[key]
        found = self._expect(tok, kind, value, what, f"field {key} takes {takes}")
        if key in _ENUM_VALUES and found not in _ENUM_VALUES[key]:
            allowed = ", ".join(_ENUM_VALUES[key])
            raise _error(self.source, tok[2], f"field {key} must be one of {allowed}")
        return found

    def _parse_value(self, key: str):
        found = self._check_value(key, self._next())
        return self._parse_string_list() if key == "rows-data" else found

    def _parse_string_list(self) -> tuple[str, ...]:
        items: list[str] = []
        tok = self._next()
        while tok[:2] != ("punct", "]"):
            if items:
                self._expect(tok, "punct", ",", "',' or ']'")
                tok = self._next()
            items.append(self._expect(tok, "string", None, "quoted string",
                                      "expected a quoted string"))
            tok = self._next()
        return tuple(items)


# The fields each kind rejects and the fields it requires, in the order they
# are checked; a block without a kind requires one.
_KIND_FIELDS = {
    None: ((), ("kind",)),
    "squares": (("word", "layout", "rows-data", "adjacency", "distinct-cells"),
                ("cols", "rows", "variant")),
    "word-paths": (("cols", "rows", "variant"), ("word", "layout", "adjacency")),
}


def _validate(name: str, fields: dict) -> ProblemSpec:
    kind = fields.get("kind")
    rejected, required = _KIND_FIELDS[kind]
    for key in rejected:
        if key in fields:
            raise ValidationError(f"problem {name}: field {key} not allowed for kind {kind}")
    for key in required:
        if key not in fields:
            raise ValidationError(f"problem {name}: missing field: {key}")
    if kind == "squares":
        cols, rows = fields["cols"], fields["rows"]
        if cols < 1:
            raise ValidationError(f"problem {name}: cols must be positive")
        if rows < 1:
            raise ValidationError(f"problem {name}: rows must be positive")
        return ProblemSpec(name, kind, cols=cols, rows=rows, variant=fields["variant"])

    word, layout = fields["word"], fields["layout"]
    rows_data = fields.get("rows-data")
    if not word:
        raise ValidationError(f"problem {name}: word must be non-empty")
    if layout == "explicit":
        if rows_data is None:
            raise ValidationError(f"problem {name}: missing field: rows-data")
        if not rows_data or any(not row for row in rows_data):
            raise ValidationError(f"problem {name}: rows-data rows must be non-empty")
        if len({len(row) for row in rows_data}) != 1:
            raise ValidationError(f"problem {name}: rows-data rows must have equal length")
    else:
        if rows_data is not None:
            raise ValidationError(
                f"problem {name}: field rows-data not allowed for manhattan-rings layout"
            )
        if len(word) % 2 == 0:
            raise ValidationError(
                f"problem {name}: manhattan-rings layout requires odd word length"
            )
    return ProblemSpec(
        name,
        kind,
        word=word,
        layout=layout,
        rows_data=rows_data,
        adjacency=fields["adjacency"],
        distinct_cells=fields.get("distinct-cells") == "true",
    )


def parse_spec(source: str) -> list[ProblemSpec]:
    """Parse a spec file into validated problem descriptions."""
    return _Parser(source).parse_file()


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def print_spec(specs) -> str:
    """Canonical text form: fixed field order, two-space indent, defaults explicit.

    ``parse_spec(print_spec(specs))`` reproduces the input structurally.
    """
    blocks = []
    for spec in specs:
        lines = [f"problem {spec.name} {{", f"  kind: {spec.kind}"]
        if spec.kind == "squares":
            lines.append(f"  cols: {spec.cols}")
            lines.append(f"  rows: {spec.rows}")
            lines.append(f"  variant: {spec.variant}")
        else:
            lines.append(f"  word: {_quote(spec.word)}")
            lines.append(f"  layout: {spec.layout}")
            if spec.layout == "explicit":
                lines.append("  rows-data: [" + ", ".join(_quote(r) for r in spec.rows_data) + "]")
            lines.append(f"  adjacency: {spec.adjacency}")
            lines.append(f"  distinct-cells: {'true' if spec.distinct_cells else 'false'}")
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
