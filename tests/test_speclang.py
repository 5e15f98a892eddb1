"""Parsing, validation, canonical printing, and error positioning."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import configcount.speclang as speclang
from configcount.speclang import (
    ParseError,
    ProblemSpec,
    SpecError,
    ValidationError,
    parse_spec,
    print_spec,
)

from conftest import ERROR_CORPUS, REPO_ROOT

SAMPLE1_TEXT = "problem s1 { kind: squares cols: 5 rows: 5 variant: axis }"
SAMPLE2_TEXT = (
    'problem w { kind: word-paths word: "Open!" layout: manhattan-rings adjacency: side }'
)


def test_parse_squares_block():
    (spec,) = parse_spec(SAMPLE1_TEXT)
    assert spec == ProblemSpec("s1", "squares", cols=5, rows=5, variant="axis")


def test_parse_word_block_with_default_distinct_cells():
    (spec,) = parse_spec(SAMPLE2_TEXT)
    assert spec == ProblemSpec(
        "w", "word-paths", word="Open!", layout="manhattan-rings",
        adjacency="side", distinct_cells=False,
    )


def test_parse_explicit_layout():
    (spec,) = parse_spec(
        'problem e { kind: word-paths word: "ab" layout: explicit '
        'rows-data: ["ab", "ba"] adjacency: king distinct-cells: true }'
    )
    assert spec.rows_data == ("ab", "ba")
    assert spec.adjacency == "king"
    assert spec.distinct_cells is True


def test_parse_empty_source():
    assert parse_spec("") == []
    assert parse_spec("  # only a comment\n") == []


def test_comments_and_whitespace_are_insignificant():
    text = (
        "# header\nproblem   s1{kind:squares\n\tcols:5 # inline\n  rows:5\nvariant:axis}"
    )
    assert parse_spec(text) == parse_spec(SAMPLE1_TEXT)


def test_string_escapes_round_trip():
    (spec,) = parse_spec(r'problem w { kind: word-paths word: "a\"b\\c" '
                         "layout: explicit rows-data: [\"xyz\"] adjacency: none }")
    assert spec.word == 'a"b\\c'
    assert parse_spec(print_spec([spec])) == [spec]


def test_missing_field_names_the_field():
    with pytest.raises(ValidationError, match="missing field: rows"):
        parse_spec("problem bad { kind: squares cols: 5 }")
    with pytest.raises(ValidationError, match="missing field: kind"):
        parse_spec("problem bad { cols: 5 }")
    with pytest.raises(ValidationError, match="missing field: adjacency"):
        parse_spec('problem bad { kind: word-paths word: "abc" layout: manhattan-rings }')
    with pytest.raises(ValidationError, match="missing field: rows-data"):
        parse_spec('problem bad { kind: word-paths word: "abc" layout: explicit adjacency: side }')


def test_field_kind_mismatches_rejected():
    with pytest.raises(ValidationError, match="not allowed for kind squares"):
        parse_spec('problem bad { kind: squares cols: 5 rows: 5 variant: axis word: "x" }')
    with pytest.raises(ValidationError, match="not allowed for kind word-paths"):
        parse_spec('problem bad { kind: word-paths word: "abc" layout: manhattan-rings '
                   "adjacency: side cols: 5 }")
    with pytest.raises(ValidationError, match="not allowed for manhattan-rings"):
        parse_spec('problem bad { kind: word-paths word: "abc" layout: manhattan-rings '
                   'adjacency: side rows-data: ["abc"] }')


def test_semantic_validation():
    with pytest.raises(ValidationError, match="requires odd word length"):
        parse_spec('problem bad { kind: word-paths word: "Open" layout: manhattan-rings '
                   "adjacency: side }")
    with pytest.raises(ValidationError, match="cols must be positive"):
        parse_spec("problem bad { kind: squares cols: 0 rows: 5 variant: axis }")
    with pytest.raises(ValidationError, match="equal length"):
        parse_spec('problem bad { kind: word-paths word: "a" layout: explicit '
                   'rows-data: ["ab", "c"] adjacency: side }')
    with pytest.raises(ValidationError, match="non-empty"):
        parse_spec('problem bad { kind: word-paths word: "" layout: manhattan-rings '
                   "adjacency: side }")
    with pytest.raises(ValidationError, match="duplicate problem name"):
        parse_spec(SAMPLE1_TEXT + "\n" + SAMPLE1_TEXT)


def test_print_canonical_form():
    (spec,) = parse_spec(SAMPLE1_TEXT)
    assert print_spec([spec]) == (
        "problem s1 {\n"
        "  kind: squares\n"
        "  cols: 5\n"
        "  rows: 5\n"
        "  variant: axis\n"
        "}\n"
    )


def test_print_empty_sequence():
    assert print_spec([]) == ""


def test_print_spells_out_defaults():
    (spec,) = parse_spec(SAMPLE2_TEXT)
    assert "distinct-cells: false" in print_spec([spec])


def test_print_parse_round_trip_on_samples(samples_path):
    specs = parse_spec(samples_path.read_text(encoding="utf-8"))
    assert len(specs) == 5
    assert parse_spec(print_spec(specs)) == specs


def test_print_is_idempotent(samples_path):
    specs = parse_spec(samples_path.read_text(encoding="utf-8"))
    once = print_spec(specs)
    assert print_spec(parse_spec(once)) == once


# ---------------------------------------------------------------------------
# property round trip

_names = st.from_regex(r"[a-z][a-z0-9_-]{0,7}", fullmatch=True)
_symbols = st.characters(blacklist_categories=("Cc", "Cs"))
_texts = st.text(alphabet=_symbols, min_size=1, max_size=6)

_squares_specs = st.builds(
    lambda cols, rows, variant: ProblemSpec(
        "x", "squares", cols=cols, rows=rows, variant=variant
    ),
    cols=st.integers(min_value=1, max_value=99),
    rows=st.integers(min_value=1, max_value=99),
    variant=st.sampled_from(["axis", "all"]),
)

_rings_specs = st.builds(
    lambda word, adjacency, distinct: ProblemSpec(
        "x", "word-paths", word=word, layout="manhattan-rings",
        adjacency=adjacency, distinct_cells=distinct,
    ),
    word=st.integers(min_value=0, max_value=3).flatmap(
        lambda k: st.text(alphabet=_symbols, min_size=2 * k + 1, max_size=2 * k + 1)
    ),
    adjacency=st.sampled_from(["side", "king", "none"]),
    distinct=st.booleans(),
)

_explicit_specs = st.builds(
    lambda word, shape, adjacency, distinct: ProblemSpec(
        "x", "word-paths", word=word, layout="explicit", rows_data=shape,
        adjacency=adjacency, distinct_cells=distinct,
    ),
    word=_texts,
    shape=st.integers(min_value=1, max_value=4).flatmap(
        lambda cols: st.lists(
            st.text(alphabet=_symbols, min_size=cols, max_size=cols),
            min_size=1, max_size=4,
        ).map(tuple)
    ),
    adjacency=st.sampled_from(["side", "king", "none"]),
    distinct=st.booleans(),
)


@st.composite
def spec_sequences(draw):
    bodies = draw(st.lists(st.one_of(_squares_specs, _rings_specs, _explicit_specs),
                           max_size=3))
    names = draw(st.lists(_names, min_size=len(bodies), max_size=len(bodies), unique=True))
    return [ProblemSpec(**dict(vars(body), name=name)) for body, name in zip(bodies, names)]


@settings(max_examples=100, deadline=None)
@given(spec_sequences())
def test_round_trip_property(specs):
    printed = print_spec(specs)
    assert parse_spec(printed) == specs
    assert print_spec(parse_spec(printed)) == printed


# ---------------------------------------------------------------------------
# error corpus

_EXPECTED_POSITIONS = {
    "e01_unclosed_block.ccspec": (6, 1),
    "e02_bad_character.ccspec": (1, 10),
    "e03_missing_colon.ccspec": (1, 18),
    "e04_unknown_field.ccspec": (1, 27),
    "e05_duplicate_field.ccspec": (1, 35),
    "e06_unterminated_string.ccspec": (3, 9),
    "e07_bad_escape.ccspec": (1, 39),
    "e08_int_for_string.ccspec": (1, 36),
    "e09_string_for_int.ccspec": (1, 33),
    "e10_bad_enum.ccspec": (1, 36),
    "e11_missing_keyword.ccspec": (1, 1),
    "e12_list_missing_comma.ccspec": (1, 47),
    "e13_stray_brace.ccspec": (1, 59),
    "e14_superscript_digit.ccspec": (1, 33),
    "e15_long_integer.ccspec": (1, 33),
}


def test_error_corpus_is_large_enough():
    assert len(list(ERROR_CORPUS.glob("*.ccspec"))) >= 10
    assert {p.name for p in ERROR_CORPUS.glob("*.ccspec")} == set(_EXPECTED_POSITIONS)


@pytest.mark.parametrize("name", sorted(_EXPECTED_POSITIONS))
def test_error_corpus_positions(name):
    path = Path(ERROR_CORPUS, name)
    with pytest.raises(ParseError) as exc_info:
        parse_spec(path.read_text(encoding="utf-8"))
    err = exc_info.value
    assert (err.line, err.column) == _EXPECTED_POSITIONS[name]
    assert err.line >= 1 and err.column >= 1
    assert f"{err.line}:{err.column}:" in str(err)


_EXPECTED_MESSAGES = {
    "e01_unclosed_block.ccspec": "6:1: unterminated problem block (expected '}')",
    "e02_bad_character.ccspec": "1:10: unexpected character '$'",
    "e03_missing_colon.ccspec": "1:18: expected ':' (expected ':')",
    "e04_unknown_field.ccspec": "1:27: unknown field: colour",
    "e05_duplicate_field.ccspec": "1:35: duplicate field: cols",
    "e06_unterminated_string.ccspec": "3:9: unterminated string",
    "e07_bad_escape.ccspec": "1:39: invalid escape \\q",
    "e08_int_for_string.ccspec": "1:36: field word takes a quoted string (expected quoted string)",
    "e09_string_for_int.ccspec": "1:33: field cols takes an integer (expected integer)",
    "e10_bad_enum.ccspec": "1:36: field variant must be one of axis, all",
    "e11_missing_keyword.ccspec": "1:1: expected 'problem' (expected 'problem')",
    "e12_list_missing_comma.ccspec": "1:47: expected ',' or ']' (expected ',' or ']')",
    "e13_stray_brace.ccspec": "1:59: expected 'problem' (expected 'problem')",
    "e14_superscript_digit.ccspec": "1:33: unexpected character '\u00b2'",
    "e15_long_integer.ccspec": "1:33: integer literal too long (5000 digits)",
}


@pytest.mark.parametrize("name", sorted(_EXPECTED_POSITIONS))
def test_error_corpus_messages(name):
    with pytest.raises(ParseError) as exc_info:
        parse_spec(Path(ERROR_CORPUS, name).read_text(encoding="utf-8"))
    assert str(exc_info.value) == _EXPECTED_MESSAGES[name]


_WORD = 'problem w { kind: word-paths word: "a'


@pytest.mark.parametrize("source, message", [
    pytest.param(_WORD + '\tb" }', "1:36: control character in string", id="tab-in-string"),
    pytest.param(_WORD + '\x7f" }', "1:36: control character in string", id="del-in-string"),
    pytest.param(_WORD + '\\\nb" }', "1:39: invalid escape \\\n", id="backslash-newline"),
    pytest.param(_WORD + "\\", "1:36: unterminated string", id="backslash-at-eof"),
    pytest.param(_WORD, "1:36: unterminated string", id="string-at-eof"),
    pytest.param("problem a {\r kind: squares cols: 2\r rows: x }",
                 "1:43: field rows takes an integer (expected integer)", id="carriage-return"),
    pytest.param("problem a { # no close",
                 "1:23: unterminated problem block (expected '}')", id="comment-at-eof"),
    pytest.param("problem \u00b2 {", "1:9: unexpected character '\u00b2'", id="superscript-first"),
    pytest.param("problem \u00bd {", "1:9: unexpected character '\u00bd'", id="fraction-first"),
    pytest.param("problem\u00a0a {", "1:8: unexpected character '\\xa0'", id="no-break-space"),
    pytest.param("problem \u0663 {", "1:9: expected problem name (expected problem name)",
                 id="arabic-indic-name"),
    pytest.param("problem a { kind: squares cols: \u0663\u0660 rows: \u0662 variant: \u0663 }",
                 "1:53: field variant takes an identifier (expected identifier)",
                 id="arabic-indic-columns"),
    pytest.param("problem a { kind squares }\n\u00b2", "1:18: expected ':' (expected ':')",
                 id="parse-error-before-bad-character"),
    pytest.param('problem a { kind squares }\n"\\q', "1:18: expected ':' (expected ':')",
                 id="parse-error-before-bad-escape"),
    pytest.param("# c\r\n" * 300 + "problem a { $ }", "301:13: unexpected character '$'",
                 id="crlf-comment-lines"),
])
def test_parse_error_texts(source, message):
    with pytest.raises(ParseError) as exc_info:
        parse_spec(source)
    assert str(exc_info.value) == message


def test_identifier_continues_with_any_alphanumeric():
    (spec,) = parse_spec("problem x\u00b2 { kind: squares cols: 2 rows: 2 variant: axis } # end")
    assert spec.name == "x\u00b2"


def test_decimal_digits_of_any_script_parse_as_integers():
    (spec,) = parse_spec("problem a { kind: squares cols: \u0663 rows: \u0661\u0662 variant: axis }")
    assert (spec.cols, spec.rows) == (3, 12)


# ---------------------------------------------------------------------------
# arbitrary input: a list of problems or a SpecError, nothing else

_SPEC_TOKENS = (
    "problem", "p", "q", "kind", "cols", "rows", "variant", "word", "layout", "rows-data",
    "adjacency", "distinct-cells", "squares", "word-paths", "axis", "all", "manhattan-rings",
    "explicit", "side", "king", "none", "true", "false",
    "{", "}", ":", ",", "[", "]", '"', '"ab"', "\\", '\\"', "#", " ", "\n", "\r\n", "\t",
    "0", "7", "\u0663", "\u00b2", "\u2460", "9" * 4301,
    "problem p { kind: squares cols: ",
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SPEC_TOKENS), st.text(max_size=3)), max_size=16))
def test_parse_returns_problems_or_raises_spec_error(pieces):
    source = "".join(pieces)
    try:
        result = parse_spec(source)
    except ParseError as err:
        _assert_positioned(source, err)
        return
    except SpecError:
        return
    assert isinstance(result, list)


def _assert_positioned(source, err):
    """``err``'s line and column lie in ``source`` and point where its message says."""
    lines = source.split("\n")
    assert 1 <= err.line <= len(lines)
    assert 1 <= err.column <= len(lines[err.line - 1]) + 1
    assert str(err).startswith(f"{err.line}:{err.column}: ")
    offset = sum(len(line) + 1 for line in lines[:err.line - 1]) + err.column - 1
    if err.message.startswith("unexpected character "):
        assert repr(source[offset:offset + 1]) == err.message.removeprefix("unexpected character ")
    elif err.message.startswith("invalid escape "):
        assert source[offset - 1:offset] == "\\"
    elif err.message in ("unterminated string", "control character in string"):
        assert source[offset:offset + 1] == '"'



# ---------------------------------------------------------------------------
# items read whole and items read a token at a time

def _outcome(source):
    """What ``parse_spec(source)`` gives: its problems, or its error's type and text."""
    try:
        return parse_spec(source)
    except SpecError as err:
        return type(err).__name__, str(err)


def _token_by_token(source):
    """``_outcome(source)`` with every item read a token at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(speclang, "_ITEM", re.compile(r"(?!)"))
        return _outcome(source)


_PRINTED_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[{}:,\[\]]|[^\s{}:,\[\]"]+')
# What goes between two tokens: whitespace, CRLF, and comments that hold a
# quote, a brace or a block head.
_GAPS = (" ", "\n", "\r\n", "\t", "  \t", "# c\n", '# "x"\n', "# }\n", "# problem p {\n",
         ' # problem q { kind: squares cols: "\r\n', "\n#\n\t")


@st.composite
def _spaced_specs(draw):
    """``print_spec`` output with a drawn gap at every token gap, list items
    included; the last gap may be a comment with no line end."""
    tokens = _PRINTED_TOKEN.findall(print_spec(draw(spec_sequences())))
    gaps = st.sampled_from(_GAPS)
    pieces = [draw(gaps) + token for token in tokens]
    return "".join(pieces) + draw(st.sampled_from(_GAPS + ("", "# end")))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    _spaced_specs(),
    st.lists(st.one_of(st.sampled_from(_SPEC_TOKENS), st.text(max_size=3)),
             max_size=16).map("".join),
))
def test_items_read_whole_parse_as_read_token_by_token(source):
    assert _outcome(source) == _token_by_token(source)


_EXPLICIT = 'problem e { kind: word-paths word: "ab" layout: explicit '
_SQUARE = "problem a { kind: squares cols: "


@pytest.mark.parametrize("source, expected", [
    pytest.param(_EXPLICIT + 'rows-data: ["ab", # "x"\n "ba"] adjacency: side }',
                 [ProblemSpec("e", "word-paths", word="ab", layout="explicit",
                              rows_data=("ab", "ba"), adjacency="side")],
                 id="comment-in-list"),
    pytest.param("# problem p {\nproblem q { kind: squares cols: 2 rows: 2 variant: axis }",
                 [ProblemSpec("q", "squares", cols=2, rows=2, variant="axis")],
                 id="comment-holding-a-head"),
    pytest.param("problemp { kind: squares cols: 2 rows: 2 variant: axis }",
                 ("ParseError", "1:1: expected 'problem' (expected 'problem')"),
                 id="glued-keyword"),
    pytest.param(_SQUARE + "3x rows: 2 variant: axis }",
                 ("ParseError", "1:34: unknown field: x"), id="glued-int"),
    pytest.param('problem e { kind: word-paths word: "ab"layout: explicit rows-data: ["ab"] '
                 "adjacency: side }",
                 [ProblemSpec("e", "word-paths", word="ab", layout="explicit",
                              rows_data=("ab",), adjacency="side")],
                 id="glued-string"),
    pytest.param(_SQUARE + "9" * 4301 + " rows: 2 variant: axis }",
                 ("ParseError", "1:33: integer literal too long (4301 digits)"),
                 id="4301-digits"),
    pytest.param(_SQUARE + "٣ rows: ١٢ variant: axis }",
                 [ProblemSpec("a", "squares", cols=3, rows=12, variant="axis")],
                 id="arabic-indic-digits"),
])
def test_items_that_the_item_regex_could_misread(source, expected):
    assert _outcome(source) == expected
    assert _token_by_token(source) == expected


def _many_problems(count):
    """``count`` problems of every shape, printed, with quotes and backslashes in
    the words."""
    specs = []
    for i in range(count):
        if i % 3 == 0:
            spec = ProblemSpec("x", "squares", cols=i % 7 + 1, rows=i % 5 + 1,
                               variant=("axis", "all")[i % 2])
        elif i % 3 == 1:
            spec = ProblemSpec("x", "word-paths", word=('a"\\', "é", "abcde")[i // 3 % 3],
                               layout="manhattan-rings", adjacency="king")
        else:
            spec = ProblemSpec("x", "word-paths", word="ab", layout="explicit",
                               rows_data=("ab", '"\\'), adjacency="none",
                               distinct_cells=bool(i % 4))
        specs.append(ProblemSpec(**dict(vars(spec), name=f"p{i:04d}")))
    return specs


@pytest.mark.parametrize("name", ["samples", "branches", "1000-problems"])
def test_real_files_read_no_item_token_by_token(monkeypatch, name):
    if name == "1000-problems":
        source = print_spec(_many_problems(1000))
    else:
        path = {"samples": REPO_ROOT / "samples.ccspec",
                "branches": REPO_ROOT / "tests" / "data" / "golden" / "branches.ccspec"}[name]
        source = path.read_text(encoding="utf-8")
    read = []
    real = speclang._token

    def spy(source, pos):
        token = real(source, pos)
        read.append(token)
        return token

    monkeypatch.setattr(speclang, "_token", spy)
    specs = parse_spec(source)
    assert read == []
    assert len(specs) == {"samples": 5, "branches": 8, "1000-problems": 1000}[name]
    assert specs == _token_by_token(source)
