import dataclasses
import hashlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from carveq import (
    AtomSet,
    ClauseViolation,
    CycW,
    Cyclic,
    ParseError,
    PPoint,
    PairMerge,
    Pullback,
    Rational,
    StructuralMismatch,
    Tag,
    WordAtom,
    YSeq,
    ZCode,
    parse_any,
    parse_aseq,
    parse_atom,
    parse_binseq,
    parse_ppoint,
    pullback,
    stream,
    to_text,
)
from carveq.atoms import MAX_TAG_DEPTH
from carveq.generators import gen_serial_value
from carveq.serialize import _Parser

from helpers import (
    R1,
    R2,
    R3,
    R4,
    SERIAL_CFG,
    WHITESPACE,
    mutated_texts,
    option_like_texts,
    parse_outcome,
    reference_tokens,
    whitespace_texts,
)
from strategies import SERIAL_KINDS, TOKEN_TEXTS

# strings the printer would never emit, plus canonical ones
VECTORS = [
    "(rat 1 2)",
    "(rat 2 4)",
    "(rat -6 4)",
    "(rat 0 5)",
    "(tag 1 (rat -3 6))",
    "(word 10)",
    "(word 0101)",
    "(cw 1010)",
    "(cw 1)",
    "(cyc (rat 1 2))",
    "(cyc (rat 1 1) (rat 1 1) (rat 2 1))",
    "(pairmerge (zlist (cyc (rat 1 1)) (cyc (rat 2 1) (rat 1 1))))",
    "(pull (cyc (rat 1 1) (rat 2 1)) (set (rat 1 1)))",
    "(pull (cyc (rat 1 1)) (set))",
    "(pull (pairmerge (zlist (cyc (rat 1 1)) (cyc (rat 2 1)))) (set (rat 1 1)))",
    "(ylist (cw 10) (cw 01))",
    "(zlist (cyc (rat 1 1)) (cyc (rat 2 1) (rat 2 1)))",
    "(p (cyc (rat 1 1) (rat 2 1)) (ylist (cw 10) (cw 01)))",
    "  ( cw\t 10 )  ",
    "(tag 0 (tag 1 (word 11)))",
]


def test_known_canonicalizations():
    assert to_text(parse_any("(cw 1010)")) == "(cw 10)"
    assert to_text(parse_any("(cyc (rat 1 2))")) == "(cyc (rat 1 2))"
    assert to_text(parse_any("(rat 2 4)")) == "(rat 1 2)"
    # U+0661 and U+0662 are the Arabic-Indic digits one and two.
    assert to_text(parse_any("(rat \u0661 \u0662)")) == "(rat 1 2)"
    assert to_text(parse_any("(word 0101)")) == "(word 01)"
    # pullback over a cyclic base normalizes to a word
    assert to_text(parse_any("(pull (cyc (rat 1 1) (rat 2 1)) (set (rat 1 1)))")) == "(cw 10)"
    assert to_text(parse_any("(pull (cyc (rat 1 1)) (set))")) == "(cw 0)"


@pytest.mark.parametrize("vector", VECTORS)
def test_print_parse_idempotent(vector):
    once = to_text(parse_any(vector))
    assert to_text(parse_any(once)) == once


def test_parse_print_identity_on_random_codes():
    for i in range(1200):
        rng = stream(31, i)
        value = gen_serial_value(rng, SERIAL_CFG)
        assert parse_any(to_text(value)) == value


@pytest.mark.parametrize("kind", sorted(SERIAL_KINDS))
@settings(derandomize=True)
@given(data=st.data())
def test_parse_of_print_is_the_identity_on_every_constructor(kind, data):
    value = data.draw(SERIAL_KINDS[kind])
    assert parse_any(to_text(value)) == value


def test_whitespace_insensitive():
    assert parse_any(" (  cyc (rat   1 2) ) ") == Cyclic((Rational(1, 2),))
    assert parse_any("(p(cyc(rat 1 1))(ylist(cw 1)))") is not None


def test_typed_entry_points():
    assert parse_atom("(tag 0 (rat 1 1))") == Tag(0, Rational(1, 1))
    assert parse_aseq("(cyc (word 10))") == Cyclic((WordAtom("10"),))
    assert parse_binseq("(cw 01)") == CycW("01")
    p = parse_ppoint("(p (cyc (rat 1 1)) (ylist (cw 1)))")
    assert p.x == Cyclic((R1,))


def test_overlong_integer_is_a_parse_error():
    digits = "1" * 5000
    with pytest.raises(ParseError) as err:
        parse_any(f"(rat {digits} 1)")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse_any(f"(p (cyc (rat 1 {digits})) (ylist (cw 1)))")
    assert err.value.position == 15


def test_integer_digits_are_the_decimal_characters():
    """An integer's digits are the str.isdecimal characters, which int()
    converts and the printer writes back in ASCII.  A numeric character that
    is not decimal, such as a superscript two, is not a digit."""
    assert to_text(parse_any("(rat ٣ 1)")) == "(rat 3 1)"
    numeric = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isnumeric()]
    decimal = 0
    for c in numeric:
        text = f"(rat {c} 1)"
        if c.isdecimal():
            decimal += 1
            assert parse_any(text) == Rational(int(c), 1)
            continue
        with pytest.raises(ParseError) as err:
            parse_any(text)
        assert str(err.value) == f"expected an integer, found {c!r} (at position 5)"
    assert "²" in numeric and 0 < decimal < len(numeric)


def test_parse_errors_carry_positions():
    deep = "(tag 0 " * (MAX_TAG_DEPTH + 1) + "(rat 1 1)" + ")" * (MAX_TAG_DEPTH + 1)
    for entry, text, message, position in [
        (parse_any, "", "unexpected end of input", 0),
        (parse_any, "(cw 1", "unexpected end of input", 5),
        (parse_any, "(cw 10", "unexpected end of input", 6),
        (parse_any, "cw 1)", "expected '(', found 'cw'", 0),
        (parse_any, "(cw 10 1)", "expected ')', found '1'", 7),
        # The token '1' also occurs inside the '11' before it.
        (parse_any, "(rat 11 1 1)", "expected ')', found '1'", 10),
        (parse_any, "(cw 10) junk", "trailing input after complete form", 8),
        (parse_any, "()", "expected a keyword after '('", 1),
        (parse_any, "(unknown 1)", "unknown form keyword 'unknown'", 1),
        (parse_any, "(cw )", "expected a 0/1 string, found ')'", 4),
        (parse_any, "(rat x 1)", "expected an integer, found 'x'", 5),
        (parse_any, "(rat 1 -2)", "expected a positive integer, found '-2'", 7),
        (parse_any, "(rat 1 0)", "expected a positive integer, found '0'", 7),
        # U+0660 is a decimal digit, so it reads as an integer, here zero.
        (parse_any, "(rat 1 \u0660)", "expected a positive integer, found '\u0660'", 7),
        (parse_any, "(tag 2 (rat 1 1))", "expected a bit, found '2'", 5),
        (parse_any, deep, f"tags nested deeper than {MAX_TAG_DEPTH}", 7 * (MAX_TAG_DEPTH + 1)),
        (parse_any, "(word 012)", "expected a 0/1 string, found '012'", 6),
        (parse_any, "(cyc (cw 1))", "expected an atom keyword, found 'cw'", 6),
        (parse_any, "(pull (rat 1 1) (set))", "expected an atom-sequence keyword, found 'rat'", 7),
        (parse_any, "(ylist (cyc (rat 1 1)))", "expected a binary-sequence keyword, found 'cyc'", 8),
        (parse_any, "(pull (cyc (rat 1 1)) (zlist))", "expected 'set', found 'zlist'", 23),
        (parse_any, "(cyc)", "cyc needs at least one atom", 4),
        (parse_any, "(ylist)", "ylist needs at least one entry", 6),
        (parse_any, "(zlist)", "zlist needs at least one row", 6),
        (parse_any, "(zlist (cw 1))", "expected 'cyc', found 'cw'", 8),
        (parse_any, "(p (cyc (rat 1 1)) (zlist (cyc (rat 1 1))))", "expected 'ylist', found 'zlist'", 20),
        # U+3000 is whitespace; U+200B is not, so it joins the keyword.
        (parse_any, "(cw\u300010)\u3000junk", "trailing input after complete form", 8),
        (parse_any, "(cw\u200b 10)", "unknown form keyword 'cw\\u200b'", 1),
        (parse_ppoint, "(cw 1)", "expected 'p', found 'cw'", 1),
        (parse_atom, "(cw 1)", "expected an atom keyword, found 'cw'", 1),
        (parse_aseq, "(rat 1 1)", "expected an atom-sequence keyword, found 'rat'", 1),
        (parse_binseq, "(cyc (rat 1 1))", "expected a binary-sequence keyword, found 'cyc'", 1),
        # Errors after a repeated rational text, whose value the parser keeps.
        (parse_aseq, "(cyc (rat 1 2) (rat 1 2) (rat 1 0))", "expected a positive integer, found '0'", 32),
        (parse_any, "(cyc (rat 1 2) (rat 1 2) (rat 1 0))", "expected a positive integer, found '0'", 32),
        (parse_aseq, "(cyc (rat 1 2) (rat 1 2)", "unexpected end of input", 24),
        (parse_any, "(cyc (rat 1 2) (rat 1 2)", "unexpected end of input", 24),
        (parse_any, "(cyc (rat 1 2) (rat 1 2", "unexpected end of input", 23),
        (parse_any, "(cyc (rat 1 2) (rat 1 2 (rat 1 2)))", "expected ')', found '('", 24),
        (parse_ppoint, "(p (cyc (rat 1 2)) (ylist (rat 1 2)))", "expected a binary-sequence keyword, found 'rat'", 27),
    ]:
        with pytest.raises(ParseError) as err:
            entry(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


@settings(derandomize=True, max_examples=500)
@given(TOKEN_TEXTS)
def test_tokens_and_error_positions_match_reference_tokenizer(text):
    expected = reference_tokens(text)
    parser = _Parser(text)
    assert list(parser.tokens[:-1]) == [tok for tok, _ in expected]
    for pos, start in enumerate([start for _, start in expected] + [len(text)]):
        parser.pos = pos
        with pytest.raises(ParseError) as err:
            parser.error("probe")
        assert err.value.position == start


def wrapped(chars, left, right):
    """``left + c + right`` for each character c of ``chars``, joined by
    spaces: the empty string matches between every two characters and at
    both ends, and each end's partial separator is cut off."""
    return chars.replace("", right + " " + left)[len(right) + 1:-len(left) - 1]


def test_every_code_point_tokenizes_as_the_reference():
    """For every code point c, "a" + c + "b" and "(" + c + ")" give the
    reference tokens.  The reference reads c only through ``c.isspace()``
    and ``c in "()"``, so it runs on each whitespace character and
    parenthesis, and every other c gets the tokens of "x" with c in place
    of the x.  Those are tokenized one block of 2**16 code points at a
    time, wrapped and joined by spaces, and compared as their count and
    their join by spaces, which is exact because no reference token holds
    a space."""
    special = WHITESPACE + "()"
    drop = dict.fromkeys(map(ord, special))
    starts = range(0, sys.maxunicode + 1, 1 << 16)
    blocks = ["".join(map(chr, range(lo, lo + (1 << 16)))).translate(drop) for lo in starts]
    for left, right in ("ab", "()"):
        for c in special:
            text = left + c + right
            assert list(_Parser(text).tokens[:-1]) == [tok for tok, _ in reference_tokens(text)]
        template = [tok for tok, _ in reference_tokens(left + "x" + right)]
        pre, post = " ".join(template).split("x")
        for run in blocks:
            tokens = _Parser(wrapped(run, left, right)).tokens[:-1]
            assert (len(tokens), " ".join(tokens)) == (len(template) * len(run), wrapped(run, pre, post))


def test_parse_ppoint_validates():
    with pytest.raises(ClauseViolation) as err:
        parse_ppoint("(p (cyc (rat 1 1) (rat 1 1)) (ylist (cw 10)))")
    assert err.value.clause == 3


def test_printer_emits_canonical_pullback():
    z = ZCode((Cyclic((R1,)), Cyclic((R2,))))
    pb = pullback(PairMerge(z), AtomSet.of(R1))
    text = to_text(pb)
    assert text == "(pull (pairmerge (zlist (cyc (rat 1 1)) (cyc (rat 2 1)))) (set (rat 1 1)))"
    assert parse_any(text) == pb


# Two pair-merge bases that differ in one atom, and a point over the first.
BASE_A = PairMerge(ZCode((Cyclic((R1, R2)), Cyclic((R3,)))))
BASE_B = PairMerge(ZCode((Cyclic((R1, R4)), Cyclic((R3,)))))
POINT_A = PPoint(BASE_A, YSeq((pullback(BASE_A, AtomSet.of(R1)), pullback(BASE_A, AtomSet.of(R2, R3)))))


def test_parsed_point_entries_share_its_base():
    p = parse_ppoint(to_text(POINT_A))
    assert p == POINT_A
    assert all(isinstance(e, Pullback) and e.base is p.x for e in p.y.entries)


def test_entry_over_a_base_one_token_off_is_a_mismatch():
    text = to_text(POINT_A)
    # x, then entry 0's base, then entry 1's base: change entry 1's (rat 2 1).
    at = text.index("(rat 2 1)", text.index("(rat 2 1)", text.index("(rat 2 1)") + 1) + 1)
    bad = text[:at] + "(rat 4 1)" + text[at + len("(rat 4 1)"):]
    with pytest.raises(StructuralMismatch, match="entry 1 pulls back over a different base"):
        parse_ppoint(bad)


def test_alternating_bases_round_trip():
    y = YSeq((pullback(BASE_A, AtomSet.of(R1)), pullback(BASE_B, AtomSet.of(R4)), pullback(BASE_A, AtomSet.of(R3))))
    text = to_text(y)
    back = parse_any(text)
    assert back == y and to_text(back) == text


def rationals_in(value):
    """Every Rational occurrence in ``value``, read through the declared
    fields of its dataclasses and the items of its tuples."""
    if isinstance(value, Rational):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from rationals_in(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from rationals_in(getattr(value, f.name))


def test_a_repeated_rational_text_parses_to_one_value():
    # Atoms repeat across the rows of x and the sets of y, and inside tags.
    x = Cyclic((R1, Tag(1, R1), R2, Tag(0, Tag(1, R2))))
    y = YSeq((pullback(x, AtomSet.of(R1, Tag(1, R1))), pullback(x, AtomSet.of(R2, Tag(0, Tag(1, R2))))))
    point = PPoint(x, y)
    back = parse_ppoint(to_text(point))
    assert back == point
    seen = {}
    for r in rationals_in(back):
        seen.setdefault((r.num, r.den), set()).add(id(r))
    assert set(seen) == {(R1.num, R1.den), (R2.num, R2.den)}
    assert all(len(ids) == 1 for ids in seen.values())
    assert sum(1 for _ in rationals_in(back)) > len(seen)
    assert parse_aseq("(cyc (rat 1 2) (rat 1 3) (rat 1 2))") == Cyclic((Rational(1, 2), Rational(1, 3), Rational(1, 2)))


def test_equal_rationals_from_different_texts_are_equal():
    first, second = parse_aseq("(cyc (rat 2 4) (rat 1 2) (rat 1 3))").entries[:2]
    assert first == second == Rational(1, 2)


# md5 of every entry point's outcome over parse_corpus(), computed once with
# the parser before its index-read rewrite.  A parser change must leave it
# as it is: never recompute it to make this test pass.
PARSE_OUTCOMES_MD5 = "cab5c091ae7a27d054973b308adb0e33"


def parse_corpus():
    """Mutated and option-like texts, and every third-character prefix of
    300 canonical texts together with the whole text."""
    texts = mutated_texts(7, 2000) + option_like_texts(7, 500)
    for i in range(300):
        text = to_text(gen_serial_value(stream(13, i), SERIAL_CFG))
        texts.extend(text[:k] for k in range(0, len(text), 3))
        texts.append(text)
    return texts


def outcomes_digest(texts):
    """md5 of the outcome line of every parse entry point on every text."""
    digest = hashlib.md5()
    for text in texts:
        for entry in (parse_atom, parse_aseq, parse_binseq, parse_ppoint, parse_any):
            digest.update(parse_outcome(text, entry).encode() + b"\n")
    return digest.hexdigest()


def test_parse_outcomes_are_pinned():
    assert outcomes_digest(parse_corpus()) == PARSE_OUTCOMES_MD5


# md5 of every entry point's outcome over whitespace_texts(17, 2000),
# computed once with the regex tokenizer.  The texts behind
# PARSE_OUTCOMES_MD5 separate tokens with only " ", "\t" and "\u3000";
# these use every str.isspace character.  Never recompute it to make this
# test pass.
WHITESPACE_OUTCOMES_MD5 = "2f5d855917741afcff0f7bf8a177b439"


def test_whitespace_outcomes_are_pinned():
    assert outcomes_digest(whitespace_texts(17, 2000)) == WHITESPACE_OUTCOMES_MD5
