import pytest
from hypothesis import given, settings, strategies as st

from carveq import (
    AtomSet,
    ClauseViolation,
    CycW,
    Cyclic,
    FuzzConfig,
    ParseError,
    PairMerge,
    Rational,
    Tag,
    WordAtom,
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
from carveq.generators import gen_serial_value
from carveq.serialize import _TOKEN

from helpers import R1, R2, reference_tokens

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
    assert to_text(parse_any("(word 0101)")) == "(word 01)"
    # pullback over a cyclic base normalizes to a word
    assert to_text(parse_any("(pull (cyc (rat 1 1) (rat 2 1)) (set (rat 1 1)))")) == "(cw 10)"
    assert to_text(parse_any("(pull (cyc (rat 1 1)) (set))")) == "(cw 0)"


@pytest.mark.parametrize("vector", VECTORS)
def test_print_parse_idempotent(vector):
    once = to_text(parse_any(vector))
    assert to_text(parse_any(once)) == once


def test_parse_print_identity_on_random_codes():
    cfg = FuzzConfig(cases=0, max_period=4, max_entries=3, atom_universe=3)
    for i in range(1200):
        rng = stream(31, i)
        value = gen_serial_value(rng, cfg)
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


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_any("(cw )")
    assert err.value.position == 4

    with pytest.raises(ParseError):
        parse_any("(cw 10")
    with pytest.raises(ParseError):
        parse_any("(unknown 1)")
    with pytest.raises(ParseError):
        parse_any("(rat 1 0)")
    with pytest.raises(ParseError):
        parse_any("(rat x 1)")
    with pytest.raises(ParseError) as err:
        parse_any("(cw 10) junk")
    assert err.value.position == 8
    with pytest.raises(ParseError):
        parse_any("")

    for text, message, position in [
        ("(cyc)", "cyc needs at least one atom", 4),
        ("(ylist)", "ylist needs at least one entry", 6),
        ("(zlist)", "zlist needs at least one row", 6),
        ("(zlist (cw 1))", "expected 'cyc', found 'cw'", 8),
        ("(p (cyc (rat 1 1)) (zlist (cyc (rat 1 1))))", "expected 'ylist', found 'zlist'", 20),
        # U+3000 is whitespace; U+200B is not, so it joins the keyword.
        ("(cw\u300010)\u3000junk", "trailing input after complete form", 8),
        ("(cw\u200b 10)", "unknown form keyword 'cw\\u200b'", 1),
    ]:
        with pytest.raises(ParseError) as err:
            parse_any(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


# ASCII whitespace (including the separators \x1c-\x1f), three Unicode
# spaces, the non-whitespace U+200B, parentheses and token characters.
TOKEN_TEXTS = st.text(alphabet="() \t\n\r\x0b\x0c\x1c\x1f\u00a0\u2003\u3000\u200b01ax-", max_size=40)


@settings(derandomize=True, max_examples=500)
@given(TOKEN_TEXTS)
def test_token_regex_matches_reference_tokenizer(text):
    expected = reference_tokens(text)
    assert [(m.group(), m.start()) for m in _TOKEN.finditer(text)] == expected
    assert _TOKEN.findall(text) == [tok for tok, _ in expected]


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
