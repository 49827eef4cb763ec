"""Tests for the textual IR parser and printer round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    ArrayType,
    CondBranchInst,
    F64,
    GEPInst,
    I32,
    I64,
    LoadInst,
    ParseError,
    PhiInst,
    StoreInst,
    format_module,
    parse_module,
    pointer_to,
    verify_module,
)
from repro.ir.parser import _tokenize
from repro.workloads import ALL_WORKLOADS

from tests import tokenizer_oracle
from tests.test_profiler_oracles import _ACCESS, _program, multi_loop_programs


SIMPLE = """
func @main() -> i32 {
entry:
  ret i32 0
}
"""


class TestTopLevel:
    def test_empty_function(self):
        m = parse_module(SIMPLE)
        assert "main" in m.functions
        verify_module(m)

    def test_globals(self):
        m = parse_module("""
global @x : i32 = 42
const global @tab : [3 x f64] = [1.0, 2.0, 3.0]
global @buf : [8 x i8] = zeroinit
""")
        assert m.get_global("x").initializer == 42
        assert m.get_global("tab").is_constant
        assert m.get_global("tab").initializer == [1.0, 2.0, 3.0]
        assert m.get_global("buf").initializer is None

    def test_multiline_initializer(self):
        m = parse_module("""
global @t : [4 x i32] = [
  1, 2,
  3, 4 ]
""")
        assert m.get_global("t").initializer == [1, 2, 3, 4]

    def test_struct_and_recursive_struct(self):
        m = parse_module("""
struct %node { i64, %node* }
""")
        st = m.get_struct("node")
        assert st.size == 16
        assert st.fields[1].pointee is st

    def test_declare_with_attributes(self):
        m = parse_module("declare @sqrt(f64) -> f64 [pure]\n")
        assert m.get_function("sqrt").is_pure

    def test_duplicate_function_rejected(self):
        with pytest.raises(ValueError):
            parse_module(SIMPLE + SIMPLE)

    def test_unknown_toplevel(self):
        with pytest.raises(ParseError):
            parse_module("banana @x\n")


class TestInstructions:
    def test_full_instruction_coverage(self):
        m = parse_module("""
struct %pair { i32, f64 }
global @g : i32 = 1
declare @malloc(i64) -> i8*

func @helper(i32 %x) -> i32 {
entry:
  ret i32 %x
}

func @main() -> i32 {
entry:
  %a = alloca %pair
  %f = gep %pair* %a, i64 0, i64 1
  store f64 2.5, f64* %f
  %v = load f64* %f
  %s = fadd f64 %v, 1.0
  %c = fcmp olt f64 %s, 10.0
  %i = load i32* @g
  %j = add i32 %i, 3
  %k = sub i32 %j, 1
  %m = mul i32 %k, 2
  %n = xor i32 %m, 255
  %sh = shl i32 %n, 1
  %t = trunc i32 %sh to i8
  %z = zext i8 %t to i64
  %sx = sext i8 %t to i32
  %fp = sitofp i32 %sx to f64
  %ip = fptosi f64 %fp to i32
  %raw = call @malloc(i64 16)
  %p = bitcast i8* %raw to i32*
  %pi = ptrtoint i32* %p to i64
  %pp = inttoptr i64 %pi to i32*
  %sel = select i1 %c, i32 %j, i32 %k
  %h = call @helper(i32 %sel)
  switch i32 %h, %exit [1: %one, 2: %two]
one:
  br %exit
two:
  unreachable
exit:
  %r = phi i32 [0, %entry], [1, %one]
  condbr i1 %c, %ret, %other
other:
  br %ret
ret:
  ret i32 %r
}
""")
        verify_module(m)
        # Round trip through the printer.
        text = format_module(m)
        m2 = parse_module(text)
        verify_module(m2)
        assert format_module(m2) == text

    def test_forward_reference_in_phi(self):
        m = parse_module("""
func @f() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i.next, %loop]
  %i.next = add i32 %i, 1
  %c = icmp slt i32 %i.next, 5
  condbr i1 %c, %loop, %out
out:
  ret i32 %i.next
}
""")
        verify_module(m)
        phi = m.get_function("f").get_block("loop").phis[0]
        assert isinstance(phi, PhiInst)
        names = {v.name for v, _ in phi.incoming if hasattr(v, "name")}
        assert "i.next" in names

    def test_undefined_value_rejected(self):
        with pytest.raises(ParseError):
            parse_module("""
func @f() -> i32 {
entry:
  ret i32 %nope
}
""")

    def test_unknown_callee_rejected(self):
        with pytest.raises(ParseError):
            parse_module("""
func @f() -> void {
entry:
  call @ghost(i32 1)
  ret
}
""")

    def test_null_operand(self):
        m = parse_module("""
func @f(i32* %p) -> i1 {
entry:
  %c = icmp eq i32* %p, null
  ret i1 %c
}
""")
        verify_module(m)

    def test_redundant_type_annotation_tolerated(self):
        m = parse_module("""
func @f() -> i32 {
entry:
  %a = add i32 1, i32 2
  %s = select i1 1, i32 %a, i32 5
  ret i32 %s
}
""")
        verify_module(m)

    def test_comments_ignored(self):
        m = parse_module("""
; a module comment
func @f() -> i32 {
entry:
  ret i32 7   ; inline comment
}
""")
        verify_module(m)


class TestRoundTripWorkloads:
    def test_all_workloads_round_trip(self):
        from repro.workloads import ALL_WORKLOADS
        for wl in ALL_WORKLOADS:
            m = wl.build()
            text = format_module(m)
            m2 = parse_module(text)
            verify_module(m2)
            assert format_module(m2) == text, wl.name


# -- the tokenizer against its oracle ------------------------------------------

def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def _assert_tokenizes_like_oracle(text):
    """Equal ``(kind, text, line)`` streams, or equal ``ParseError``
    message and line."""
    assert (_tokens_or_error(_tokenize, text)
            == _tokens_or_error(tokenizer_oracle.tokenize, text))


class TestTokenizerOracle:
    @pytest.mark.parametrize("name", [w.name for w in ALL_WORKLOADS])
    def test_workloads(self, name):
        [wl] = [w for w in ALL_WORKLOADS if w.name == name]
        _assert_tokenizes_like_oracle(wl.source)
        _assert_tokenizes_like_oracle(format_module(wl.build()))

    @given(outer=st.lists(_ACCESS, max_size=5),
           inner=st.lists(_ACCESS, max_size=4),
           callee=st.lists(_ACCESS, max_size=3),
           recursive=st.lists(_ACCESS, max_size=2),
           outer_trips=st.integers(min_value=1, max_value=6),
           inner_trips=st.integers(min_value=1, max_value=5),
           depth=st.integers(min_value=0, max_value=2),
           second_call=st.booleans(),
           heap=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_generated_programs(self, outer, inner, callee, recursive,
                                outer_trips, inner_trips, depth,
                                second_call, heap):
        _assert_tokenizes_like_oracle(_program(
            outer, inner, callee, recursive, outer_trips, inner_trips,
            depth, second_call, heap))

    @given(text=multi_loop_programs())
    @settings(max_examples=10, deadline=None)
    def test_multi_loop_programs(self, text):
        _assert_tokenizes_like_oracle(text)

    @pytest.mark.parametrize("text", [
        "\r",
        "func @f() -> i32 {\r\nentry:\n  ret i32 0\n}\n",
        "$",
        "global @x : i32 = 1\n\n  $x\n",
        "-",
        "func @f() -> i32 {\nentry:\n  %a = sub i32 -, 1\n",
        '"unterminated',
        'global @s : [4 x i8] = "abc\nglobal @t : i32 = 0\n',
    ])
    def test_malformed_inputs(self, text):
        with pytest.raises(ParseError):
            _tokenize(text)
        _assert_tokenizes_like_oracle(text)

    @pytest.mark.parametrize("text", [
        "",
        "\n\n",
        "; a comment at EOF with no newline",
        "func @f() -> void {\nentry:\n  ret\n}   ; trailing comment",
        "  \t ; comment\n\n  ; another\nglobal @x : i32 = -7 ;x",
        'global @s : [9 x i8] = "a\\"b\nc"\n',
    ])
    def test_edge_inputs(self, text):
        _assert_tokenizes_like_oracle(text)

    @given(text=st.text(alphabet=" \t\n\r;%@:{}[](),=*->.0129aefix_\"\\$",
                        max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_random_text(self, text):
        _assert_tokenizes_like_oracle(text)
