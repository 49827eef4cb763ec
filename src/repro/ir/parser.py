"""Parser for the textual repro IR.

Accepts the format produced by :mod:`repro.ir.printer`.  A short
example::

    struct %node { i32, %node* }

    global @counter : i32 = 0

    declare @malloc(i64) -> i8*

    func @main() -> i32 {
    entry:
      %x = alloca i32
      store i32 41, i32* %x
      %v = load i32* %x
      %v2 = add i32 %v, 1
      ret i32 %v2
    }
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .block import BasicBlock
from .function import Function
from .instructions import (
    AllocaInst,
    BinaryInst,
    BinaryInst as _Bin,
    BranchInst,
    BINARY_OPS,
    CallInst,
    CastInst,
    CAST_OPS,
    CondBranchInst,
    FCmpInst,
    FCMP_PREDICATES,
    GEPInst,
    ICmpInst,
    ICMP_PREDICATES,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from .module import Module
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    VoidType,
    VOID,
)
from .values import Constant, NullPointer, UndefValue, Value


class ParseError(Exception):
    """Raised on malformed IR text."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


#: One match per token.  The blanks and the comment in front of a token
#: are folded into its match, so skipping them costs no trip through
#: the Python loop.  ``eof`` and ``bad`` make every position match:
#: ``finditer`` never steps over text it could not match, and the
#: folded prefix never backtracks into a comment.  Only ``float``,
#: ``int`` and ``arrow`` can start with the same character (``float``
#: must come before ``int``), so the alternatives are ordered by how
#: often they occur.
_TOKEN_RE = re.compile(r"""
    [ \t]*(?:;[^\n]*)?
    (?:
        (?P<punct>[{}\[\](),:=*])
      | (?P<word>[A-Za-z_][\w.]*)
      | (?P<lname>%[A-Za-z_][\w.]*)
      | (?P<newline>\n)
      | (?P<float>-?\d+\.\d+(?:e-?\d+)?)
      | (?P<int>-?\d+)
      | (?P<gname>@[A-Za-z_][\w.]*)
      | (?P<arrow>->)
      | (?P<string>"(?:\\.|[^"\\])*")
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""", re.VERBOSE)

#: A token: ``(kind, text, line)``.
_Token = Tuple[str, str, int]


def _tokenize(text: str) -> List[_Token]:
    """The tokens of ``text``, ending with an ``eof`` token.  A run of
    line breaks is one ``newline`` token, and none precedes the first
    token."""
    tokens: List[_Token] = []
    append = tokens.append
    line = 1
    after_newline = True
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            if not after_newline:
                append(("newline", "\n", line))
                after_newline = True
            line += 1
        elif kind == "eof":
            break
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", line)
        else:
            append((kind, m[kind], line))
            after_newline = False
    append(("eof", "", line))
    return tokens


#: Every canonically spelled word type.  Parses share them: types
#: compare structurally, and nothing mutates one.
_WORD_TYPES: Dict[str, Type] = {
    "void": VOID,
    "f32": FloatType(32),
    "f64": FloatType(64),
    **{f"i{bits}": IntType(bits) for bits in range(1, 65)},
}
_INT_TYPE_RE = re.compile(r"i(\d+)")
_FLOAT_TYPE_RE = re.compile(r"f(\d+)")
#: A word an operand may start with as a redundant type annotation.
_ANNOTATION_RE = re.compile(r"(i|f)\d+")


def _word_type(text: str, line: int) -> Type:
    """A word type spelled otherwise than in ``_WORD_TYPES`` (``i032``),
    or an error."""
    m = _INT_TYPE_RE.fullmatch(text)
    if m:
        return IntType(int(m.group(1)))
    m = _FLOAT_TYPE_RE.fullmatch(text)
    if m:
        return FloatType(int(m.group(1)))
    raise ParseError(f"unknown type {text!r}", line)


class _Placeholder(Value):
    """A forward reference to a not-yet-defined local value."""

    __slots__ = ()


class Parser:
    """Recursive-descent parser over the token stream.

    ``self.pos`` indexes the current token.  Nothing advances past the
    final ``eof`` token: every advance follows a check that the current
    token has another kind.
    """

    def __init__(self, text: str, name: str = "module"):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.module = Module(name)
        #: The current function's blocks by name (see ``_prescan_labels``).
        self.blocks: Dict[str, BasicBlock] = {}

    # -- token plumbing --------------------------------------------------

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def skip_newlines(self) -> None:
        tokens = self.tokens
        while tokens[self.pos][0] == "newline":
            self.pos += 1

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, got {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None
               ) -> Optional[_Token]:
        tok = self.tokens[self.pos]
        if tok[0] == kind and (text is None or tok[1] == text):
            self.pos += 1
            return tok
        return None

    def at(self, kind: str, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[0] == kind and tok[1] == text

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.tokens[self.pos][2])

    # -- types -------------------------------------------------------------

    def parse_type(self) -> Type:
        tokens = self.tokens
        kind, text, line = tokens[self.pos]
        if kind == "word":
            self.pos += 1
            base = _WORD_TYPES.get(text)
            if base is None:
                base = _word_type(text, line)
        elif kind == "lname":
            self.pos += 1
            name = text[1:]
            if name not in self.module.structs:
                # Forward-declared struct (for recursive types).
                self.module.add_struct(name)
            base = self.module.structs[name]
        elif kind == "punct" and text == "[":
            base = self._parse_array_type()
        else:
            raise self.error(f"expected a type, got {text!r}")
        while tokens[self.pos][1] == "*":  # only a punct token reads "*"
            self.pos += 1
            base = PointerType(base)
        return base

    def _parse_array_type(self) -> Type:
        self.expect("punct", "[")
        count = int(self.expect("int")[1])
        _, x, line = self.expect("word")
        if x != "x":
            raise ParseError("expected 'x' in array type", line)
        elem = self.parse_type()
        self.expect("punct", "]")
        return ArrayType(elem, count)

    # -- module-level ------------------------------------------------------

    def parse_module(self) -> Module:
        self.skip_newlines()
        while self.tokens[self.pos][0] != "eof":
            kind, text, _ = self.tokens[self.pos]
            if kind != "word":
                raise self.error(f"unexpected {text!r} at top level")
            if text == "struct":
                self._parse_struct()
            elif text in ("global", "const"):
                self._parse_global()
            elif text == "declare":
                self._parse_declare()
            elif text == "func":
                self._parse_function()
            else:
                raise self.error(f"unexpected {text!r} at top level")
            self.skip_newlines()
        return self.module

    def _parse_struct(self) -> None:
        self.expect("word", "struct")
        name = self.expect("lname")[1][1:]
        self.expect("punct", "{")
        fields = [self.parse_type()]
        while self.accept("punct", ","):
            fields.append(self.parse_type())
        self.expect("punct", "}")
        if name in self.module.structs:
            self.module.structs[name].set_body(fields)
        else:
            self.module.add_struct(name, fields)

    def _parse_global(self) -> None:
        is_constant = bool(self.accept("word", "const"))
        self.expect("word", "global")
        name = self.expect("gname")[1][1:]
        self.expect("punct", ":")
        ty = self.parse_type()
        self.expect("punct", "=")
        init = self._parse_initializer()
        self.module.add_global(name, ty, init, is_constant)

    def _parse_initializer(self):
        kind, text, _ = self.tokens[self.pos]
        if kind == "word" and text == "zeroinit":
            self.advance()
            return None
        if kind == "int":
            return int(self.advance()[1])
        if kind == "float":
            return float(self.advance()[1])
        if kind == "string":
            raw = self.advance()[1][1:-1]
            return raw.replace('\\"', '"').replace("\\\\", "\\")
        if kind == "punct" and text == "[":
            self.advance()
            self.skip_newlines()
            values = []
            if not self.at("punct", "]"):
                values.append(self._parse_number())
                self.skip_newlines()
                while self.accept("punct", ","):
                    self.skip_newlines()
                    values.append(self._parse_number())
                    self.skip_newlines()
            self.expect("punct", "]")
            return values
        raise self.error(f"bad initializer {text!r}")

    def _parse_number(self):
        kind, text, _ = self.tokens[self.pos]
        if kind == "int":
            return int(self.advance()[1])
        if kind == "float":
            return float(self.advance()[1])
        raise self.error(f"expected number, got {text!r}")

    def _parse_signature(self) -> Tuple[str, FunctionType, List[str]]:
        name = self.expect("gname")[1][1:]
        self.expect("punct", "(")
        param_types: List[Type] = []
        param_names: List[str] = []
        if not self.at("punct", ")"):
            while True:
                param_types.append(self.parse_type())
                nm = self.accept("lname")
                param_names.append(nm[1][1:] if nm
                                   else f"arg{len(param_names)}")
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        self.expect("arrow")
        ret = self.parse_type()
        return name, FunctionType(ret, param_types), param_names

    def _parse_declare(self) -> None:
        self.expect("word", "declare")
        name, fty, _ = self._parse_signature()
        fn = self.module.add_function(name, fty)
        if self.accept("punct", "["):
            while self.tokens[self.pos][0] == "word":
                fn.attributes.add(self.advance()[1])
            self.expect("punct", "]")

    # -- function bodies -----------------------------------------------------

    def _parse_function(self) -> None:
        self.expect("word", "func")
        name, fty, arg_names = self._parse_signature()
        fn = self.module.add_function(name, fty, arg_names)
        self.expect("punct", "{")
        self.skip_newlines()

        # Pre-scan for block labels so branches can reference them forward.
        self._prescan_labels(fn)

        locals_: Dict[str, Value] = {f"%{a.name}": a for a in fn.args}
        placeholders: Dict[str, _Placeholder] = {}
        block: Optional[BasicBlock] = None
        tokens = self.tokens

        while not self.at("punct", "}"):
            kind, text, _ = tokens[self.pos]
            if kind in ("word", "lname") and tokens[self.pos + 1][1] == ":" \
                    and tokens[self.pos + 1][0] == "punct":
                self.pos += 2
                block = self._block(fn, text[1:] if kind == "lname"
                                    else text)
            else:
                if block is None:
                    raise self.error("instruction before first block label")
                inst = self._parse_instruction(fn, block, locals_,
                                               placeholders)
                if inst.name:
                    locals_[f"%{inst.name}"] = inst
            self.skip_newlines()
        self.pos += 1

        self._resolve_placeholders(fn, locals_, placeholders)

    def _prescan_labels(self, fn: Function) -> None:
        """Create every basic block named by a label of the function
        body that starts at the current token, and index them by name
        in ``self.blocks`` (the first block of a name wins, as in
        ``Function.get_block``)."""
        tokens = self.tokens
        blocks = self.blocks = {}
        depth = 0
        for i in range(self.pos, len(tokens)):
            kind, text, _ = tokens[i]
            if kind == "punct":
                if text == "{":
                    depth += 1
                elif text == "}":
                    if depth == 0:
                        break
                    depth -= 1
            elif kind == "word" or kind == "lname":
                colon = tokens[i + 1]
                if colon[1] == ":" and colon[0] == "punct" \
                        and tokens[i - 1][0] == "newline":
                    bb = fn.add_block(text[1:] if kind == "lname" else text)
                    blocks.setdefault(bb.name, bb)

    def _block(self, fn: Function, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        return block if block is not None else fn.get_block(name)

    def _resolve_placeholders(self, fn: Function, locals_: Dict[str, Value],
                              placeholders: Dict[str, _Placeholder]) -> None:
        """Replace every forward reference, in one pass over the
        function's instructions."""
        if not placeholders:
            return
        targets: Dict[_Placeholder, Value] = {}
        for key, ph in placeholders.items():
            target = locals_.get(key)
            if target is None:
                raise ParseError(f"undefined value {key} in @{fn.name}", 0)
            targets[ph] = target
        for inst in fn.instructions():
            operands = inst.operands
            for i, op in enumerate(operands):
                if type(op) is _Placeholder:
                    operands[i] = targets[op]
            if isinstance(inst, PhiInst):
                inst.incoming = [
                    (targets[v] if type(v) is _Placeholder else v, bb)
                    for v, bb in inst.incoming
                ]

    # -- operands --------------------------------------------------------------

    def _parse_operand(self, ty: Type, locals_: Dict[str, Value],
                       placeholders: Dict[str, _Placeholder]) -> Value:
        """Parse an operand of a known type.

        A redundant leading type annotation (``i64 %x`` where the type
        is already implied) is tolerated and skipped.
        """
        kind, text, _ = self.tokens[self.pos]
        if kind == "word" and _ANNOTATION_RE.fullmatch(text):
            ty = self.parse_type()
            kind, text, _ = self.tokens[self.pos]
        if kind == "lname":
            self.pos += 1
            value = locals_.get(text)
            if value is None:
                value = placeholders.get(text)
                if value is None:
                    value = placeholders[text] = _Placeholder(ty, text[1:])
            return value
        if kind == "int":
            self.pos += 1
            if isinstance(ty, FloatType):
                return Constant(ty, float(text))
            return Constant(ty, int(text))
        if kind == "float":
            self.pos += 1
            return Constant(ty, float(text))
        if kind == "word" and text == "null":
            self.pos += 1
            if not isinstance(ty, PointerType):
                raise self.error("null requires a pointer type")
            return NullPointer(ty)
        if kind == "word" and text == "undef":
            self.pos += 1
            return UndefValue(ty, "")
        if kind == "gname":
            self.pos += 1
            name = text[1:]
            if name in self.module.globals:
                return self.module.globals[name]
            if name in self.module.functions:
                return self.module.functions[name]
            raise self.error(f"unknown global {text}")
        raise self.error(f"expected operand, got {text!r}")

    def _parse_typed_operand(self, locals_: Dict[str, Value],
                             placeholders: Dict[str, _Placeholder]) -> Value:
        ty = self.parse_type()
        return self._parse_operand(ty, locals_, placeholders)

    def _parse_block_ref(self, fn: Function) -> BasicBlock:
        return self._block(fn, self.expect("lname")[1][1:])

    # -- instructions -------------------------------------------------------------

    def _parse_instruction(self, fn: Function, block: BasicBlock,
                           locals_: Dict[str, Value],
                           placeholders: Dict[str, _Placeholder]) -> Instruction:
        name = ""
        if self.tokens[self.pos][0] == "lname":
            name = self.advance()[1][1:]
            self.expect("punct", "=")
        _, op, op_line = self.expect("word")

        inst: Instruction
        if op == "alloca":
            inst = AllocaInst(self.parse_type())
        elif op == "load":
            inst = LoadInst(self._parse_typed_operand(locals_, placeholders))
        elif op == "store":
            value = self._parse_typed_operand(locals_, placeholders)
            self.expect("punct", ",")
            pointer = self._parse_typed_operand(locals_, placeholders)
            inst = StoreInst(value, pointer)
        elif op == "gep":
            pointer = self._parse_typed_operand(locals_, placeholders)
            indices = []
            while self.accept("punct", ","):
                indices.append(self._parse_typed_operand(locals_, placeholders))
            inst = GEPInst(pointer, indices)
        elif op in BINARY_OPS:
            lhs = self._parse_typed_operand(locals_, placeholders)
            self.expect("punct", ",")
            rhs = self._parse_operand(lhs.type, locals_, placeholders)
            inst = BinaryInst(op, lhs, rhs)
        elif op == "icmp":
            pred = self.expect("word")[1]
            lhs = self._parse_typed_operand(locals_, placeholders)
            self.expect("punct", ",")
            rhs = self._parse_operand(lhs.type, locals_, placeholders)
            inst = ICmpInst(pred, lhs, rhs)
        elif op == "fcmp":
            pred = self.expect("word")[1]
            lhs = self._parse_typed_operand(locals_, placeholders)
            self.expect("punct", ",")
            rhs = self._parse_operand(lhs.type, locals_, placeholders)
            inst = FCmpInst(pred, lhs, rhs)
        elif op in CAST_OPS:
            value = self._parse_typed_operand(locals_, placeholders)
            self.expect("word", "to")
            inst = CastInst(op, value, self.parse_type())
        elif op == "select":
            cond = self._parse_typed_operand(locals_, placeholders)
            self.expect("punct", ",")
            tv = self._parse_typed_operand(locals_, placeholders)
            self.expect("punct", ",")
            fv = self._parse_operand(tv.type, locals_, placeholders)
            inst = SelectInst(cond, tv, fv)
        elif op == "br":
            inst = BranchInst(self._parse_block_ref(fn))
        elif op == "condbr":
            cond = self._parse_typed_operand(locals_, placeholders)
            self.expect("punct", ",")
            t = self._parse_block_ref(fn)
            self.expect("punct", ",")
            f = self._parse_block_ref(fn)
            inst = CondBranchInst(cond, t, f)
        elif op == "switch":
            value = self._parse_typed_operand(locals_, placeholders)
            self.expect("punct", ",")
            default = self._parse_block_ref(fn)
            cases = []
            self.expect("punct", "[")
            while self.tokens[self.pos][0] == "int":
                v = int(self.advance()[1])
                self.expect("punct", ":")
                cases.append((v, self._parse_block_ref(fn)))
                self.accept("punct", ",")
            self.expect("punct", "]")
            inst = SwitchInst(value, default, cases)
        elif op == "ret":
            kind, text, _ = self.tokens[self.pos]
            if kind in ("newline", "eof") or (kind == "punct" and text == "}"):
                inst = ReturnInst()
            else:
                inst = ReturnInst(self._parse_typed_operand(locals_, placeholders))
        elif op == "unreachable":
            inst = UnreachableInst()
        elif op == "phi":
            ty = self.parse_type()
            inst = PhiInst(ty)
            while self.accept("punct", "["):
                value = self._parse_operand(ty, locals_, placeholders)
                self.expect("punct", ",")
                bb = self._parse_block_ref(fn)
                self.expect("punct", "]")
                inst.add_incoming(value, bb)
                self.accept("punct", ",")
        elif op == "call":
            _, callee_text, callee_line = self.expect("gname")
            callee_name = callee_text[1:]
            if callee_name not in self.module.functions:
                raise ParseError(f"unknown function @{callee_name}",
                                 callee_line)
            callee = self.module.functions[callee_name]
            self.expect("punct", "(")
            args = []
            if not self.at("punct", ")"):
                args.append(self._parse_typed_operand(locals_, placeholders))
                while self.accept("punct", ","):
                    args.append(self._parse_typed_operand(locals_, placeholders))
            self.expect("punct", ")")
            inst = CallInst(callee, args)
        else:
            raise ParseError(f"unknown instruction {op!r}", op_line)

        if name:
            inst.name = name
            fn._name_counts.setdefault(name, 1)
        block.append(inst)
        return inst


def parse_module(text: str, name: str = "module") -> Module:
    """Parse textual IR into a :class:`Module`."""
    return Parser(text, name).parse_module()
