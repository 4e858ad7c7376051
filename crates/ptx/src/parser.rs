//! Recursive-descent parser for the PTX dialect.
//!
//! Reads the [`Lexer`] through a cursor, one `Copy` token with no
//! look-ahead (a label is a word the grammar finds `:` after); the tokens
//! borrow the source, and every name that outlives the parse is interned in
//! the module or becomes a dense per-function id on the way into the AST.
//! An opcode word is split at its dots once per instruction.

use crate::ast::*;
use crate::lexer::{Lexer, SpannedTok, Tok};
use crate::types::PtxType;
use crate::{PtxError, Result};
use common::hash::FastHash;
use sass::{CmpOp, SpecialReg};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;

/// Most registers the `.reg` declarations of one function may add up to.
/// A range is recorded, never expanded, so the cap only keeps a typo such
/// as `%r<4000000000>` a diagnostic instead of a promise the register
/// allocator could not keep.
pub const MAX_DECLARED_REGS: u64 = 1 << 20;

/// Parses a full module.
///
/// # Errors
///
/// Returns [`PtxError::Parse`] on malformed source.
pub fn parse(src: &str) -> Result<Module> {
    let mut lexer = Lexer::new(src);
    let cur = lexer.next_tok();
    let mut p = Parser {
        lexer,
        cur,
        names: Interner::default(),
        decls: Decls::default(),
        function: 0,
        reg_ids: Vec::new(),
        label_ids: Vec::new(),
        regs: Vec::new(),
        labels: Vec::new(),
        defined: Vec::new(),
        call_args: Vec::new(),
        body: Vec::new(),
    };
    let parsed = p.module();
    if parsed.is_err() {
        // The grammar saw only as far as its cursor: a lexical error
        // further on still comes first, as when the source was tokenized
        // whole before parsing.
        while p.lexer.next_tok().tok != Tok::End {}
    }
    p.lexer.take_error().map_or(parsed, Err)
}

/// A token as a diagnostic names it: `Some(Word("x"))`, or `None` at the
/// end of the source.
struct Found<'a>(Tok<'a>);

impl fmt::Debug for Found<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Tok::End => f.write_str("None"),
            t => write!(f, "Some({t:?})"),
        }
    }
}

/// One `.reg` declaration (or a device function's parameter or return
/// slot): `width` registers `base0`, `base1`, ... when `ranged`, else the
/// one register `base`. Kept until the end of its function, where it types
/// the registers the body refers to.
struct RegDecl {
    /// `2 * base + ranged`, `base` being the declared spelling's id.
    key: u32,
    width: u32,
    ty: PtxType,
}

/// The declarations of the function being parsed, and the spellings the
/// module's declarations have named so far, each by a dense id.
#[derive(Default)]
struct Decls<'a> {
    list: Vec<RegDecl>,
    /// `list`'s indices grouped by key, latest first (see `type_regs`).
    order: Vec<usize>,
    ids: HashMap<&'a str, u32, FastHash>,
}

impl<'a> Decls<'a> {
    fn push(&mut self, base: &'a str, ranged: bool, width: u32, ty: PtxType) {
        let next = self.ids.len() as u32;
        let key = 2 * *self.ids.entry(base).or_insert(next) + u32::from(ranged);
        self.list.push(RegDecl { key, width, ty });
    }

    /// Types `regs` from the function's declarations: the last one in
    /// source order that spells a register wins, wherever it stands among
    /// the uses.
    fn type_regs(&mut self, names: &Interner, regs: &mut [RegInfo]) {
        // Declarations grouped by what they can spell, latest first, keeping
        // of each group only those wider than every later one (the rest are
        // shadowed): widths then grow along a group, and the latest
        // declaration holding index `i` is the group's first wider than `i`.
        let Decls { list, order, ids } = self;
        let key = |t: usize| list[t].key;
        order.clear();
        order.extend(0..list.len());
        order.sort_unstable_by_key(|&t| (key(t), Reverse(t)));
        order.dedup_by(|t, kept| key(*t) == key(*kept) && list[*t].width <= list[*kept].width);
        let latest = |group: u32, i: u32| {
            let at = order
                .partition_point(|&t| key(t) < group || (key(t) == group && list[t].width <= i));
            order.get(at).copied().filter(|&t| key(t) == group)
        };
        for r in regs {
            let name = names.resolve(r.name);
            let mut best = ids.get(name).and_then(|&id| latest(2 * id, 0));
            // `%r<8>` spells `%r0`..`%r7` in canonical decimal; an index
            // below `MAX_DECLARED_REGS` has at most seven digits.
            let digits = name.bytes().rev().take_while(u8::is_ascii_digit).count();
            for k in 1..=digits.min(7) {
                let (base, index) = name.split_at(name.len() - k);
                if k == 1 || !index.starts_with('0') {
                    if let Some(&id) = ids.get(base) {
                        let index = index.parse().expect("at most seven digits");
                        best = best.max(latest(2 * id + 1, index));
                    }
                }
            }
            r.ty = best.map(|t| list[t].ty);
        }
    }
}

/// An opcode word split at its dots once: `ld.global.f32` has the parts
/// `ld`, `global` and `f32`, and ends in `f32`.
#[derive(Clone, Copy)]
struct Mnemonic<'a> {
    word: &'a str,
    /// The first three dot-separated parts.
    parts: [Option<&'a str>; 3],
    /// The last part (the whole word when it has no dot).
    tail: &'a str,
}

impl<'a> Mnemonic<'a> {
    fn new(word: &'a str) -> Mnemonic<'a> {
        let mut parts = [None; 3];
        let (mut k, mut from) = (0, 0);
        for (at, b) in word.bytes().enumerate() {
            if b == b'.' {
                if let Some(part) = parts.get_mut(k) {
                    *part = Some(&word[from..at]);
                }
                k += 1;
                from = at + 1;
            }
        }
        if let Some(part) = parts.get_mut(k) {
            *part = Some(&word[from..]);
        }
        Mnemonic { word, parts, tail: &word[from..] }
    }
}

/// The entry for `sym` in a per-spelling table of `(function, id)` pairs.
fn slot(ids: &mut Vec<(u32, u32)>, sym: Sym) -> &mut (u32, u32) {
    if ids.len() <= sym.index() {
        ids.resize(sym.index() + 1, (0, 0));
    }
    &mut ids[sym.index()]
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The cursor: the token the grammar is at.
    cur: SpannedTok<'a>,
    names: Interner,
    decls: Decls<'a>,
    /// 1-based number of the function being parsed.
    function: u32,
    /// Per spelling, the function that last used it as a register (label)
    /// and the id it has there.
    reg_ids: Vec<(u32, u32)>,
    label_ids: Vec<(u32, u32)>,
    /// Tables of the function being parsed.
    regs: Vec<RegInfo>,
    labels: Vec<Sym>,
    /// Per label, whether its definition has been seen.
    defined: Vec<bool>,
    call_args: Vec<VReg>,
    body: Vec<Statement>,
}

impl<'a> Parser<'a> {
    /// The current token's line; at the end, the last token's.
    fn line(&self) -> usize {
        self.cur.line
    }

    fn err(&self, reason: String) -> PtxError {
        PtxError::Parse { line: self.line(), reason }
    }

    fn peek(&self) -> Tok<'a> {
        self.cur.tok
    }

    /// Moves the cursor on; returns the token it was on.
    #[inline(never)]
    fn bump(&mut self) -> Tok<'a> {
        std::mem::replace(&mut self.cur, self.lexer.next_tok()).tok
    }

    fn expect_word(&mut self) -> Result<&'a str> {
        match self.bump() {
            Tok::Word(w) => Ok(w),
            other => Err(self.err(format!("expected identifier, found {:?}", Found(other)))),
        }
    }

    fn expect_str(&mut self, what: &str) -> Result<Sym> {
        match self.bump() {
            Tok::Str(s) => Ok(self.names.intern(s)),
            other => Err(self.err(format!("expected {what} string, found {:?}", Found(other)))),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<()> {
        match self.bump() {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {:?}", Found(other)))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        let found = self.peek() == Tok::Punct(c);
        if found {
            self.bump();
        }
        found
    }

    fn expect_reg_name(&mut self) -> Result<&'a str> {
        let w = self.expect_word()?;
        if w.starts_with('%') {
            Ok(w)
        } else {
            Err(self.err(format!("expected register, found `{w}`")))
        }
    }

    fn expect_reg(&mut self) -> Result<VReg> {
        self.expect_reg_name().map(|w| self.reg(w))
    }

    /// The id of register `name` in the current function.
    fn reg(&mut self, name: &str) -> VReg {
        let sym = self.names.intern(name);
        let id = slot(&mut self.reg_ids, sym);
        if id.0 != self.function {
            *id = (self.function, self.regs.len() as u32);
            self.regs.push(RegInfo { name: sym, ty: None });
        }
        VReg(id.1)
    }

    /// The id of label `name` in the current function.
    fn label(&mut self, name: &str) -> LabelId {
        let sym = self.names.intern(name);
        let id = slot(&mut self.label_ids, sym);
        if id.0 != self.function {
            *id = (self.function, self.labels.len() as u32);
            self.labels.push(sym);
            self.defined.push(false);
        }
        LabelId(id.1)
    }

    fn module(&mut self) -> Result<Module> {
        let mut functions = Vec::new();
        while self.peek() != Tok::End {
            let w = match self.peek() {
                Tok::Word(w) => w,
                _ => "",
            };
            match w {
                ".version" | ".target" | ".address_size" => {
                    self.bump();
                    self.bump(); // the directive's value
                }
                ".visible" => {
                    self.bump();
                }
                ".entry" | ".func" => functions.push(self.function()?),
                _ => {
                    return Err(self.err(format!("expected a function or directive, found `{w}`")));
                }
            }
        }
        Ok(Module { functions, names: std::mem::take(&mut self.names) })
    }

    fn function(&mut self) -> Result<Function> {
        let kind = match self.expect_word()? {
            ".entry" => FunctionKind::Entry,
            ".func" => FunctionKind::Device,
            _ => unreachable!(),
        };
        self.function += 1;
        self.regs.clear();
        self.labels.clear();
        self.defined.clear();
        self.call_args.clear();
        self.body.clear();
        self.decls.list.clear();
        let mut declared = 0u64;

        // Optional return declaration: `(.reg .u32 %out)`.
        let mut ret_decl = None;
        if kind == FunctionKind::Device && self.eat_punct('(') {
            let w = self.expect_word()?;
            if w != ".reg" {
                return Err(self.err(format!("expected `.reg` in return declaration, found `{w}`")));
            }
            let ty = self.type_word()?;
            ret_decl = Some((self.expect_reg_name()?, ty));
            self.expect_punct(')')?;
        }

        let name = self.expect_word()?;
        let name = self.names.intern(name);
        let mut params = Vec::new();
        if self.eat_punct('(') && !self.eat_punct(')') {
            loop {
                let lead = self.expect_word()?;
                let expected = match kind {
                    FunctionKind::Entry => ".param",
                    FunctionKind::Device => ".reg",
                };
                if lead != expected {
                    return Err(
                        self.err(format!("expected `{expected}` parameter, found `{lead}`"))
                    );
                }
                let ty = self.type_word()?;
                let pname = self.expect_word()?;
                params.push((self.names.intern(pname), ty));
                // Device-function parameters and the return slot are
                // virtual registers, declared by the signature.
                if kind == FunctionKind::Device {
                    self.decls.push(pname, false, 1, ty);
                    self.reg(pname);
                }
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        let ret_reg = ret_decl.map(|(base, ty)| {
            self.decls.push(base, false, 1, ty);
            self.reg(base)
        });

        self.expect_punct('{')?;
        let mut shared = Vec::new();
        loop {
            if self.eat_punct('}') {
                break;
            }
            let w = match self.peek() {
                Tok::Word(w) => w,
                Tok::Punct('@') => "@",
                other => {
                    return Err(self.err(format!("expected statement, found {:?}", Found(other))))
                }
            };
            match w {
                ".reg" => {
                    self.bump();
                    let ty = self.type_word()?;
                    // `.reg .u32 %r<10>;` or `.reg .u32 %x;`
                    let base = self.expect_reg_name()?;
                    let ranged = self.eat_punct('<');
                    let mut width = 1;
                    if ranged {
                        width = self.int_in::<u32>("register count")?.max(1);
                        self.expect_punct('>')?;
                    }
                    declared += u64::from(width);
                    if declared > MAX_DECLARED_REGS {
                        return Err(self.err(format!(
                            "more than {MAX_DECLARED_REGS} registers declared in one function"
                        )));
                    }
                    self.decls.push(base, ranged, width, ty);
                    self.expect_punct(';')?;
                }
                ".shared" => {
                    self.bump();
                    let mut align = 4u32;
                    let mut w2 = self.expect_word()?;
                    if w2 == ".align" {
                        align = self.int_in("alignment")?;
                        w2 = self.expect_word()?;
                    }
                    if w2 != ".b8" {
                        return Err(
                            self.err(format!("shared declarations use `.b8`, found `{w2}`"))
                        );
                    }
                    let sname = self.expect_word()?;
                    self.expect_punct('[')?;
                    let bytes = self.int_in("shared size")?;
                    self.expect_punct(']')?;
                    self.expect_punct(';')?;
                    shared.push(SharedDecl { name: self.names.intern(sname), bytes, align });
                }
                ".loc" => {
                    self.bump();
                    let file = self.expect_str("file")?;
                    let line = self.int_in("line number")?;
                    self.eat_punct(';');
                    self.body.push(Statement::Loc { file, line });
                }
                _ => {
                    // Label (`IDENT:`) or instruction, read as far as the
                    // word after the guard.
                    let line = self.line();
                    let guard = self.guard()?;
                    let w = self.expect_word()?;
                    if guard.is_none()
                        && !w.starts_with('%')
                        && !w.starts_with('.')
                        && self.eat_punct(':')
                    {
                        let id = self.label(w);
                        if std::mem::replace(&mut self.defined[id.index()], true) {
                            let reason = format!("label `{w}` is defined twice");
                            return Err(PtxError::Parse { line, reason });
                        }
                        self.body.push(Statement::Label(id));
                        continue;
                    }
                    let instr = self.instruction(guard, Mnemonic::new(w))?;
                    self.body.push(Statement::Instr(instr));
                }
            }
        }

        self.decls.type_regs(&self.names, &mut self.regs);
        Ok(Function {
            name,
            kind,
            params,
            ret: ret_decl.map(|(_, ty)| ty),
            ret_reg,
            regs: self.regs.clone(),
            labels: self.labels.clone(),
            shared,
            call_args: self.call_args.clone(),
            body: self.body.clone(),
        })
    }

    fn type_word(&mut self) -> Result<PtxType> {
        let w = self.expect_word()?;
        let s = w.strip_prefix('.').unwrap_or(w);
        PtxType::from_suffix(s).ok_or_else(|| self.err(format!("unknown type `{w}`")))
    }

    fn int_literal(&mut self) -> Result<i64> {
        let neg = self.eat_punct('-');
        match self.bump() {
            Tok::Num(n) => parse_int(n)
                .and_then(|v| if neg { v.checked_neg() } else { Some(v) })
                .ok_or_else(|| self.err(format!("bad integer `{n}`"))),
            other => Err(self.err(format!("expected integer, found {:?}", Found(other)))),
        }
    }

    /// An integer literal that must fit `T`.
    fn int_in<T: TryFrom<i64>>(&mut self, what: &str) -> Result<T> {
        let v = self.int_literal()?;
        T::try_from(v).map_err(|_| self.err(format!("{what} `{v}` is out of range")))
    }

    /// Parses a source operand: register or typed immediate.
    fn src(&mut self, ty: PtxType) -> Result<Src> {
        match self.peek() {
            Tok::Word(w) if w.starts_with('%') => {
                self.bump();
                Ok(Src::Reg(self.reg(w)))
            }
            _ => {
                let neg = self.eat_punct('-');
                match self.bump() {
                    Tok::Num(n) => {
                        let bits = parse_typed_literal(n, neg, ty)
                            .ok_or_else(|| self.err(format!("bad literal `{n}` for {ty}")))?;
                        Ok(Src::Imm(bits))
                    }
                    other => Err(self.err(format!("expected operand, found {:?}", Found(other)))),
                }
            }
        }
    }

    fn addr(&mut self) -> Result<Address> {
        self.expect_punct('[')?;
        let w = self.expect_word()?;
        let base = if w.starts_with('%') {
            AddrBase::Reg(self.reg(w))
        } else {
            AddrBase::Shared(self.names.intern(w))
        };
        let mut offset = 0i32;
        let plus = self.eat_punct('+');
        if plus || self.eat_punct('-') {
            let v = self.int_literal()?;
            let v = if plus { Some(v) } else { v.checked_neg() };
            offset = v
                .and_then(|v| i32::try_from(v).ok())
                .ok_or_else(|| self.err("address offset is out of range".into()))?;
        }
        self.expect_punct(']')?;
        Ok(Address { base, offset })
    }

    fn comma(&mut self) -> Result<()> {
        self.expect_punct(',')
    }

    /// `%d, %s` — the operands of the two-register operations.
    fn reg_pair(&mut self) -> Result<(VReg, VReg)> {
        let dst = self.expect_reg()?;
        self.comma()?;
        Ok((dst, self.expect_reg()?))
    }

    /// `%d, %a, b` — the operands of the binary operations.
    fn reg_reg_src(&mut self, ty: PtxType) -> Result<(VReg, VReg, Src)> {
        let (dst, a) = self.reg_pair()?;
        self.comma()?;
        Ok((dst, a, self.src(ty)?))
    }

    /// An instruction's guard (`@%p`, `@!%p`), if it has one.
    fn guard(&mut self) -> Result<Option<PtxGuard>> {
        if !self.eat_punct('@') {
            return Ok(None);
        }
        let negated = self.eat_punct('!');
        Ok(Some(PtxGuard { reg: self.expect_reg()?, negated }))
    }

    /// The rest of an instruction whose guard and opcode word are read.
    fn instruction(&mut self, guard: Option<PtxGuard>, mn: Mnemonic<'a>) -> Result<PtxInstr> {
        let (head, part) = (mn.parts[0].unwrap_or_default(), |n: usize| mn.parts[n]);

        let op = match head {
            "ld" => self.ld(mn)?,
            "st" => {
                let ty = self.tail_type(mn)?;
                let space = self.space(part(1).unwrap_or_default())?;
                let addr = self.addr()?;
                self.comma()?;
                let src = self.expect_reg()?;
                PtxOp::St { space, ty, addr, src }
            }
            "mov" => self.mov(mn)?,
            "add" | "sub" | "min" | "max" | "and" | "or" | "xor" | "shl" | "shr" | "mul" => {
                let ty = self.tail_type(mn)?;
                let kind = match head {
                    "add" => BinKind::Add,
                    "sub" => BinKind::Sub,
                    "min" => BinKind::Min,
                    "max" => BinKind::Max,
                    "and" => BinKind::And,
                    "or" => BinKind::Or,
                    "xor" => BinKind::Xor,
                    "shl" => BinKind::Shl,
                    "shr" => BinKind::Shr,
                    _ if part(1) == Some("wide") => BinKind::MulWide,
                    _ => BinKind::MulLo, // `.lo` explicit or float `mul.f32`
                };
                let (dst, a, b) = self.reg_reg_src(ty)?;
                PtxOp::Bin { kind, ty, dst, a, b }
            }
            "mad" | "fma" => {
                let ty = self.tail_type(mn)?;
                let wide = part(1) == Some("wide");
                let (dst, a, b) = self.reg_reg_src(ty)?;
                self.comma()?;
                let c = self.expect_reg()?;
                PtxOp::Mad { wide, ty, dst, a, b, c }
            }
            "setp" => {
                let cmp = part(1)
                    .and_then(|s| CmpOp::ALL.into_iter().find(|c| spells(c.suffix(), s)))
                    .ok_or_else(|| self.err("setp requires a comparison suffix".into()))?;
                let ty = self.tail_type(mn)?;
                let (dst, a, b) = self.reg_reg_src(ty)?;
                PtxOp::Setp { cmp, ty, dst, a, b }
            }
            "selp" => {
                let ty = self.tail_type(mn)?;
                let (dst, a, b) = self.reg_reg_src(ty)?;
                self.comma()?;
                let p = self.expect_reg()?;
                PtxOp::Selp { ty, dst, a, b, p }
            }
            "cvt" => {
                // `cvt.dty.sty` with an optional rounding part we ignore
                // (`cvt.rn.f32.s32`).
                let mut tys = mn.word.split('.').skip(1).filter_map(PtxType::from_suffix);
                let (Some(dty), Some(sty), None) = (tys.next(), tys.next(), tys.next()) else {
                    let opw = mn.word;
                    return Err(self.err(format!("cvt requires two type suffixes in `{opw}`")));
                };
                let (dst, src) = self.reg_pair()?;
                PtxOp::Cvt { dty, sty, dst, src }
            }
            "bra" => {
                let target = self.expect_word()?;
                PtxOp::Bra { target: self.label(target) }
            }
            "call" => self.call()?,
            "ret" if part(1) == Some("val") => PtxOp::RetVal { src: self.expect_reg()? },
            "ret" => PtxOp::Ret,
            "exit" => PtxOp::Exit,
            "bar" => {
                // `bar.sync 0;`
                let _ = self.int_literal();
                PtxOp::BarSync
            }
            "membar" => PtxOp::Membar,
            "atom" => self.atom(mn)?,
            "red" => {
                if part(1) != Some("global") {
                    return Err(self.err("reductions are supported on global memory only".into()));
                }
                let op = part(2)
                    .and_then(AtomOp::from_suffix)
                    .ok_or_else(|| self.err("red requires an operation suffix".into()))?;
                let ty = self.tail_type(mn)?;
                let addr = self.addr()?;
                self.comma()?;
                let src = self.expect_reg()?;
                PtxOp::Red { op, ty, addr, src }
            }
            "vote" => {
                let mode = match part(1) {
                    Some("all") => VoteMode::All,
                    Some("any") => VoteMode::Any,
                    Some("ballot") => VoteMode::Ballot,
                    other => return Err(self.err(format!("unknown vote mode {other:?}"))),
                };
                let dst = self.expect_reg()?;
                self.comma()?;
                let negated = self.eat_punct('!');
                let src = self.expect_reg()?;
                PtxOp::Vote { mode, dst, src, negated }
            }
            "shfl" => {
                // Accept both `shfl.mode.b32` and `shfl.sync.mode.b32`.
                let mode = match part(if part(1) == Some("sync") { 2 } else { 1 }) {
                    Some("idx") => ShflMode::Idx,
                    Some("up") => ShflMode::Up,
                    Some("down") => ShflMode::Down,
                    Some("bfly") => ShflMode::Bfly,
                    other => return Err(self.err(format!("unknown shfl mode {other:?}"))),
                };
                let (dst, a, b) = self.reg_reg_src(PtxType::U32)?;
                PtxOp::Shfl { mode, dst, a, b }
            }
            "popc" => {
                let (dst, src) = self.reg_pair()?;
                PtxOp::Popc { dst, src }
            }
            "rcp" | "sqrt" | "rsq" | "sin" | "cos" | "ex2" | "lg2" => {
                let func = match head {
                    "rcp" => MufuFunc::Rcp,
                    "sqrt" => MufuFunc::Sqrt,
                    "rsq" => MufuFunc::Rsq,
                    "sin" => MufuFunc::Sin,
                    "cos" => MufuFunc::Cos,
                    "ex2" => MufuFunc::Ex2,
                    _ => MufuFunc::Lg2,
                };
                let (dst, src) = self.reg_pair()?;
                PtxOp::Mufu { func, dst, src }
            }
            "proxy" => {
                let (dst, src) = self.reg_pair()?;
                self.comma()?;
                let name = self.expect_str("proxy name")?;
                PtxOp::Proxy { dst, src, name }
            }
            "chan" => match part(1) {
                Some("push") => PtxOp::ChanPush { src: self.expect_reg()? },
                other => return Err(self.err(format!("unknown chan intrinsic {other:?}"))),
            },
            "nvbit" => match part(1) {
                Some("readreg") => {
                    let dst = self.expect_reg()?;
                    self.comma()?;
                    let idx = self.src(PtxType::U32)?;
                    PtxOp::NvReadReg { dst, idx }
                }
                Some("writereg") => {
                    let idx = self.src(PtxType::U32)?;
                    self.comma()?;
                    let src = self.expect_reg()?;
                    PtxOp::NvWriteReg { idx, src }
                }
                other => return Err(self.err(format!("unknown nvbit intrinsic {other:?}"))),
            },
            other => return Err(self.err(format!("unknown opcode `{other}`"))),
        };
        self.expect_punct(';')?;
        Ok(PtxInstr { guard, op })
    }

    /// The type an opcode word ends in.
    fn tail_type(&mut self, mn: Mnemonic<'_>) -> Result<PtxType> {
        PtxType::from_suffix(mn.tail)
            .ok_or_else(|| self.err(format!("missing type suffix in `{}`", mn.word)))
    }

    fn space(&mut self, s: &str) -> Result<Space> {
        match s {
            "global" => Ok(Space::Global),
            "shared" => Ok(Space::Shared),
            "local" => Ok(Space::Local),
            other => Err(self.err(format!("unknown memory space `{other}`"))),
        }
    }

    fn ld(&mut self, mn: Mnemonic<'_>) -> Result<PtxOp> {
        let ty = self.tail_type(mn)?;
        let space = mn.parts[1].unwrap_or_default();
        if space == "param" {
            let dst = self.expect_reg()?;
            self.comma()?;
            self.expect_punct('[')?;
            let param = self.expect_word()?;
            let param = self.names.intern(param);
            let mut offset = 0u32;
            if self.eat_punct('+') {
                offset = self.int_in("parameter offset")?;
            }
            self.expect_punct(']')?;
            return Ok(PtxOp::LdParam { ty, dst, param, offset });
        }
        let space = self.space(space)?;
        let dst = self.expect_reg()?;
        self.comma()?;
        let addr = self.addr()?;
        Ok(PtxOp::Ld { space, ty, dst, addr })
    }

    fn mov(&mut self, mn: Mnemonic<'_>) -> Result<PtxOp> {
        let ty = self.tail_type(mn)?;
        let dst = self.expect_reg()?;
        self.comma()?;
        // Source: special register, plain register, immediate, or a shared
        // variable name (address-of).
        let (mut src, mut special, mut shared_addr) = (None, None, None);
        match self.peek() {
            Tok::Word(w) => {
                self.bump();
                match parse_special(w) {
                    Some(sp) => special = Some(sp),
                    None if w.starts_with('%') => src = Some(Src::Reg(self.reg(w))),
                    None => shared_addr = Some(self.names.intern(w)),
                }
            }
            _ => src = Some(self.src(ty)?),
        }
        Ok(PtxOp::Mov { ty, dst, src, special, shared_addr })
    }

    fn call(&mut self) -> Result<PtxOp> {
        // `call (%ret), name, (%a, %b);` | `call name, (%a);` | `call name;`
        let mut ret = None;
        if self.eat_punct('(') {
            ret = Some(self.expect_reg()?);
            self.expect_punct(')')?;
            self.comma()?;
        }
        let func = self.expect_word()?;
        let func = self.names.intern(func);
        let start = self.call_args.len();
        if self.eat_punct(',') {
            self.expect_punct('(')?;
            if !self.eat_punct(')') {
                loop {
                    let arg = self.expect_reg()?;
                    self.call_args.push(arg);
                    if self.eat_punct(')') {
                        break;
                    }
                    self.expect_punct(',')?;
                }
            }
        }
        let args = ArgRange { start: start as u32, len: (self.call_args.len() - start) as u32 };
        Ok(PtxOp::Call { ret, func, args })
    }

    fn atom(&mut self, mn: Mnemonic<'_>) -> Result<PtxOp> {
        let part = |n: usize| mn.parts[n];
        if part(1) != Some("global") {
            return Err(self.err("atomics are supported on global memory only".into()));
        }
        let op = part(2)
            .and_then(AtomOp::from_suffix)
            .ok_or_else(|| self.err("atom requires an operation suffix".into()))?;
        let ty = self.tail_type(mn)?;
        let dst = self.expect_reg()?;
        self.comma()?;
        let addr = self.addr()?;
        self.comma()?;
        let src = self.expect_reg()?;
        let src2 = if self.eat_punct(',') { Some(self.expect_reg()?) } else { None };
        if (op == AtomOp::Cas) != src2.is_some() {
            return Err(self.err("cas takes two value operands; other atomics take one".into()));
        }
        Ok(PtxOp::Atom { op, ty, dst, addr, src, src2 })
    }
}

fn parse_int(s: &str) -> Option<i64> {
    if let Some(h) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).ok().map(|v| v as i64)
    } else {
        s.parse::<i64>().ok()
    }
}

/// Parses a literal token under a type context, producing the canonical
/// immediate bits (f32 bits are sign-extended from 32; integer u32 values
/// are canonicalized the same way).
fn parse_typed_literal(tok: &str, neg: bool, ty: PtxType) -> Option<i64> {
    // Raw-bits float forms.
    if let Some(h) = tok.strip_prefix("0f").or_else(|| tok.strip_prefix("0F")) {
        if h.len() == 8 {
            let bits = u32::from_str_radix(h, 16).ok()?;
            return Some((bits as i32) as i64);
        }
    }
    if let Some(h) = tok.strip_prefix("0d").or_else(|| tok.strip_prefix("0D")) {
        if h.len() == 16 {
            return Some(u64::from_str_radix(h, 16).ok()? as i64);
        }
    }
    match ty {
        PtxType::F32 => {
            let v: f32 = tok.parse().ok()?;
            let v = if neg { -v } else { v };
            Some((v.to_bits() as i32) as i64)
        }
        PtxType::F64 => {
            let v: f64 = tok.parse().ok()?;
            let v = if neg { -v } else { v };
            Some(v.to_bits() as i64)
        }
        PtxType::U32 | PtxType::S32 | PtxType::B32 => {
            let v = parse_int(tok)?;
            let v = if neg { v.wrapping_neg() } else { v };
            Some((v as i32) as i64)
        }
        PtxType::U64 | PtxType::S64 | PtxType::B64 => {
            let v = parse_int(tok)?;
            Some(if neg { v.wrapping_neg() } else { v })
        }
        PtxType::Pred => None,
    }
}

/// The special register `w` names: its mnemonic without `SR_`, in lowercase
/// (`%tid.x` is `SR_TID.X`; `%activemask` is this dialect's, real PTX has
/// `activemask.b32`). No spelling names the grid id or the barrier state.
fn parse_special(w: &str) -> Option<SpecialReg> {
    let name = w.strip_prefix('%')?;
    SpecialReg::ALL
        .into_iter()
        .filter(|sr| !matches!(sr, SpecialReg::GridId | SpecialReg::BarrierState))
        .find(|sr| spells(&sr.mnemonic()[3..], name))
}

/// True when `s` is the machine spelling `upper` in lowercase, as PTX
/// writes it.
fn spells(upper: &str, s: &str) -> bool {
    upper.len() == s.len() && upper.bytes().map(|b| b.to_ascii_lowercase()).eq(s.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_name<'m>(m: &'m Module, f: &Function, v: VReg) -> &'m str {
        m.names.resolve(f.regs[v.index()].name)
    }

    /// The declared type of the register spelled `name`, when `f` uses it.
    fn reg_ty(m: &Module, f: &Function, name: &str) -> Option<PtxType> {
        f.regs[f.reg_named(m.names.get(name)?)?.index()].ty
    }

    const VECADD: &str = r#"
.version 6.0
.target sm_70
.visible .entry vecadd(.param .u64 a, .param .u64 b, .param .u64 c, .param .u32 n)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<8>;
    .reg .f32 %f<4>;
    .reg .pred %p<2>;

    ld.param.u64 %rd1, [a];
    ld.param.u32 %r1, [n];
    mov.u32 %r2, %ctaid.x;
    mov.u32 %r3, %ntid.x;
    mov.u32 %r4, %tid.x;
    mad.lo.u32 %r5, %r2, %r3, %r4;
    setp.ge.u32 %p1, %r5, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd4, %r5, 4;
    add.u64 %rd5, %rd1, %rd4;
    ld.global.f32 %f1, [%rd5];
    add.f32 %f1, %f1, 0f3F800000;
    st.global.f32 [%rd5], %f1;
DONE:
    exit;
}
"#;

    #[test]
    fn parses_a_full_kernel() {
        let m = parse(VECADD).unwrap();
        assert_eq!(m.functions.len(), 1);
        let f = &m.functions[0];
        assert_eq!(m.names.resolve(f.name), "vecadd");
        assert_eq!(f.kind, FunctionKind::Entry);
        assert_eq!(f.params.len(), 4);
        assert_eq!(reg_ty(&m, f, "%r5"), Some(PtxType::U32));
        assert_eq!(reg_ty(&m, f, "%p1"), Some(PtxType::Pred));
        let labels: Vec<_> = f
            .body
            .iter()
            .filter_map(|s| match s {
                Statement::Label(l) => Some(m.names.resolve(f.labels[l.index()])),
                _ => None,
            })
            .collect();
        assert_eq!(labels, vec!["DONE"]);
    }

    #[test]
    fn guards_and_immediates_parse() {
        let m = parse(VECADD).unwrap();
        let f = &m.functions[0];
        let instrs: Vec<_> = f
            .body
            .iter()
            .filter_map(|s| match s {
                Statement::Instr(i) => Some(i),
                _ => None,
            })
            .collect();
        // The guarded branch.
        let bra = instrs.iter().find(|i| matches!(i.op, PtxOp::Bra { .. })).unwrap();
        assert_eq!(reg_name(&m, f, bra.guard.unwrap().reg), "%p1");
        // The float literal 1.0 parsed as raw bits.
        let addf = instrs
            .iter()
            .find_map(|i| match &i.op {
                PtxOp::Bin { kind: BinKind::Add, ty: PtxType::F32, b: Src::Imm(v), .. } => Some(*v),
                _ => None,
            })
            .unwrap();
        assert_eq!(addf as u32, 1.0f32.to_bits());
    }

    #[test]
    fn device_functions_with_returns_parse() {
        let src = r#"
.func (.reg .u32 %out) square(.reg .u32 %x)
{
    mul.lo.u32 %out, %x, %x;
    ret;
}
"#;
        let m = parse(src).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.kind, FunctionKind::Device);
        assert_eq!(f.ret, Some(PtxType::U32));
        assert_eq!(f.ret_reg.map(|r| reg_name(&m, f, r)), Some("%out"));
        assert_eq!(f.params, vec![(m.names.get("%x").unwrap(), PtxType::U32)]);
        assert_eq!(reg_ty(&m, f, "%x"), Some(PtxType::U32));
    }

    #[test]
    fn calls_parse_with_and_without_returns() {
        let src = r#"
.entry k()
{
    .reg .u32 %r<3>;
    call (%r1), square, (%r2);
    call helper, (%r1);
    call barefn;
    exit;
}
"#;
        let m = parse(src).unwrap();
        let f = &m.functions[0];
        let calls: Vec<_> = f
            .body
            .iter()
            .filter_map(|s| match s {
                Statement::Instr(PtxInstr { op: PtxOp::Call { ret, func, args }, .. }) => Some((
                    ret.map(|r| reg_name(&m, f, r)),
                    m.names.resolve(*func),
                    f.args(*args).iter().map(|a| reg_name(&m, f, *a)).collect::<Vec<_>>(),
                )),
                _ => None,
            })
            .collect();
        assert_eq!(
            calls,
            vec![
                (Some("%r1"), "square", vec!["%r2"]),
                (None, "helper", vec!["%r1"]),
                (None, "barefn", vec![]),
            ]
        );
    }

    #[test]
    fn shared_decls_and_loc_parse() {
        let src = r#"
.entry k()
{
    .shared .align 8 .b8 tile[1024];
    .reg .u32 %r<3>;
    .loc "kern.cu" 42 ;
    mov.u32 %r1, tile;
    st.shared.u32 [%r1+16], %r2;
    bar.sync 0;
    exit;
}
"#;
        let m = parse(src).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.shared[0].bytes, 1024);
        assert_eq!(f.shared[0].align, 8);
        assert!(f
            .body
            .iter()
            .any(|s| matches!(s, Statement::Loc { file, line: 42 } if m.names.resolve(*file) == "kern.cu")));
    }

    #[test]
    fn rejects_unknown_opcode_with_line() {
        let src = ".entry k()\n{\n    frobnicate %r1;\n}\n";
        match parse(src) {
            Err(PtxError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn atomics_and_warp_ops_parse() {
        let src = r#"
.entry k(.param .u64 p)
{
    .reg .u32 %r<6>;
    .reg .u64 %rd<2>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [p];
    atom.global.add.u32 %r1, [%rd1], %r2;
    atom.global.cas.u32 %r1, [%rd1+8], %r2, %r3;
    red.global.add.f32 [%rd1+16], %r4;
    vote.ballot.b32 %r5, !%p1;
    shfl.bfly.b32 %r1, %r2, 16;
    popc.b32 %r1, %r5;
    exit;
}
"#;
        let m = parse(src).unwrap();
        assert_eq!(m.functions.len(), 1);
    }

    /// The line and reason of the parse error `src` must produce.
    fn rejected(src: &str) -> (usize, String) {
        match parse(src) {
            Err(PtxError::Parse { line, reason }) => (line, reason),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    fn kernel(body: &str) -> String {
        format!(".entry k(.param .u64 p)\n{{\n    .reg .u64 %rd<4>;\n{body}\n    exit;\n}}\n")
    }

    /// The first operation of a kernel whose body is `op` over `%r1`-`%r2`,
    /// `%p1` and `%rd1`.
    fn first_op(op: &str) -> Result<PtxOp> {
        let m = parse(&kernel(&format!("    .reg .u32 %r<3>;\n    .reg .pred %p<2>;\n    {op}")))?;
        Ok(m.functions[0]
            .body
            .iter()
            .find_map(|s| match s {
                Statement::Instr(i) => Some(i.op),
                _ => None,
            })
            .expect("the kernel has an instruction"))
    }

    /// The parser owns each PTX spelling of a machine comparison, special
    /// register and atomic operation (the `ast` tests read every spelling
    /// back as its value): a near miss reads as none.
    #[test]
    fn near_miss_machine_spellings_read_as_none() {
        for bad in ["setp.zz.u32 %p1, %r1, %r2;", "setp.EQ.u32 %p1, %r1, %r2;"] {
            assert!(first_op(bad).is_err(), "{bad}");
        }
        assert!(first_op("atom.global.bfly.u32 %r1, [%rd1], %r2;").is_err());
        // A `%` word that names no special register is a register, which
        // no declaration types.
        for w in ["%tid.w", "%gridid"] {
            let op = first_op(&format!("mov.u32 %r1, {w};")).unwrap();
            assert!(matches!(op, PtxOp::Mov { special: None, src: Some(_), .. }), "{w}: {op:?}");
            let src = kernel(&format!("    .reg .u32 %r<2>;\n    mov.u32 %r1, {w};"));
            assert!(matches!(
                crate::compile_module(&src, sass::Arch::Volta),
                Err(PtxError::Semantic { .. })
            ));
        }
    }

    #[test]
    fn negative_shared_size_is_rejected() {
        let (line, reason) = rejected(&kernel("    .shared .b8 s[-1];"));
        assert_eq!((line, reason.as_str()), (4, "shared size `-1` is out of range"));
    }

    #[test]
    fn shared_size_past_32_bits_is_rejected() {
        let (line, reason) = rejected(&kernel("    .shared .align 8 .b8 s[4294967297];"));
        assert_eq!((line, reason.as_str()), (4, "shared size `4294967297` is out of range"));
        assert_eq!(rejected(&kernel("    .shared .align -8 .b8 s[4];")).0, 4);
    }

    #[test]
    fn address_offset_past_32_bits_is_rejected() {
        for addr in ["[%rd1+99999999999]", "[%rd1-99999999999]", "[%rd1+-2147483649]"] {
            let (line, reason) = rejected(&kernel(&format!("    ld.global.u64 %rd2, {addr};")));
            assert_eq!((line, reason.as_str()), (4, "address offset is out of range"), "{addr}");
        }
        assert!(parse(&kernel("    ld.global.u64 %rd2, [%rd1+-2147483648];")).is_ok());
        let (line, _) = rejected(&kernel("    ld.param.u64 %rd2, [p+4294967296];"));
        assert_eq!(line, 4);
    }

    #[test]
    fn loc_line_past_32_bits_is_rejected() {
        let (line, reason) = rejected(&kernel("    .loc \"a\" 99999999999 ;"));
        assert_eq!((line, reason.as_str()), (4, "line number `99999999999` is out of range"));
    }

    #[test]
    fn a_label_defined_twice_is_rejected() {
        let (line, reason) = rejected(&kernel("A:\n    bra A;\nB:\nA:"));
        assert_eq!((line, reason.as_str()), (7, "label `A` is defined twice"));
        // The same spelling in two functions is two labels.
        let two = format!("{}{}", kernel("A:"), kernel("A:").replace(" k(", " k2("));
        assert_eq!(parse(&two).unwrap().functions.len(), 2);
    }

    #[test]
    fn register_ranges_are_not_expanded_and_capped() {
        let m = parse(&kernel("    .reg .u32 %r<1048000>;\n    mov.u32 %r1047999, 1;")).unwrap();
        let f = &m.functions[0];
        assert_eq!(f.regs.len(), 1, "only the registers referred to are tabled");
        assert_eq!(reg_ty(&m, f, "%r1047999"), Some(PtxType::U32));
        // %rd<4> + 1048573 = the cap + 1.
        let (line, reason) = rejected(&kernel("    .reg .u32 %r<1048573>;"));
        assert_eq!(line, 4);
        assert!(reason.contains("1048576 registers"), "{reason}");
        assert_eq!(rejected(&kernel("    .reg .u32 %r<4000000000>;")).0, 4);
        assert_eq!(rejected(&kernel("    .reg .u32 %r<-1>;")).0, 4);
        assert_eq!(rejected(&kernel("    .reg .u32 %r<99999999999>;")).0, 4);
    }

    #[test]
    fn the_last_declaration_of_a_register_types_it() {
        let m = parse(&kernel(
            "    mov.u32 %late, 1;\n    .reg .u32 %r<8>;\n    .reg .f32 %r3;\n    .reg .u64 %r<2>;\n    \
             .reg .u32 %late;\n    add.u32 %r1, %r3, %r5;\n    add.u32 %r01, %r8, %r0;",
        ))
        .unwrap();
        let f = &m.functions[0];
        let ty = |name| reg_ty(&m, f, name);
        assert_eq!(ty("%late"), Some(PtxType::U32), "declared after its use");
        assert_eq!(ty("%r0"), Some(PtxType::U64));
        assert_eq!(
            ty("%r1"),
            Some(PtxType::U64),
            "the later, narrower range wins where it reaches"
        );
        assert_eq!(ty("%r3"), Some(PtxType::F32), "the scalar after the range");
        assert_eq!(ty("%r5"), Some(PtxType::U32));
        assert_eq!(ty("%r8"), None, "past the range");
        assert_eq!(ty("%r01"), None, "not a canonical index");
    }

    #[test]
    fn a_lexical_error_anywhere_comes_before_a_syntax_error() {
        assert_eq!(rejected(".entry k()\n{\n    frobnicate;\n}\n#").0, 5);
        assert_eq!(rejected(".entry k()\n{\n    frobnicate;\n}\n").0, 3);
    }
}
