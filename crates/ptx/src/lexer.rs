//! Tokenizer for the PTX dialect: scans the source's bytes and hands out
//! tokens that borrow their text from it.
//!
//! The parser reads it as a cursor: [`Lexer::next_tok`] returns a small
//! `Copy` token every time, [`Tok::End`] at the end of the source and from
//! the first lexical error on, which the lexer keeps for
//! [`Lexer::take_error`].

use crate::{PtxError, Result};

/// One lexical token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// A word: identifier, dotted directive/opcode (`.reg`, `ld.global.f32`),
    /// register (`%r1`, `%tid.x`) or label name.
    Word(&'a str),
    /// An integer or floating literal, kept raw for type-directed parsing.
    Num(&'a str),
    /// A double-quoted string (contents only).
    Str(&'a str),
    /// Single punctuation character: `{}()[],;:@!+-<>`.
    Punct(char),
    /// The end of the source, or of what precedes its first lexical error.
    End,
}

/// A token plus its 1-based source line ([`Tok::End`]'s is the line of the
/// last token before it, 0 when there is none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannedTok<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// 1-based source line.
    pub line: usize,
}

/// A pull tokenizer over one source text. Comments (`//` to end of line and
/// `/* */`) are skipped; they and string literals may hold any UTF-8, every
/// other token is ASCII.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    /// Line of the last token handed out.
    last: usize,
    /// The first lexical error; the source ends there.
    err: Option<PtxError>,
}

/// Byte classes, as bits of [`CLASS`]: blank space (not a newline), a
/// byte that continues a word, one that may follow a dot inside a word
/// (letter, digit, `_`), a digit, a byte that starts a word, punctuation,
/// the newline and the dot.
const SPACE: u8 = 1;
const WORD: u8 = 2;
const AFTER_DOT: u8 = 4;
const DIGIT: u8 = 8;
const WORD_START: u8 = 16;
const PUNCT: u8 = 32;
const NEWLINE: u8 = 64;
const DOT: u8 = 128;
const CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0;
    while b < 128 {
        class[b] = match b as u8 {
            b'0'..=b'9' => WORD | AFTER_DOT | DIGIT,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => WORD | AFTER_DOT | WORD_START,
            b'$' | b'%' => WORD | WORD_START,
            b'.' => WORD_START | DOT,
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => SPACE,
            b'\n' => NEWLINE,
            _ => 0,
        };
        b += 1;
    }
    let punct = b"{}()[],;:@!+-<>";
    let mut k = 0;
    while k < punct.len() {
        class[punct[k] as usize] = PUNCT;
        k += 1;
    }
    class
};

/// The class of `bytes[i]`, 0 past the end.
#[inline]
fn class(bytes: &[u8], i: usize) -> u8 {
    bytes.get(i).map_or(0, |&b| CLASS[b as usize])
}

impl<'a> Lexer<'a> {
    /// A tokenizer at the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src, pos: 0, line: 1, last: 0, err: None }
    }

    /// The next token: [`Tok::End`] at the end of the source, and from the
    /// first lexical error on (see [`Lexer::take_error`]).
    #[inline(always)]
    pub fn next_tok(&mut self) -> SpannedTok<'a> {
        let tok = if self.err.is_none() { self.scan() } else { Tok::End };
        SpannedTok { tok, line: self.last }
    }

    /// The lexical error the source ended at, if any.
    pub fn take_error(&mut self) -> Option<PtxError> {
        self.err.take()
    }

    /// Scans past the next token and returns it (noting its line in
    /// `last`); at the end or a lexical error (kept in `err`), [`Tok::End`].
    #[inline(always)]
    fn scan(&mut self) -> Tok<'a> {
        let bytes = self.src.as_bytes();
        let n = bytes.len();
        // Every arm leaves `pos` on a char boundary: tokens are ASCII, and
        // comment and string interiors end at an ASCII delimiter.
        loop {
            let mut start = self.pos;
            loop {
                match class(bytes, start) {
                    SPACE => start += 1,
                    NEWLINE => {
                        self.line += 1;
                        start += 1;
                    }
                    _ => break,
                }
            }
            self.pos = start;
            let line = self.line;
            let fail = |reason: String| Some(PtxError::Parse { line, reason });
            let unterminated = |what: &str| fail(format!("unterminated {what}"));
            let Some(&b) = bytes.get(start) else { return Tok::End };
            let c = CLASS[b as usize];
            let tok = if c & WORD_START != 0 {
                // A dot continues the word only when a letter, digit or `_`
                // follows it (so `DONE:` vs `ld.global` both work).
                let mut i = start + 1;
                loop {
                    let c = class(bytes, i);
                    if c & WORD == 0 && (c & DOT == 0 || class(bytes, i + 1) & AFTER_DOT == 0) {
                        break;
                    }
                    i += 1;
                }
                self.pos = i;
                Tok::Word(&self.src[start..i])
            } else if c & DIGIT != 0 {
                // A '.' not followed by a hex digit ends the number.
                let mut i = start + 1;
                while i < n
                    && (bytes[i].is_ascii_alphanumeric()
                        || (bytes[i] == b'.'
                            && bytes.get(i + 1).is_some_and(u8::is_ascii_hexdigit)))
                {
                    i += 1;
                }
                self.pos = i;
                Tok::Num(&self.src[start..i])
            } else if c == PUNCT {
                self.pos += 1;
                Tok::Punct(b as char)
            } else {
                match b {
                    b'/' if bytes.get(start + 1) == Some(&b'/') => {
                        self.pos = bytes[start..]
                            .iter()
                            .position(|&b| b == b'\n')
                            .map_or(n, |k| start + k);
                        continue;
                    }
                    b'/' if bytes.get(start + 1) == Some(&b'*') => {
                        let body = &bytes[start + 2..];
                        let Some(len) = body.windows(2).position(|w| w == b"*/") else {
                            self.err = unterminated("block comment");
                            return Tok::End;
                        };
                        self.line += body[..len].iter().filter(|&&b| b == b'\n').count();
                        self.pos = start + len + 4;
                        continue;
                    }
                    b'"' => {
                        let body = &bytes[start + 1..];
                        let Some(len) = body.iter().position(|&b| b == b'"') else {
                            self.err = unterminated("string");
                            return Tok::End;
                        };
                        self.line += body[..len].iter().filter(|&&b| b == b'\n').count();
                        self.pos = start + len + 2;
                        Tok::Str(&self.src[start + 1..start + 1 + len])
                    }
                    _ => {
                        let other =
                            self.src[start..].chars().next().expect("pos is inside the source");
                        self.err = fail(format!("unexpected character `{other}`"));
                        return Tok::End;
                    }
                }
            };
            self.last = line;
            return tok;
        }
    }
}

/// Tokenizes a whole source.
///
/// # Errors
///
/// [`PtxError::Parse`] on an unterminated string or comment and on a
/// character no token starts with.
pub fn lex(src: &str) -> Result<Vec<SpannedTok<'_>>> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        match lexer.next_tok() {
            SpannedTok { tok: Tok::End, .. } => break,
            t => toks.push(t),
        }
    }
    lexer.take_error().map_or(Ok(toks), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn dotted_opcodes_lex_as_one_word() {
        assert_eq!(
            words("ld.global.f32 %f1, [%rd1+4];"),
            vec![
                Tok::Word("ld.global.f32"),
                Tok::Word("%f1"),
                Tok::Punct(','),
                Tok::Punct('['),
                Tok::Word("%rd1"),
                Tok::Punct('+'),
                Tok::Num("4"),
                Tok::Punct(']'),
                Tok::Punct(';'),
            ]
        );
    }

    #[test]
    fn labels_do_not_swallow_colons() {
        assert_eq!(words("DONE:"), vec![Tok::Word("DONE"), Tok::Punct(':')]);
    }

    #[test]
    fn special_registers_keep_component() {
        assert_eq!(words("%tid.x"), vec![Tok::Word("%tid.x")]);
    }

    #[test]
    fn numbers_include_hex_and_float_forms() {
        assert_eq!(
            words("0x1f 42 1.5 0f3F800000"),
            vec![Tok::Num("0x1f"), Tok::Num("42"), Tok::Num("1.5"), Tok::Num("0f3F800000")]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let toks = lex("// hi\n/* multi\nline */ exit ;").unwrap();
        assert_eq!(toks[0].tok, Tok::Word("exit"));
        assert_eq!(toks[0].line, 3);
    }

    #[test]
    fn errors_on_stray_character() {
        assert!(lex("#").is_err());
        assert!(lex("\"unterminated").is_err());
    }
}
