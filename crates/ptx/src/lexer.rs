//! Tokenizer for the PTX dialect: scans the source's bytes and hands out
//! tokens that borrow their text from it.

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
}

/// A token plus its 1-based source line.
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
}

impl<'a> Lexer<'a> {
    /// A tokenizer at the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src, pos: 0, line: 1 }
    }

    /// The next token, or `None` at the end of the source.
    ///
    /// # Errors
    ///
    /// [`PtxError::Parse`] on an unterminated string or comment and on a
    /// character no token starts with.
    pub fn next_tok(&mut self) -> Result<Option<SpannedTok<'a>>> {
        let bytes = self.src.as_bytes();
        let n = bytes.len();
        let at = |i: usize| bytes.get(i).copied().unwrap_or(0);
        // Every arm leaves `pos` on a char boundary: tokens are ASCII, and
        // comment and string interiors end at an ASCII delimiter.
        while self.pos < n {
            let (start, line) = (self.pos, self.line);
            let tok = |tok| Ok(Some(SpannedTok { tok, line }));
            let unterminated =
                |what: &str| PtxError::Parse { line, reason: format!("unterminated {what}") };
            match bytes[start] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => self.pos += 1,
                b'/' if at(start + 1) == b'/' => {
                    self.pos =
                        bytes[start..].iter().position(|&b| b == b'\n').map_or(n, |k| start + k);
                }
                b'/' if at(start + 1) == b'*' => {
                    let body = &bytes[start + 2..];
                    let len = body
                        .windows(2)
                        .position(|w| w == b"*/")
                        .ok_or_else(|| unterminated("block comment"))?;
                    self.line += body[..len].iter().filter(|&&b| b == b'\n').count();
                    self.pos = start + len + 4;
                }
                b'"' => {
                    let body = &bytes[start + 1..];
                    let len = body
                        .iter()
                        .position(|&b| b == b'"')
                        .ok_or_else(|| unterminated("string"))?;
                    self.line += body[..len].iter().filter(|&&b| b == b'\n').count();
                    self.pos = start + len + 2;
                    return tok(Tok::Str(&self.src[start + 1..start + 1 + len]));
                }
                b'0'..=b'9' => {
                    let mut i = start;
                    // A '.' not followed by a hex digit ends the number.
                    while i < n
                        && (bytes[i].is_ascii_alphanumeric()
                            || (bytes[i] == b'.' && at(i + 1).is_ascii_hexdigit()))
                    {
                        i += 1;
                    }
                    self.pos = i;
                    return tok(Tok::Num(&self.src[start..i]));
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'%' | b'.' | b'$' => {
                    let mut i = start + 1;
                    // A dot continues the word only when followed by a word
                    // character (so `DONE:` vs `ld.global` both work).
                    while i < n
                        && (bytes[i].is_ascii_alphanumeric()
                            || matches!(bytes[i], b'_' | b'$' | b'%')
                            || (bytes[i] == b'.'
                                && (at(i + 1).is_ascii_alphanumeric() || at(i + 1) == b'_')))
                    {
                        i += 1;
                    }
                    self.pos = i;
                    return tok(Tok::Word(&self.src[start..i]));
                }
                c @ (b'{' | b'}' | b'(' | b')' | b'[' | b']' | b',' | b';' | b':' | b'@' | b'!'
                | b'+' | b'-' | b'<' | b'>') => {
                    self.pos += 1;
                    return tok(Tok::Punct(c as char));
                }
                _ => {
                    let other = self.src[start..].chars().next().expect("pos is inside the source");
                    let reason = format!("unexpected character `{other}`");
                    return Err(PtxError::Parse { line, reason });
                }
            }
        }
        Ok(None)
    }
}

/// Tokenizes a whole source.
///
/// # Errors
///
/// See [`Lexer::next_tok`].
pub fn lex(src: &str) -> Result<Vec<SpannedTok<'_>>> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lexer.next_tok()? {
        toks.push(t);
    }
    Ok(toks)
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
