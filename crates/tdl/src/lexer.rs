//! TDL lexer.

use core::fmt;

/// A lexical token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Source line the token started on.
    pub line: usize,
}

/// TDL token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// A bare word: keywords (`PASS`, `LOOP`, `COMP`, accelerator names)
    /// and buffer identifiers.
    Ident(String),
    /// An unsigned integer literal.
    Number(u64),
    /// A double-quoted string literal (quotes stripped).
    Str(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `=`
    Equals,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Number(n) => write!(f, "number {n}"),
            TokenKind::Str(s) => write!(f, "string \"{s}\""),
            TokenKind::LBrace => f.write_str("`{`"),
            TokenKind::RBrace => f.write_str("`}`"),
            TokenKind::Equals => f.write_str("`=`"),
        }
    }
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexError {
    /// An unexpected character.
    UnexpectedChar {
        /// The offending character.
        ch: char,
        /// Line it appeared on.
        line: usize,
    },
    /// A string literal with no closing quote.
    UnterminatedString {
        /// Line the string started on.
        line: usize,
    },
    /// An integer literal too large for `u64`.
    NumberOverflow {
        /// Line it appeared on.
        line: usize,
    },
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::UnexpectedChar { ch, line } => {
                write!(f, "unexpected character {ch:?} on line {line}")
            }
            LexError::UnterminatedString { line } => {
                write!(f, "unterminated string starting on line {line}")
            }
            LexError::NumberOverflow { line } => {
                write!(f, "integer literal overflows u64 on line {line}")
            }
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenizes TDL source. `#` starts a line comment.
///
/// # Errors
///
/// Returns a [`LexError`] for characters outside the TDL alphabet.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    tokenize_at(src, 1)
}

/// Tokenizes TDL source whose first line is line `first_line` of an
/// enclosing file, so token and error lines refer to that file.
///
/// # Errors
///
/// Returns a [`LexError`] for characters outside the TDL alphabet.
pub(crate) fn tokenize_at(src: &str, first_line: usize) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = first_line;
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '{' => {
                out.push(Token {
                    kind: TokenKind::LBrace,
                    line,
                });
                chars.next();
            }
            '}' => {
                out.push(Token {
                    kind: TokenKind::RBrace,
                    line,
                });
                chars.next();
            }
            '=' => {
                out.push(Token {
                    kind: TokenKind::Equals,
                    line,
                });
                chars.next();
            }
            '"' => {
                chars.next();
                let start = line;
                let mut s = String::new();
                let mut closed = false;
                for c in chars.by_ref() {
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\n' => return Err(LexError::UnterminatedString { line: start }),
                        c => s.push(c),
                    }
                }
                if !closed {
                    return Err(LexError::UnterminatedString { line: start });
                }
                out.push(Token {
                    kind: TokenKind::Str(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let mut value: u64 = 0;
                while let Some(&d) = chars.peek() {
                    if let Some(digit) = d.to_digit(10) {
                        value = value
                            .checked_mul(10)
                            .and_then(|v| v.checked_add(digit as u64))
                            .ok_or(LexError::NumberOverflow { line })?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Number(value),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&a) = chars.peek() {
                    if a.is_ascii_alphanumeric() || a == '_' || a == '.' {
                        s.push(a);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Ident(s),
                    line,
                });
            }
            other => return Err(LexError::UnexpectedChar { ch: other, line }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_basic_program() {
        let toks = kinds("PASS in=a out=b { COMP FFT params=\"fft.para\" }");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("PASS".into()),
                TokenKind::Ident("in".into()),
                TokenKind::Equals,
                TokenKind::Ident("a".into()),
                TokenKind::Ident("out".into()),
                TokenKind::Equals,
                TokenKind::Ident("b".into()),
                TokenKind::LBrace,
                TokenKind::Ident("COMP".into()),
                TokenKind::Ident("FFT".into()),
                TokenKind::Ident("params".into()),
                TokenKind::Equals,
                TokenKind::Str("fft.para".into()),
                TokenKind::RBrace,
            ]
        );
    }

    #[test]
    fn numbers_and_comments() {
        let toks = kinds("LOOP 42 # trailing comment\n{ }");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("LOOP".into()),
                TokenKind::Number(42),
                TokenKind::LBrace,
                TokenKind::RBrace,
            ]
        );
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = tokenize("PASS\n\nLOOP").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn idents_may_contain_dots() {
        let toks = kinds("fft.para");
        assert_eq!(toks, vec![TokenKind::Ident("fft.para".into())]);
    }

    #[test]
    fn rejects_unknown_characters() {
        assert_eq!(
            tokenize("PASS @"),
            Err(LexError::UnexpectedChar { ch: '@', line: 1 })
        );
    }

    #[test]
    fn rejects_unterminated_string() {
        assert_eq!(
            tokenize("\"abc"),
            Err(LexError::UnterminatedString { line: 1 })
        );
        assert_eq!(
            tokenize("\"abc\ndef\""),
            Err(LexError::UnterminatedString { line: 1 })
        );
    }

    #[test]
    fn rejects_number_overflow() {
        assert_eq!(
            tokenize("99999999999999999999999"),
            Err(LexError::NumberOverflow { line: 1 })
        );
    }

    #[test]
    fn empty_source_is_empty_token_stream() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   \n\t # only a comment\n").unwrap().is_empty());
    }
}
