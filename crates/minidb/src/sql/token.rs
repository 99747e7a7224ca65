//! SQL tokens and the lexer.

use std::borrow::Cow;
use std::fmt;

use crate::error::{DbError, DbResult};

/// A lexical token. Names and string literals borrow from the statement
/// text they were cut from.
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// Identifier or keyword (keywords are recognized contextually).
    Ident(&'a str),
    /// Integer literal.
    Number(i64),
    /// String literal (single-quoted, `''` escapes a quote); owned only
    /// when an escape had to be undone.
    StringLit(Cow<'a, str>),
    /// Blob literal `X'0aff'`.
    BlobLit(Vec<u8>),
    /// Named parameter `$name`.
    Param(&'a str),
    /// Positional parameter `?` (numbered left to right from 1).
    Positional(usize),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `;`
    Semi,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::StringLit(s) => write!(f, "'{s}'"),
            Token::BlobLit(b) => write!(f, "X'<{} bytes>'", b.len()),
            Token::Param(p) => write!(f, "${p}"),
            Token::Positional(i) => write!(f, "?{i}"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Comma => f.write_str(","),
            Token::Dot => f.write_str("."),
            Token::Star => f.write_str("*"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Eq => f.write_str("="),
            Token::Ne => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::Gt => f.write_str(">"),
            Token::Le => f.write_str("<="),
            Token::Ge => f.write_str(">="),
            Token::Semi => f.write_str(";"),
        }
    }
}

impl Token<'_> {
    /// Returns `true` when this token is the given keyword
    /// (case-insensitive identifier match).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// The statement's first word: the ASCII letters after any leading
/// whitespace, `""` when none follow. Compare it with
/// `eq_ignore_ascii_case`; nothing is allocated.
pub fn leading_keyword(sql: &str) -> &str {
    let s = sql.trim_start();
    let end = s
        .bytes()
        .position(|b| !b.is_ascii_alphabetic())
        .unwrap_or(s.len());
    s.get(..end).unwrap_or_default()
}

/// The char at byte `i` of `sql` and its length in bytes. Only a
/// non-ASCII byte is decoded; an offset past the end, or off a char
/// boundary, reads as the end of the text.
fn char_at(sql: &str, i: usize) -> Option<(char, usize)> {
    match *sql.as_bytes().get(i)? {
        b if b.is_ascii() => Some((char::from(b), 1)),
        _ => sql.get(i..)?.chars().next().map(|c| (c, c.len_utf8())),
    }
}

/// Where the run of name characters (alphanumeric or `_`) from byte `i`
/// ends.
fn name_end(sql: &str, mut i: usize) -> usize {
    while let Some((c, w)) = char_at(sql, i) {
        if !(c.is_alphanumeric() || c == '_') {
            break;
        }
        i += w;
    }
    i
}

/// The string literal whose body starts at byte `i`, just past its
/// opening quote: its text, borrowed unless a `''` had to be undone, and
/// the offset past its closing quote.
fn string_lit(sql: &str, i: usize) -> DbResult<(Cow<'_, str>, usize)> {
    let body = sql.get(i..).unwrap_or_default();
    let mut from = 0;
    // Step over each `''`; the first lone quote closes the literal.
    let close = loop {
        let q = body
            .get(from..)
            .and_then(|rest| rest.find('\''))
            .ok_or_else(|| DbError::Lex("unterminated string literal".into()))?;
        if body.as_bytes().get(from + q + 1) != Some(&b'\'') {
            break from + q;
        }
        from += q + 2;
    };
    let text = body.get(..close).unwrap_or_default();
    let text = if from == 0 {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(text.replace("''", "'"))
    };
    Ok((text, i + close + 1))
}

/// The blob literal whose hex digits start at byte `i`, just past `X'`:
/// its bytes and the offset past its closing quote.
fn blob_lit(sql: &str, mut i: usize) -> DbResult<(Vec<u8>, usize)> {
    let mut bytes = Vec::new();
    let mut hi: Option<u8> = None;
    loop {
        let Some((c, w)) = char_at(sql, i) else {
            return Err(DbError::Lex("unterminated blob literal".into()));
        };
        i += w;
        if c == '\'' {
            if hi.is_some() {
                return Err(DbError::Lex("odd number of hex digits in blob".into()));
            }
            return Ok((bytes, i));
        }
        let Some(v) = c.to_digit(16).map(|d| d as u8) else {
            return Err(DbError::Lex(format!("invalid hex digit {c:?} in blob")));
        };
        match hi.take() {
            None => hi = Some(v),
            Some(h) => bytes.push((h << 4) | v),
        }
    }
}

/// Tokenizes SQL text. Walks byte offsets and decodes a `char` only at a
/// non-ASCII byte, so Unicode whitespace and letters classify as `char`
/// says they do.
///
/// # Errors
///
/// [`DbError::Lex`] on unterminated strings, bad blob literals, stray
/// characters, or integer overflow.
pub fn lex(sql: &str) -> DbResult<Vec<Token<'_>>> {
    // A token per four bytes covers the statements this engine is sent
    // (the fleet load's have one per four to six); denser text grows it.
    let mut out = Vec::with_capacity(sql.len() / 4 + 1);
    let mut i = 0;
    let mut positional = 0usize;
    while let Some((c, w)) = char_at(sql, i) {
        let start = i;
        i += w;
        let token = match (c, sql.as_bytes().get(i)) {
            (c, _) if c.is_whitespace() => continue,
            ('-', Some(b'-')) => {
                let rest = sql.get(i..).unwrap_or_default();
                i += rest.find('\n').unwrap_or(rest.len());
                continue;
            }
            ('(', _) => Token::LParen,
            (')', _) => Token::RParen,
            (',', _) => Token::Comma,
            ('.', _) => Token::Dot,
            ('*', _) => Token::Star,
            ('+', _) => Token::Plus,
            ('-', _) => Token::Minus,
            ('/', _) => Token::Slash,
            (';', _) => Token::Semi,
            ('=', _) => Token::Eq,
            ('!', Some(b'=')) | ('<', Some(b'>')) => {
                i += 1;
                Token::Ne
            }
            ('<', Some(b'=')) => {
                i += 1;
                Token::Le
            }
            ('>', Some(b'=')) => {
                i += 1;
                Token::Ge
            }
            ('<', _) => Token::Lt,
            ('>', _) => Token::Gt,
            ('?', _) => {
                positional += 1;
                Token::Positional(positional)
            }
            ('$', _) => {
                let end = name_end(sql, i);
                if end == i {
                    return Err(DbError::Lex("bare '$' without parameter name".into()));
                }
                let name = sql.get(i..end).unwrap_or_default();
                i = end;
                Token::Param(name)
            }
            ('\'', _) => {
                let (text, end) = string_lit(sql, i)?;
                i = end;
                Token::StringLit(text)
            }
            ('x' | 'X', Some(b'\'')) => {
                let (bytes, end) = blob_lit(sql, i + 1)?;
                i = end;
                Token::BlobLit(bytes)
            }
            (c, _) if c.is_alphabetic() || c == '_' => {
                i = name_end(sql, i);
                Token::Ident(sql.get(start..i).unwrap_or_default())
            }
            (c, _) if c.is_ascii_digit() => {
                i += sql.bytes().skip(i).take_while(u8::is_ascii_digit).count();
                let text = sql.get(start..i).unwrap_or_default();
                let n = text
                    .parse()
                    .map_err(|_| DbError::Lex(format!("integer literal {text} overflows")))?;
                Token::Number(n)
            }
            (other, _) => return Err(DbError::Lex(format!("unexpected character {other:?}"))),
        };
        out.push(token);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The char-based lexer this one replaced, kept as its oracle: it
    /// collects the text into a `Vec<char>` and owns every name.
    mod oracle {
        use crate::error::{DbError, DbResult};

        // Read only through `Debug`.
        #[allow(dead_code)]
        #[derive(Debug)]
        pub(super) enum Token {
            Ident(String),
            Number(i64),
            StringLit(String),
            BlobLit(Vec<u8>),
            Param(String),
            Positional(usize),
            LParen,
            RParen,
            Comma,
            Dot,
            Star,
            Plus,
            Minus,
            Slash,
            Eq,
            Ne,
            Lt,
            Gt,
            Le,
            Ge,
            Semi,
        }

        fn hex_val(c: char) -> Option<u8> {
            c.to_digit(16).map(|d| d as u8)
        }

        pub(super) fn lex(sql: &str) -> DbResult<Vec<Token>> {
            let mut out = Vec::new();
            let chars: Vec<char> = sql.chars().collect();
            let mut i = 0;
            let mut positional = 0usize;
            while i < chars.len() {
                let c = chars[i];
                match c {
                    c if c.is_whitespace() => i += 1,
                    '-' if chars.get(i + 1) == Some(&'-') => {
                        while i < chars.len() && chars[i] != '\n' {
                            i += 1;
                        }
                    }
                    '(' => {
                        out.push(Token::LParen);
                        i += 1;
                    }
                    ')' => {
                        out.push(Token::RParen);
                        i += 1;
                    }
                    ',' => {
                        out.push(Token::Comma);
                        i += 1;
                    }
                    '.' => {
                        out.push(Token::Dot);
                        i += 1;
                    }
                    '*' => {
                        out.push(Token::Star);
                        i += 1;
                    }
                    '+' => {
                        out.push(Token::Plus);
                        i += 1;
                    }
                    '-' => {
                        out.push(Token::Minus);
                        i += 1;
                    }
                    '/' => {
                        out.push(Token::Slash);
                        i += 1;
                    }
                    ';' => {
                        out.push(Token::Semi);
                        i += 1;
                    }
                    '=' => {
                        out.push(Token::Eq);
                        i += 1;
                    }
                    '!' if chars.get(i + 1) == Some(&'=') => {
                        out.push(Token::Ne);
                        i += 2;
                    }
                    '<' => match chars.get(i + 1) {
                        Some('>') => {
                            out.push(Token::Ne);
                            i += 2;
                        }
                        Some('=') => {
                            out.push(Token::Le);
                            i += 2;
                        }
                        _ => {
                            out.push(Token::Lt);
                            i += 1;
                        }
                    },
                    '>' => {
                        if chars.get(i + 1) == Some(&'=') {
                            out.push(Token::Ge);
                            i += 2;
                        } else {
                            out.push(Token::Gt);
                            i += 1;
                        }
                    }
                    '?' => {
                        positional += 1;
                        out.push(Token::Positional(positional));
                        i += 1;
                    }
                    '$' => {
                        let start = i + 1;
                        let mut j = start;
                        while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                            j += 1;
                        }
                        if j == start {
                            return Err(DbError::Lex("bare '$' without parameter name".into()));
                        }
                        out.push(Token::Param(chars[start..j].iter().collect()));
                        i = j;
                    }
                    '\'' => {
                        let mut s = String::new();
                        let mut j = i + 1;
                        loop {
                            if j >= chars.len() {
                                return Err(DbError::Lex("unterminated string literal".into()));
                            }
                            if chars[j] == '\'' {
                                if chars.get(j + 1) == Some(&'\'') {
                                    s.push('\'');
                                    j += 2;
                                } else {
                                    j += 1;
                                    break;
                                }
                            } else {
                                s.push(chars[j]);
                                j += 1;
                            }
                        }
                        out.push(Token::StringLit(s));
                        i = j;
                    }
                    'x' | 'X' if chars.get(i + 1) == Some(&'\'') => {
                        let mut bytes = Vec::new();
                        let mut j = i + 2;
                        let mut hi: Option<u8> = None;
                        loop {
                            if j >= chars.len() {
                                return Err(DbError::Lex("unterminated blob literal".into()));
                            }
                            let c = chars[j];
                            if c == '\'' {
                                if hi.is_some() {
                                    return Err(DbError::Lex(
                                        "odd number of hex digits in blob".into(),
                                    ));
                                }
                                j += 1;
                                break;
                            }
                            let Some(v) = hex_val(c) else {
                                return Err(DbError::Lex(format!(
                                    "invalid hex digit {c:?} in blob"
                                )));
                            };
                            match hi.take() {
                                None => hi = Some(v),
                                Some(h) => bytes.push((h << 4) | v),
                            }
                            j += 1;
                        }
                        out.push(Token::BlobLit(bytes));
                        i = j;
                    }
                    c if c.is_alphabetic() || c == '_' => {
                        let start = i;
                        let mut j = i;
                        while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                            j += 1;
                        }
                        out.push(Token::Ident(chars[start..j].iter().collect()));
                        i = j;
                    }
                    c if c.is_ascii_digit() => {
                        let start = i;
                        let mut j = i;
                        while j < chars.len() && chars[j].is_ascii_digit() {
                            j += 1;
                        }
                        let text: String = chars[start..j].iter().collect();
                        let n: i64 = text.parse().map_err(|_| {
                            DbError::Lex(format!("integer literal {text} overflows"))
                        })?;
                        out.push(Token::Number(n));
                        i = j;
                    }
                    other => return Err(DbError::Lex(format!("unexpected character {other:?}"))),
                }
            }
            Ok(out)
        }
    }

    /// The statements this workspace sends: minidb's own, the server
    /// store's, the fleet load's and the cluster's.
    const CORPUS: &[&str] = &[
        "SELECT driver_id FROM drivers WHERE api_name LIKE 'JDBC%'",
        "CREATE TABLE parts (id INTEGER PRIMARY KEY, name VARCHAR)",
        "INSERT INTO parts VALUES (1, 'bolt')",
        "INSERT INTO drivers (driver_id, binary_code) VALUES (1, X'00ff'), (2, $code)",
        "SELECT * FROM drivers ORDER BY driver_version_major DESC, driver_id LIMIT 1",
        "SELECT 1 + 2 * 3, now() AS t",
        "SELECT * FROM t WHERE a NOT IN (1, 2) AND b NOT BETWEEN 1 AND 2",
        "SELECT count(*) FROM t WHERE a IS NOT NULL",
        "UPDATE drivers SET end_date = now() WHERE driver_id = 3",
        "DELETE FROM drivers",
        "CREATE TEMPORARY TABLE scratch (a INTEGER)",
        "CREATE USER bob PASSWORD 'secret'",
        "GRANT SELECT, INSERT ON information_schema.drivers TO bob",
        "REVOKE ALL ON t FROM bob",
        "DROP TABLE IF EXISTS t",
        "BEGIN",
        "START TRANSACTION",
        "COMMIT;",
        "ROLLBACK",
        "SELECT a FROM t WHERE b <> ? AND c != ? AND d <= ? AND e >= ? AND f < -1 / 2",
        "CREATE TABLE information_schema.drivers ( driver_id INTEGER NOT NULL PRIMARY KEY, \
         api_name VARCHAR NOT NULL, api_version_major INTEGER, api_version_minor INTEGER, \
         platform VARCHAR, driver_version_major INTEGER, driver_version_minor INTEGER, \
         driver_version_micro INTEGER, binary_code BLOB NOT NULL, binary_format VARCHAR NOT NULL)",
        "CREATE TABLE information_schema.driver_permission ( user VARCHAR, client_ip VARCHAR, \
         database VARCHAR, \
         driver_id INTEGER NOT NULL REFERENCES information_schema.drivers(driver_id), \
         driver_options VARCHAR, start_date TIMESTAMP, end_date TIMESTAMP, \
         lease_time_in_ms BIGINT, renew_policy INTEGER, expiration_policy INTEGER, \
         transfer_method INTEGER)",
        "SELECT * FROM information_schema.drivers WHERE api_name LIKE $client_api_name \
         AND (platform IS NULL OR platform LIKE $client_platform \
              OR $client_platform LIKE platform) \
         AND ($client_api_major IS NULL OR api_version_major IS NULL \
              OR api_version_major = $client_api_major) \
         AND binary_format LIKE $client_format ORDER BY driver_id",
        "INSERT INTO information_schema.drivers VALUES \
         ($id, $api, $vmaj, $vmin, $plat, $dmaj, $dmin, $dmic, $code, $fmt)",
        "DELETE FROM information_schema.driver_permission WHERE driver_id = $id",
        "UPDATE information_schema.driver_permission \
         SET start_date = 0, end_date = $now WHERE driver_id = $id",
        "SELECT * FROM information_schema.driver_permission \
         WHERE (database IS NULL OR $user_database LIKE database) \
         AND (user IS NULL OR $client_user LIKE user) \
         AND (start_date IS NULL OR end_date IS NULL \
              OR now() BETWEEN start_date AND end_date)",
        "INSERT INTO information_schema.leases VALUES ($user, $ip, $db, $id, $at, $ms)",
        "SELECT count(*) FROM information_schema.leases",
        "CREATE TABLE orders (id INTEGER PRIMARY KEY, qty INTEGER, status VARCHAR)",
        "INSERT INTO orders VALUES (10000017, 7, 'new')",
        "UPDATE orders SET status = 'shipped' WHERE id = 10000017",
        "SELECT qty FROM orders WHERE id = 10000017",
        "SELECT 'POINT(1 2)' AS geometry",
        "SELECT 'it''s' AS geometry",
        "SELECT $x",
        "INSERT INTO t VALUES (1, 'x')",
    ];

    /// The corners of the byte walk: escapes at a literal's edges, a
    /// comment with no newline, bad blobs, a bare `$`, `?` after an
    /// escape, the i64 edge, unterminated literals, and non-ASCII text as
    /// whitespace, in names and in literals.
    const EDGES: &[&str] = &[
        "'''start'",
        "'end'''",
        "''''",
        "''",
        "'a''b''c' ? ?",
        "'it''' ?",
        "SELECT 1 -- no newline",
        "--",
        "-",
        "SELECT 1 --\n, 2",
        "X'0a0'",
        "x'0G'",
        "X'\u{e9}0'",
        "X'\u{ff10}0'",
        "X'",
        "X''",
        "X'0a",
        "$",
        "$ x",
        "$\u{e9}t\u{e9}",
        "? ? ?",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "'open",
        "'it''",
        "SELECT\u{a0}1\u{2003}FROM\u{a0}t",
        "caf\u{e9} = '\u{e9}\u{a0}\u{2003}\u{4e2d}'",
        "\u{4e2d}\u{6587} _\u{4e2d} a\u{a0}b \u{e9}1 x\u{b2} a\u{663}",
        "\u{663}",
        "a<>b!=c<=d>=e<f>g",
        "! !x < >",
        "@",
        "\t\r\n",
    ];

    /// What a lexer says about a text: its tokens by their `Debug` form
    /// (the two token types share variant names, and `&str`, `String` and
    /// `Cow<str>` print alike), or its error message.
    fn verdict<T: fmt::Debug>(r: DbResult<Vec<T>>) -> String {
        match r {
            Ok(tokens) => format!("{tokens:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    fn assert_same(sql: &str) {
        assert_eq!(
            verdict(lex(sql)),
            verdict(oracle::lex(sql)),
            "the lexers disagree on {sql:?}"
        );
    }

    #[test]
    fn the_byte_lexer_agrees_with_the_char_lexer_on_every_corpus_text() {
        for sql in CORPUS.iter().chain(EDGES) {
            assert_same(sql);
        }
    }

    /// RNG-free, like `tests/frames`: at every char boundary of every
    /// corpus and edge text, each edge character or sequence inserted,
    /// and each char deleted.
    #[test]
    fn the_byte_lexer_agrees_with_the_char_lexer_on_every_mutant() {
        const INSERTS: &[&str] = &[
            "'", "''", "--", "-", "X'", "$", "?", "\n", "\u{a0}", "\u{2003}", "\u{e9}", "\u{4e2d}",
        ];
        let mut mutants = 0;
        for sql in CORPUS.iter().chain(EDGES) {
            let mut cuts: Vec<usize> = sql.char_indices().map(|(i, _)| i).collect();
            cuts.push(sql.len());
            for (k, &at) in cuts.iter().enumerate() {
                let (head, tail) = sql.split_at(at);
                for insert in INSERTS {
                    assert_same(&format!("{head}{insert}{tail}"));
                }
                mutants += INSERTS.len();
                if let Some(&next) = cuts.get(k + 1) {
                    assert_same(&format!("{head}{}", &sql[next..]));
                    mutants += 1;
                }
            }
        }
        assert!(mutants > 40_000, "only {mutants} mutants");
    }

    #[test]
    fn leading_keyword_reads_the_statement_head() {
        let table = [
            ("BEGIN", "BEGIN"),
            ("begin", "begin"),
            ("  START TRANSACTION", "START"),
            ("COMMIT;", "COMMIT"),
            ("Rollback", "Rollback"),
            ("BEGINX", "BEGINX"),
            ("SELECT qty FROM orders", "SELECT"),
            ("", ""),
            ("\u{e9}BEGIN", ""),
            ("BEGIN\u{e9}", "BEGIN"),
            ("\u{2003}COMMIT", "COMMIT"),
            ("(SELECT 1)", ""),
        ];
        for (sql, head) in table {
            assert_eq!(leading_keyword(sql), head, "{sql:?}");
            // What each call site computed before, in two `String`s.
            let old = sql
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphabetic())
                .collect::<String>()
                .to_ascii_uppercase();
            assert_eq!(leading_keyword(sql).to_ascii_uppercase(), old, "{sql:?}");
        }
        assert!(leading_keyword("begin").eq_ignore_ascii_case("BEGIN"));
        assert!(!leading_keyword("BEGINX").eq_ignore_ascii_case("BEGIN"));
    }

    #[test]
    fn lexes_sample_code_1_shape() {
        let toks = lex(
            "SELECT binary_format, binary_code FROM information_schema.drivers \
             WHERE api_name LIKE $client_api_name AND (platform IS NULL OR platform LIKE $client_platform)",
        )
        .unwrap();
        assert!(toks.iter().any(|t| t.is_kw("SELECT")));
        assert!(toks.contains(&Token::Param("client_api_name")));
        assert!(toks.contains(&Token::Dot));
    }

    #[test]
    fn string_escapes() {
        let toks = lex("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::StringLit("it's".into())]);
        // Only an escape makes a literal own its text.
        let toks = lex("'its'").unwrap();
        assert!(matches!(toks[..], [Token::StringLit(Cow::Borrowed("its"))]));
    }

    #[test]
    fn blob_literals() {
        let toks = lex("X'0aFF'").unwrap();
        assert_eq!(toks, vec![Token::BlobLit(vec![0x0a, 0xff])]);
        assert!(lex("X'0a0'").is_err());
        assert!(lex("X'zz'").is_err());
        assert!(lex("X'00").is_err());
    }

    #[test]
    fn positional_params_number_left_to_right() {
        let toks = lex("? ?").unwrap();
        assert_eq!(toks, vec![Token::Positional(1), Token::Positional(2)]);
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("= <> != < > <= >=").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Lt,
                Token::Gt,
                Token::Le,
                Token::Ge
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("SELECT 1 -- trailing comment\n, 2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT"),
                Token::Number(1),
                Token::Comma,
                Token::Number(2)
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(lex("'open").is_err());
        assert!(lex("$ x").is_err());
        assert!(lex("@").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn ident_starting_with_x_is_not_blob() {
        let toks = lex("xmax").unwrap();
        assert_eq!(toks, vec![Token::Ident("xmax")]);
    }
}
