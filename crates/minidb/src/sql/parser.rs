//! Recursive-descent parser for the supported SQL subset.

use crate::error::{DbError, DbResult};
use crate::sql::ast::*;
use crate::sql::token::{lex, Token};
use crate::value::{DataType, Value};

/// Parses one SQL statement (a trailing `;` is tolerated).
///
/// # Errors
///
/// [`DbError::Lex`] / [`DbError::Parse`] on malformed input.
///
/// # Examples
///
/// ```
/// use minidb::sql::parse;
///
/// let stmt = parse("SELECT driver_id FROM drivers WHERE api_name LIKE 'JDBC%'")?;
/// # let _ = stmt;
/// # Ok::<(), minidb::DbError>(())
/// ```
pub fn parse(sql: &str) -> DbResult<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_statement()?;
    p.eat_semi_and_eof()?;
    Ok(stmt)
}

/// The tokens borrow the statement text, so taking one copies a
/// reference (only a blob or an escaped string literal is cloned); a
/// `String` is made only where the AST keeps one.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> DbResult<Token<'a>> {
        let t = self
            .peek()
            .cloned()
            .ok_or_else(|| DbError::Parse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {kw}, found {}",
                self.describe_here()
            )))
        }
    }

    fn eat_tok(&mut self, tok: &Token<'_>) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, tok: &Token<'_>) -> DbResult<()> {
        if self.eat_tok(tok) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {tok}, found {}",
                self.describe_here()
            )))
        }
    }

    fn describe_here(&self) -> String {
        match self.peek() {
            Some(t) => format!("{t}"),
            None => "end of statement".to_string(),
        }
    }

    /// The next token's name, borrowed from the text.
    fn name(&mut self) -> DbResult<&'a str> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(DbError::Parse(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    fn ident(&mut self) -> DbResult<String> {
        self.name().map(str::to_string)
    }

    /// Identifier possibly qualified with dots (`information_schema.drivers`).
    fn dotted_ident(&mut self) -> DbResult<String> {
        let first = self.name()?;
        self.qualified(first)
    }

    /// `first` followed by any `.name` parts.
    fn qualified(&mut self, first: &str) -> DbResult<String> {
        let mut s = first.to_string();
        while self.eat_tok(&Token::Dot) {
            s.push('.');
            s.push_str(self.name()?);
        }
        Ok(s)
    }

    fn string_lit(&mut self) -> DbResult<String> {
        match self.next()? {
            Token::StringLit(s) => Ok(s.into_owned()),
            other => Err(DbError::Parse(format!(
                "expected string literal, found {other}"
            ))),
        }
    }

    fn eat_semi_and_eof(&mut self) -> DbResult<()> {
        while self.eat_tok(&Token::Semi) {}
        if self.pos != self.tokens.len() {
            return Err(DbError::Parse(format!(
                "unexpected trailing input at {}",
                self.describe_here()
            )));
        }
        Ok(())
    }

    fn parse_statement(&mut self) -> DbResult<Statement> {
        if self.eat_kw("SELECT") {
            return self.parse_select();
        }
        if self.eat_kw("INSERT") {
            return self.parse_insert();
        }
        if self.eat_kw("UPDATE") {
            return self.parse_update();
        }
        if self.eat_kw("DELETE") {
            return self.parse_delete();
        }
        if self.eat_kw("CREATE") {
            return self.parse_create();
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.dotted_ident()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.eat_kw("BEGIN") || self.eat_kw("START") {
            // Accept both BEGIN and START TRANSACTION.
            self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("GRANT") {
            let privileges = self.parse_privileges()?;
            self.expect_kw("ON")?;
            let table = self.dotted_ident()?;
            self.expect_kw("TO")?;
            let user = self.ident()?;
            return Ok(Statement::Grant {
                privileges,
                table,
                user,
            });
        }
        if self.eat_kw("REVOKE") {
            let privileges = self.parse_privileges()?;
            self.expect_kw("ON")?;
            let table = self.dotted_ident()?;
            self.expect_kw("FROM")?;
            let user = self.ident()?;
            return Ok(Statement::Revoke {
                privileges,
                table,
                user,
            });
        }
        Err(DbError::Parse(format!(
            "expected a statement, found {}",
            self.describe_here()
        )))
    }

    fn parse_privileges(&mut self) -> DbResult<Vec<Privilege>> {
        let mut privs = Vec::new();
        loop {
            let name = self.name()?;
            let p = match name.to_ascii_uppercase().as_str() {
                "SELECT" => Privilege::Select,
                "INSERT" => Privilege::Insert,
                "UPDATE" => Privilege::Update,
                "DELETE" => Privilege::Delete,
                "ALL" => {
                    privs.extend([
                        Privilege::Select,
                        Privilege::Insert,
                        Privilege::Update,
                        Privilege::Delete,
                    ]);
                    if !self.eat_tok(&Token::Comma) {
                        break;
                    }
                    continue;
                }
                other => return Err(DbError::Parse(format!("unknown privilege {other}"))),
            };
            privs.push(p);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        Ok(privs)
    }

    fn parse_create(&mut self) -> DbResult<Statement> {
        if self.eat_kw("USER") {
            let name = self.ident()?;
            self.expect_kw("PASSWORD")?;
            let password = self.string_lit()?;
            return Ok(Statement::CreateUser { name, password });
        }
        let temporary = self.eat_kw("TEMPORARY") || self.eat_kw("TEMP");
        self.expect_kw("TABLE")?;
        let name = self.dotted_ident()?;
        self.expect_tok(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let dtype = DataType::parse(self.name()?)?;
            let mut def = ColumnDef {
                name: col_name,
                dtype,
                not_null: false,
                primary_key: false,
                references: None,
            };
            loop {
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    def.not_null = true;
                } else if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    def.primary_key = true;
                } else if self.eat_kw("REFERENCES") {
                    let table = self.dotted_ident()?;
                    self.expect_tok(&Token::LParen)?;
                    let column = self.ident()?;
                    self.expect_tok(&Token::RParen)?;
                    def.references = Some((table, column));
                } else {
                    break;
                }
            }
            columns.push(def);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        self.expect_tok(&Token::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            temporary,
        })
    }

    fn parse_insert(&mut self) -> DbResult<Statement> {
        self.expect_kw("INTO")?;
        let table = self.dotted_ident()?;
        let columns = if self.eat_tok(&Token::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_tok(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
            rows.push(row);
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> DbResult<Statement> {
        let table = self.dotted_ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_tok(&Token::Eq)?;
            let expr = self.parse_expr()?;
            sets.push((col, expr));
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn parse_delete(&mut self) -> DbResult<Statement> {
        self.expect_kw("FROM")?;
        let table = self.dotted_ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn parse_select(&mut self) -> DbResult<Statement> {
        let distinct = self.eat_kw("DISTINCT");
        let mut items = Vec::new();
        loop {
            if self.eat_tok(&Token::Star) {
                items.push(SelectItem::Star);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_tok(&Token::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("FROM") {
            Some(self.dotted_ident()?)
        } else {
            None
        };
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.parse_expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push((e, asc));
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Number(n) if n >= 0 => Some(n as u64),
                other => return Err(DbError::Parse(format!("bad LIMIT {other}"))),
            }
        } else {
            None
        };
        Ok(Statement::Select(SelectStmt {
            distinct,
            items,
            from,
            filter,
            order_by,
            limit,
        }))
    }

    // Expression precedence: OR < AND < NOT < predicates < +- < */ < unary.

    fn parse_expr(&mut self) -> DbResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> DbResult<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_kw("OR") {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> DbResult<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_kw("AND") {
            let rhs = self.parse_not()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> DbResult<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_predicate()
        }
    }

    fn parse_predicate(&mut self) -> DbResult<Expr> {
        let lhs = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_tok(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_tok(&Token::Comma) {
                    break;
                }
            }
            self.expect_tok(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if negated {
            return Err(DbError::Parse(
                "NOT must be followed by LIKE, BETWEEN, or IN here".into(),
            ));
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_additive()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> DbResult<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> DbResult<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> DbResult<Expr> {
        if self.eat_tok(&Token::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> DbResult<Expr> {
        match self.next()? {
            Token::Number(n) => Ok(Expr::Literal(Value::BigInt(n))),
            Token::StringLit(s) => Ok(Expr::Literal(Value::Varchar(s.into_owned()))),
            Token::BlobLit(b) => Ok(Expr::Literal(Value::Blob(b.into()))),
            Token::Param(p) => Ok(Expr::Param(p.to_string())),
            Token::Positional(i) => Ok(Expr::Param(i.to_string())),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect_tok(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(id) => {
                if id.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if id.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::Literal(Value::Boolean(true)));
                }
                if id.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::Literal(Value::Boolean(false)));
                }
                if self.eat_tok(&Token::LParen) {
                    // Function call.
                    let name = id.to_ascii_lowercase();
                    if self.eat_tok(&Token::Star) {
                        self.expect_tok(&Token::RParen)?;
                        return Ok(Expr::Func {
                            name,
                            args: Vec::new(),
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if !self.eat_tok(&Token::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_tok(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect_tok(&Token::RParen)?;
                    }
                    return Ok(Expr::Func {
                        name,
                        args,
                        star: false,
                    });
                }
                // Possibly qualified column reference.
                Ok(Expr::Column(self.qualified(id)?))
            }
            other => Err(DbError::Parse(format!("unexpected token {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sample_code_1() {
        // The paper's driver-retrieval query (Sample code 1), verbatim shape.
        let stmt = parse(
            "SELECT binary_format, binary_code \
             FROM information_schema.drivers \
             WHERE api_name LIKE $client_api_name \
             AND (platform IS NULL OR platform LIKE $client_platform) \
             AND ($client_api_version IS NULL OR api_version IS NULL \
                  OR $client_api_version LIKE api_version)",
        )
        .unwrap();
        let Statement::Select(s) = stmt else {
            panic!("expected select")
        };
        assert_eq!(s.from.as_deref(), Some("information_schema.drivers"));
        assert!(s.filter.is_some());
        assert_eq!(s.items.len(), 2);
    }

    #[test]
    fn parses_sample_code_2() {
        // The paper's distribution-table query (Sample code 2).
        let stmt = parse(
            "SELECT driver_id FROM information_schema.distribution \
             WHERE (database IS NULL OR database LIKE $user_database) \
             AND (user IS NULL OR user LIKE $client_user) \
             AND (client_ip IS NULL OR client_ip LIKE $client_client_ip) \
             AND (start_date IS NULL OR end_date IS NULL \
                  OR now() BETWEEN start_date AND end_date)",
        )
        .unwrap();
        assert!(matches!(stmt, Statement::Select(_)));
    }

    #[test]
    fn parses_create_table_with_constraints() {
        let stmt = parse(
            "CREATE TABLE driver_permission ( \
               user VARCHAR, \
               driver_id INTEGER NOT NULL REFERENCES drivers(driver_id), \
               lease_time_in_ms BIGINT)",
        )
        .unwrap();
        let Statement::CreateTable {
            name,
            columns,
            temporary,
        } = stmt
        else {
            panic!()
        };
        assert_eq!(name, "driver_permission");
        assert!(!temporary);
        assert_eq!(columns.len(), 3);
        assert_eq!(
            columns[1].references,
            Some(("drivers".to_string(), "driver_id".to_string()))
        );
        assert!(columns[1].not_null);
    }

    #[test]
    fn parses_temp_table() {
        let stmt = parse("CREATE TEMPORARY TABLE scratch (a INTEGER)").unwrap();
        assert!(matches!(
            stmt,
            Statement::CreateTable {
                temporary: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_insert_multi_row_with_blob() {
        let stmt =
            parse("INSERT INTO drivers (driver_id, binary_code) VALUES (1, X'00ff'), (2, $code)")
                .unwrap();
        let Statement::Insert { rows, columns, .. } = stmt else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(columns.unwrap().len(), 2);
        assert_eq!(rows[0][1], Expr::Literal(Value::Blob(vec![0, 0xff].into())));
        assert_eq!(rows[1][1], Expr::Param("code".into()));
    }

    #[test]
    fn parses_update_delete() {
        assert!(matches!(
            parse("UPDATE drivers SET end_date = now() WHERE driver_id = 3").unwrap(),
            Statement::Update { .. }
        ));
        assert!(matches!(
            parse("DELETE FROM drivers WHERE driver_id = 3").unwrap(),
            Statement::Delete { .. }
        ));
        assert!(matches!(
            parse("DELETE FROM drivers").unwrap(),
            Statement::Delete { filter: None, .. }
        ));
    }

    #[test]
    fn parses_txn_statements() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("START TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn parses_grant_revoke_user() {
        assert!(matches!(
            parse("CREATE USER bob PASSWORD 'secret'").unwrap(),
            Statement::CreateUser { .. }
        ));
        let Statement::Grant { privileges, .. } =
            parse("GRANT SELECT, INSERT ON information_schema.drivers TO bob").unwrap()
        else {
            panic!()
        };
        assert_eq!(privileges, vec![Privilege::Select, Privilege::Insert]);
        assert!(matches!(
            parse("REVOKE ALL ON t FROM bob").unwrap(),
            Statement::Revoke { .. }
        ));
    }

    #[test]
    fn parses_order_by_limit() {
        let Statement::Select(s) =
            parse("SELECT * FROM drivers ORDER BY driver_version_major DESC, driver_id LIMIT 1")
                .unwrap()
        else {
            panic!()
        };
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].1);
        assert!(s.order_by[1].1);
        assert_eq!(s.limit, Some(1));
    }

    #[test]
    fn parses_select_without_from() {
        let Statement::Select(s) = parse("SELECT 1 + 2 * 3, now() AS t").unwrap() else {
            panic!()
        };
        assert!(s.from.is_none());
        assert_eq!(s.items.len(), 2);
    }

    #[test]
    fn operator_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let Statement::Select(s) = parse("SELECT 1 + 2 * 3").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = expr
        else {
            panic!("expected Add at top: {expr:?}")
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn not_in_and_not_like() {
        assert!(parse("SELECT * FROM t WHERE a NOT IN (1, 2)").is_ok());
        assert!(parse("SELECT * FROM t WHERE a NOT LIKE 'x%'").is_ok());
        assert!(parse("SELECT * FROM t WHERE a IS NOT NULL").is_ok());
        assert!(parse("SELECT * FROM t WHERE a NOT BETWEEN 1 AND 2").is_ok());
        assert!(parse("SELECT * FROM t WHERE a NOT 5").is_err());
    }

    #[test]
    fn count_star() {
        let Statement::Select(s) = parse("SELECT count(*) FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Func { star: true, .. }));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("SELECT 1 SELECT 2").is_err());
        assert!(parse("").is_err());
    }
}
