//! Recursive-descent parser for Regular XPath.
//!
//! Grammar (lowest precedence first):
//!
//! ```text
//! path     := union
//! union    := seq ('|' seq)*
//! seq      := ['/' | '//'] item (('/' | '//') item)*
//! item     := primary ('*' if primary was a group | '[' qual ']')*
//! primary  := NAME | '*' | '.' | '(' union ')'
//! qual     := or
//! or       := and ('or' and)*
//! and      := base ('and' base)*
//! base     := 'not' '(' qual ')' | 'true()' | 'text()' '=' LIT
//!           | '(' qual ')'                 (if not parseable as a path)
//!           | cmp-path ['/text()'] ['=' LIT]
//! ```
//!
//! `//` desugars to `/(*)*/`. The Kleene star is only accepted after a
//! parenthesized group (`(p)*`), so `*` elsewhere is the wildcard step —
//! exactly the concrete syntax the paper's example Q0 uses.

use crate::ast::{Path, Qualifier};
use crate::error::ParseError;
use crate::lexer::{tokenize, Token, TokenKind};
use smoqe_xml::Vocabulary;

/// How deeply a query may nest: a deeper path or qualifier is rejected
/// with a [`ParseError`] naming this limit.
///
/// Depth counts the compound nodes on the longest root-to-leaf chain of
/// the AST — sequences, unions, closures, qualified steps, `not`, `and`
/// and `or` — whether they come from brackets and parentheses or from a
/// chain the parser builds in a loop (`a[b][c]…`, `x or y or …`), and the
/// parser's own nesting of parentheses and brackets is held to the same
/// limit. Every later pass over a query (rewriting, compilation,
/// optimization, evaluation, dropping the AST) recurses along that chain,
/// so bounding it here bounds the stack every one of them needs, whatever
/// the input.
pub const MAX_DEPTH: usize = 256;

/// Parses a Regular XPath path, interning labels into `vocab`.
///
/// ```
/// use smoqe_rxpath::parse_path;
/// use smoqe_xml::Vocabulary;
/// let vocab = Vocabulary::new();
/// let q0 = parse_path(
///     "hospital/patient[(parent/patient)*/visit/treatment/test and \
///      visit/treatment[medication/text() = 'headache']]/pname",
///     &vocab,
/// ).unwrap();
/// assert!(q0.has_closure());
/// ```
pub fn parse_path(input: &str, vocab: &Vocabulary) -> Result<Path, ParseError> {
    let mut p = Parser::new(input, vocab)?;
    let (path, _) = p.union()?;
    p.expect_eof()?;
    Ok(path)
}

/// Parses a standalone qualifier (used by policy files, where annotations
/// are written as bare qualifiers such as `visit/treatment/medication = 'autism'`).
pub fn parse_qualifier(input: &str, vocab: &Vocabulary) -> Result<Qualifier, ParseError> {
    let mut p = Parser::new(input, vocab)?;
    let (q, _) = p.qualifier()?;
    p.expect_eof()?;
    Ok(q)
}

/// A parsed node with its depth ([`MAX_DEPTH`]).
type Parsed<T> = Result<(T, usize), ParseError>;

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    vocab: &'a Vocabulary,
    /// Open parentheses and brackets around the current position.
    nesting: usize,
    /// By token position, the error of a parenthesized path group that
    /// failed to parse there (empty until one fails). A group parses the
    /// same wherever it is tried from — the open brackets before a
    /// position fix its nesting — so [`Parser::parenthesized`], which tries
    /// each `(` as a path before reading it as a qualifier, never parses
    /// the groups nested in a failed one again: `a[((…(b and c)…))]`
    /// costs linear, not quadratic, time in its depth.
    failed_groups: Vec<Option<ParseError>>,
    /// Path primaries read, memo hits included: the parser's work.
    #[cfg(test)]
    primaries: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &str, vocab: &'a Vocabulary) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
            vocab,
            nesting: 0,
            failed_groups: Vec::new(),
            #[cfg(test)]
            primaries: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected {kind}")))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.unexpected("expected end of input"))
        }
    }

    fn unexpected(&self, what: &str) -> ParseError {
        ParseError::new(format!("{what}, found {}", self.peek()), self.offset())
    }

    /// `depth`, or the error a node that deep gets.
    fn within(&self, depth: usize) -> Result<usize, ParseError> {
        match depth > MAX_DEPTH {
            true => Err(ParseError::new(
                format!("query nests deeper than {MAX_DEPTH} levels"),
                self.offset(),
            )),
            false => Ok(depth),
        }
    }

    /// Enters one more parenthesis or bracket, unless that passes
    /// [`MAX_DEPTH`]; [`Parser::leave`] undoes it, also when what is
    /// inside fails to parse (parsing backtracks).
    fn enter(&mut self) -> Result<(), ParseError> {
        self.nesting = self.within(self.nesting + 1)?;
        Ok(())
    }

    fn leave(&mut self) {
        self.nesting -= 1;
    }

    /// The depth of a compound node over parts of the given depths.
    fn compound(&self, parts: impl IntoIterator<Item = usize>) -> Result<usize, ParseError> {
        self.within(1 + parts.into_iter().max().unwrap_or(0))
    }

    // The functions a nested query recurses through (`union`, `steps`,
    // `item`, `primary`, `qualifier`, `qual_base`, `comparison`,
    // `negation`, `parenthesized`) do little besides the recursive call:
    // the work before and after it is in helpers, whose frames are gone
    // while the parser is deeper in. So each level of nesting costs as
    // little stack as it can, in debug builds too.

    // -- paths -------------------------------------------------------------

    fn union(&mut self) -> Parsed<Path> {
        let mut parts = Vec::new();
        loop {
            parts.push(self.steps(false)?);
            if !self.eat(&TokenKind::Pipe) {
                return self.alternatives(parts);
            }
        }
    }

    fn alternatives(&self, mut parts: Vec<(Path, usize)>) -> Parsed<Path> {
        if parts.len() == 1 {
            return Ok(parts.pop().expect("len checked"));
        }
        let depth = self.compound(parts.iter().map(|&(_, d)| d))?;
        Ok((Path::union(parts.into_iter().map(|(p, _)| p)), depth))
    }

    /// `seq`; with `comparison`, `cmp-path`: stops before a trailing
    /// `/text()` (which signals a comparison) and never consumes `=`.
    fn steps(&mut self, comparison: bool) -> Parsed<Path> {
        let mut parts = Vec::new();
        // Leading '/' (absolute, a no-op from the root context) or '//'.
        self.separator(false, &mut parts)?;
        loop {
            parts.push(self.item()?);
            if !self.separator(comparison, &mut parts)? {
                return self.sequence(parts);
            }
        }
    }

    /// Reads a `/` or a `//` (pushing its `(*)*` step) and tells whether a
    /// step follows. With `comparison`, a `/text()` before `=` ends the
    /// path: text() is not a step of it but a comparison marker, and `=`
    /// is left for [`Parser::comparison`].
    fn separator(
        &mut self,
        comparison: bool,
        parts: &mut Vec<(Path, usize)>,
    ) -> Result<bool, ParseError> {
        if self.eat(&TokenKind::DoubleSlash) {
            parts.push((Path::star(Path::Wildcard), 1));
            return Ok(true);
        }
        if !self.eat(&TokenKind::Slash) {
            return Ok(parts.is_empty());
        }
        if comparison && matches!(self.peek(), TokenKind::TextFn) {
            self.bump();
            if !matches!(self.peek(), TokenKind::Eq) {
                return Err(self.unexpected("expected '=' after text()"));
            }
            return Ok(false);
        }
        Ok(true)
    }

    fn sequence(&self, parts: Vec<(Path, usize)>) -> Parsed<Path> {
        let depth = match parts.len() {
            1 => parts[0].1,
            _ => self.compound(parts.iter().map(|&(_, d)| d))?,
        };
        Ok((Path::seq(parts.into_iter().map(|(p, _)| p)), depth))
    }

    fn item(&mut self) -> Parsed<Path> {
        let mut item = self.primary()?;
        while self.eat(&TokenKind::LBracket) {
            self.enter()?;
            let qualifier = self.qualifier();
            item = self.qualified(item, qualifier)?;
        }
        Ok(item)
    }

    /// `p[q]`, once `q` is read.
    fn qualified(&mut self, (path, depth): (Path, usize), q: Parsed<Qualifier>) -> Parsed<Path> {
        self.leave();
        let (q, qd) = q?;
        self.expect(TokenKind::RBracket)?;
        Ok((Path::qualified(path, q), self.compound([depth, qd])?))
    }

    fn primary(&mut self) -> Parsed<Path> {
        #[cfg(test)]
        {
            self.primaries += 1;
        }
        let at = self.pos;
        if let Some(Some(err)) = self.failed_groups.get(at) {
            return Err(err.clone());
        }
        if !self.eat(&TokenKind::LParen) {
            return self.step();
        }
        self.enter()?;
        let inner = self.union();
        self.group(at, inner)
    }

    /// `(p)` opened at token `at`, once `p` is read, with the Kleene star
    /// that binds only to a parenthesized group; a failure is remembered.
    fn group(&mut self, at: usize, inner: Parsed<Path>) -> Parsed<Path> {
        self.leave();
        let group = inner.and_then(|(path, depth)| {
            self.expect(TokenKind::RParen)?;
            match self.eat(&TokenKind::Star) {
                true => Ok((Path::star(path), self.compound([depth])?)),
                false => Ok((path, depth)),
            }
        });
        if let Err(err) = &group {
            if self.failed_groups.is_empty() {
                self.failed_groups.resize(self.tokens.len(), None);
            }
            self.failed_groups[at] = Some(err.clone());
        }
        group
    }

    /// `NAME | '*' | '.'`.
    fn step(&mut self) -> Parsed<Path> {
        let step = match self.peek() {
            TokenKind::Name(n) => Path::Label(self.vocab.intern(n)),
            TokenKind::Star => Path::Wildcard,
            TokenKind::Dot => Path::Empty,
            _ => return Err(self.unexpected("expected a step")),
        };
        self.bump();
        Ok((step, 0))
    }

    // -- qualifiers ---------------------------------------------------------

    /// `or := and ('or' and)*`, `and := base ('and' base)*`, both left
    /// associative, in one loop: `all` is the conjunction being read,
    /// `any` the disjunction of those finished.
    fn qualifier(&mut self) -> Parsed<Qualifier> {
        let mut any: Option<(Qualifier, usize)> = None;
        let mut all = self.qual_base()?;
        loop {
            if self.eat(&TokenKind::And) {
                let rhs = self.qual_base()?;
                all = self.join(Qualifier::and, all, rhs)?;
            } else if self.eat(&TokenKind::Or) {
                any = Some(match any {
                    None => all,
                    Some(q) => self.join(Qualifier::or, q, all)?,
                });
                all = self.qual_base()?;
            } else {
                return match any {
                    None => Ok(all),
                    Some(q) => self.join(Qualifier::or, q, all),
                };
            }
        }
    }

    /// A binary connective over two parsed qualifiers.
    fn join(
        &self,
        connective: fn(Qualifier, Qualifier) -> Qualifier,
        (a, ad): (Qualifier, usize),
        (b, bd): (Qualifier, usize),
    ) -> Parsed<Qualifier> {
        Ok((connective(a, b), self.compound([ad, bd])?))
    }

    fn qual_base(&mut self) -> Parsed<Qualifier> {
        match self.peek() {
            TokenKind::Not => self.negation(),
            TokenKind::TrueFn | TokenKind::TextFn => self.constant(),
            TokenKind::LParen => self.parenthesized(),
            _ => self.comparison(),
        }
    }

    /// `'not' '(' qual ')'`.
    fn negation(&mut self) -> Parsed<Qualifier> {
        self.bump();
        self.expect(TokenKind::LParen)?;
        self.enter()?;
        let inner = self.qualifier();
        self.negated(inner)
    }

    fn negated(&mut self, inner: Parsed<Qualifier>) -> Parsed<Qualifier> {
        self.leave();
        let (inner, depth) = inner?;
        self.expect(TokenKind::RParen)?;
        Ok((Qualifier::not(inner), self.compound([depth])?))
    }

    /// `'true()'` or `'text()' '=' LIT`.
    fn constant(&mut self) -> Parsed<Qualifier> {
        if self.bump() == TokenKind::TrueFn {
            return Ok((Qualifier::True, 0));
        }
        self.expect(TokenKind::Eq)?;
        let lit = self.literal()?;
        Ok((Qualifier::TextEq(Path::Empty, lit), 0))
    }

    /// Ambiguous: '(path)...' vs '(qual)'. Tries the path route first; on
    /// failure, backtracks and parses a parenthesized qualifier.
    fn parenthesized(&mut self) -> Parsed<Qualifier> {
        let save = self.pos;
        let path_err = match self.comparison() {
            Ok(q) => return Ok(q),
            Err(e) => e,
        };
        self.pos = save;
        self.expect(TokenKind::LParen)?;
        self.enter()?;
        let inner = self.qualifier();
        self.grouped(inner, path_err)
    }

    /// `(q)`, once `q` is read — or the error of whichever route got
    /// further.
    fn grouped(&mut self, inner: Parsed<Qualifier>, path_err: ParseError) -> Parsed<Qualifier> {
        self.leave();
        let inner = inner.map_err(|qual_err| match qual_err.offset() >= path_err.offset() {
            true => qual_err,
            false => path_err,
        })?;
        self.expect(TokenKind::RParen)?;
        Ok(inner)
    }

    /// `cmp-path ['/text()'] ['=' LIT]` — an existence test or a text
    /// comparison on a path.
    fn comparison(&mut self) -> Parsed<Qualifier> {
        let path = self.steps(true)?;
        self.compared(path)
    }

    fn compared(&mut self, (path, depth): (Path, usize)) -> Parsed<Qualifier> {
        if self.eat(&TokenKind::Eq) {
            let lit = self.literal()?;
            return Ok((Qualifier::TextEq(path, lit), depth));
        }
        Ok((Qualifier::Exists(path), depth))
    }

    fn literal(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            TokenKind::Literal(l) => {
                self.bump();
                Ok(l)
            }
            _ => Err(self.unexpected("expected a string literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::Vocabulary;

    fn round_trip(input: &str) -> String {
        let vocab = Vocabulary::new();
        let p = parse_path(input, &vocab).unwrap();
        p.display(&vocab).to_string()
    }

    #[test]
    fn parses_simple_sequence() {
        assert_eq!(round_trip("a/b/c"), "a/b/c");
    }

    #[test]
    fn double_slash_desugars() {
        assert_eq!(round_trip("a//b"), "a/(*)*/b");
        assert_eq!(round_trip("//b"), "(*)*/b");
    }

    #[test]
    fn leading_slash_is_noop() {
        assert_eq!(round_trip("/a/b"), "a/b");
    }

    #[test]
    fn kleene_star_on_groups() {
        assert_eq!(round_trip("(a/b)*/c"), "(a/b)*/c");
        assert_eq!(round_trip("(a | b)*"), "(a | b)*");
    }

    #[test]
    fn star_after_name_is_wildcard_step() {
        // `a/*` is "any child of a", not closure.
        assert_eq!(round_trip("a/*"), "a/*");
    }

    #[test]
    fn union_precedence_below_seq() {
        assert_eq!(round_trip("a/b | c"), "a/b | c");
        assert_eq!(round_trip("(a | b)/c"), "(a | b)/c");
    }

    #[test]
    fn qualifiers_parse() {
        assert_eq!(round_trip("a[b]"), "a[b]");
        assert_eq!(round_trip("a[b and not(c)]"), "a[b and not(c)]");
        assert_eq!(round_trip("a[b or c]/d"), "a[b or c]/d");
        assert_eq!(round_trip("a[text() = 'x']"), "a[text() = 'x']");
        assert_eq!(round_trip("a[b = 'x']"), "a[b = 'x']");
        assert_eq!(round_trip("a[b/text() = 'x']"), "a[b = 'x']");
    }

    #[test]
    fn parenthesized_qualifier_backtracks() {
        assert_eq!(round_trip("a[(b or c) and d]"), "a[(b or c) and d]");
        // Parenthesized *path* also works.
        assert_eq!(round_trip("a[(b/c)*/d]"), "a[(b/c)*/d]");
    }

    #[test]
    fn paper_query_q0_parses() {
        let s = round_trip(
            "hospital/patient[(parent/patient)*/visit/treatment/test and \
             visit/treatment[medication/text() = 'headache']]/pname",
        );
        assert_eq!(
            s,
            "hospital/patient[(parent/patient)*/visit/treatment/test and \
             visit/treatment[medication = 'headache']]/pname"
        );
    }

    #[test]
    fn display_reparses_to_same_ast() {
        let vocab = Vocabulary::new();
        for q in [
            "a/b/c",
            "a//b",
            "(a/b)*/c[d and (e or not(f))]",
            "a[b = 'v' and text() = 'w']/c | d",
            "a/(b | c)/d",
            "(a | (b/c)*)*",
        ] {
            let p1 = parse_path(q, &vocab).unwrap();
            let printed = p1.display(&vocab).to_string();
            let p2 = parse_path(&printed, &vocab).unwrap();
            assert_eq!(p1, p2, "round-trip failed for {q} -> {printed}");
        }
    }

    #[test]
    fn errors_have_positions() {
        let vocab = Vocabulary::new();
        let e = parse_path("a/[b]", &vocab).unwrap_err();
        assert!(e.to_string().contains("offset 2"), "{e}");
        assert!(parse_path("a/b[", &vocab).is_err());
        assert!(parse_path("a ||", &vocab).is_err());
        assert!(parse_path("", &vocab).is_err());
        assert!(parse_path("a)b", &vocab).is_err());
    }

    #[test]
    fn standalone_qualifier_parsing() {
        let vocab = Vocabulary::new();
        let q = parse_qualifier("visit/treatment/medication = 'autism'", &vocab).unwrap();
        match q {
            Qualifier::TextEq(p, v) => {
                assert_eq!(v, "autism");
                assert_eq!(p.size(), 4); // Seq + 3 labels
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_dot_is_empty_path() {
        let vocab = Vocabulary::new();
        assert_eq!(parse_path(".", &vocab).unwrap(), Path::Empty);
    }

    #[test]
    fn nesting_is_bounded() {
        let vocab = Vocabulary::new();
        let nested = |n: usize| format!("a{}{}", "[b".repeat(n), "]".repeat(n));
        let at_limit = parse_path(&nested(MAX_DEPTH), &vocab).unwrap();
        assert!(at_limit.size() > MAX_DEPTH);
        let limit = format!("deeper than {MAX_DEPTH} levels");
        let deep = [
            nested(MAX_DEPTH + 1),
            nested(2_000),
            // Chains the parser builds in loops, and pure parentheses.
            format!("a{}", "[b]".repeat(MAX_DEPTH + 1)),
            format!("a[{}]", vec!["b"; MAX_DEPTH + 2].join(" or ")),
            format!("a[{}]", vec!["b"; MAX_DEPTH + 2].join(" and ")),
            format!(
                "{}a{}",
                "(".repeat(MAX_DEPTH + 1),
                ")".repeat(MAX_DEPTH + 1)
            ),
            format!(
                "a[{}b{}]",
                "not(".repeat(MAX_DEPTH + 1),
                ")".repeat(MAX_DEPTH + 1)
            ),
            format!("a[{}b{}]", "(".repeat(10_000), ")".repeat(10_000)),
        ];
        for q in &deep {
            let e = parse_path(q, &vocab).unwrap_err();
            assert!(e.to_string().contains(&limit), "{e}");
        }
        let e = parse_qualifier(&nested(2_000), &vocab).unwrap_err();
        assert!(e.to_string().contains(&limit), "{e}");
        // Long but flat: sequences and unions are one level each.
        let flat = vec!["b"; 5_000].join("/");
        parse_path(&flat, &vocab).unwrap();
        parse_path(&vec!["b"; 5_000].join(" | "), &vocab).unwrap();
    }

    #[test]
    fn nested_parenthesized_qualifiers_parse_in_linear_work() {
        // Every `(` is first tried as a path group, which fails only at
        // the innermost `and`: the path groups read per query must grow
        // with the depth, not with its square.
        let vocab = Vocabulary::new();
        let primaries = |depth: usize| {
            let q = format!("a[{}b and c{}]", "(".repeat(depth), ")".repeat(depth));
            let mut p = Parser::new(&q, &vocab).unwrap();
            p.union().unwrap();
            p.expect_eof().unwrap();
            p.primaries
        };
        for depth in [1, 10, 100, MAX_DEPTH - 1] {
            let work = primaries(depth);
            assert!(work <= 3 * depth + 8, "depth {depth}: {work} primaries");
        }
        // The same shape under `not` and inside a path group.
        for q in [
            format!("a[not({}b or c{})]", "(".repeat(200), ")".repeat(200)),
            format!("(a[{}b and c{}])*", "(".repeat(200), ")".repeat(200)),
        ] {
            let mut p = Parser::new(&q, &vocab).unwrap();
            p.union().unwrap();
            assert!(
                p.primaries <= 3 * 200 + 8,
                "`{q}`: {} primaries",
                p.primaries
            );
        }
    }
}
