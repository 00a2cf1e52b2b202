//! Abstract syntax of Regular XPath.
//!
//! Regular XPath (paper §1; Marx \[9\]) is "a mild extension of XPath which
//! supports general Kleene closure `(.)∗` instead of the limited recursion
//! `//`". The downward fragment the paper uses is
//!
//! ```text
//! p ::= ε | A | * | p/p | p ∪ p | (p)* | p[q]
//! q ::= p | p = 'c' | text() = 'c' | ¬q | q ∧ q | q ∨ q | true
//! ```
//!
//! where `A` ranges over element labels and `//` is syntactic sugar for
//! `/(*)*/`. Answers are sets of element nodes in document order.

use smoqe_xml::{Label, Vocabulary};
use std::fmt;

/// A Regular XPath path expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Path {
    /// `ε` (written `.`): stay at the context node.
    Empty,
    /// A child step matching elements with this label.
    Label(Label),
    /// A child step matching any element (`*`).
    Wildcard,
    /// Concatenation `p1/p2/...` (invariant: ≥ 2 items, none of them Seq).
    Seq(Vec<Path>),
    /// Union `p1 ∪ p2 ∪ ...` (invariant: ≥ 2 items, none of them Union).
    Union(Vec<Path>),
    /// General Kleene closure `(p)*`: zero or more repetitions of `p`.
    Star(Box<Path>),
    /// Qualified path `p[q]`: nodes reached via `p` where `q` holds.
    Qualified(Box<Path>, Box<Qualifier>),
}

/// A qualifier (predicate) on a path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Qualifier {
    /// Always true (identity of `and`).
    True,
    /// `[p]`: some node is reachable via `p` from the context node.
    Exists(Path),
    /// `[p = 'c']` / `[p/text() = 'c']`: some node reachable via `p` has
    /// string value `c`. With `p = ε` this is `[text() = 'c']`: the context
    /// node itself has string value `c`.
    TextEq(Path, String),
    /// `not(q)`.
    Not(Box<Qualifier>),
    /// `q1 and q2`.
    And(Box<Qualifier>, Box<Qualifier>),
    /// `q1 or q2`.
    Or(Box<Qualifier>, Box<Qualifier>),
}

impl Path {
    /// Smart constructor for concatenation; flattens nested `Seq` and drops
    /// `ε` units.
    pub fn seq(parts: impl IntoIterator<Item = Path>) -> Path {
        let mut items = Vec::new();
        for p in parts {
            match p {
                Path::Empty => {}
                Path::Seq(inner) => items.extend(inner),
                other => items.push(other),
            }
        }
        match items.len() {
            0 => Path::Empty,
            1 => items.pop().expect("len checked"),
            _ => Path::Seq(items),
        }
    }

    /// Smart constructor for union; flattens nested `Union` and dedups.
    pub fn union(parts: impl IntoIterator<Item = Path>) -> Path {
        let mut items: Vec<Path> = Vec::new();
        for p in parts {
            match p {
                Path::Union(inner) => {
                    for i in inner {
                        if !items.contains(&i) {
                            items.push(i);
                        }
                    }
                }
                other => {
                    if !items.contains(&other) {
                        items.push(other);
                    }
                }
            }
        }
        match items.len() {
            0 => Path::Empty,
            1 => items.pop().expect("len checked"),
            _ => Path::Union(items),
        }
    }

    /// Smart constructor for closure; collapses `(ε)*` and `((p)*)*`.
    pub fn star(p: Path) -> Path {
        match p {
            Path::Empty => Path::Empty,
            s @ Path::Star(_) => s,
            other => Path::Star(Box::new(other)),
        }
    }

    /// Attaches a qualifier (`p[q]`); `[true]` is dropped.
    pub fn qualified(p: Path, q: Qualifier) -> Path {
        if q == Qualifier::True {
            p
        } else {
            Path::Qualified(Box::new(p), Box::new(q))
        }
    }

    /// `p//p'` sugar: `p/(*)*/p'`.
    pub fn descendant(p: Path, rest: Path) -> Path {
        Path::seq([p, Path::star(Path::Wildcard), rest])
    }

    /// `//p` from the context: `(*)*/p`.
    pub fn from_descendant(rest: Path) -> Path {
        Path::seq([Path::star(Path::Wildcard), rest])
    }

    /// Number of AST nodes (paths and qualifiers) — the |Q| of the paper's
    /// complexity statements and experiment E2.
    pub fn size(&self) -> usize {
        match self {
            Path::Empty | Path::Label(_) | Path::Wildcard => 1,
            Path::Seq(ps) | Path::Union(ps) => 1 + ps.iter().map(Path::size).sum::<usize>(),
            Path::Star(p) => 1 + p.size(),
            Path::Qualified(p, q) => 1 + p.size() + q.size(),
        }
    }

    /// Whether the path can match the empty word (reach the context node
    /// itself). Nullable view-specification paths are rejected by the view
    /// well-formedness check (they would make view trees infinite).
    pub fn nullable(&self) -> bool {
        match self {
            Path::Empty => true,
            Path::Label(_) | Path::Wildcard => false,
            Path::Seq(ps) => ps.iter().all(Path::nullable),
            Path::Union(ps) => ps.iter().any(Path::nullable),
            Path::Star(_) => true,
            Path::Qualified(p, _) => p.nullable(),
        }
    }

    /// Whether the path mentions a Kleene closure (including `//` sugar).
    pub fn has_closure(&self) -> bool {
        match self {
            Path::Empty | Path::Label(_) | Path::Wildcard => false,
            Path::Seq(ps) | Path::Union(ps) => ps.iter().any(Path::has_closure),
            Path::Star(_) => true,
            Path::Qualified(p, q) => p.has_closure() || q.has_closure(),
        }
    }

    /// Display adapter rendering parseable concrete syntax.
    pub fn display<'a>(&'a self, vocab: &'a Vocabulary) -> PathDisplay<'a> {
        PathDisplay { path: self, vocab }
    }
}

impl Qualifier {
    /// Smart conjunction; drops `true` units.
    pub fn and(a: Qualifier, b: Qualifier) -> Qualifier {
        match (a, b) {
            (Qualifier::True, q) | (q, Qualifier::True) => q,
            (a, b) => Qualifier::And(Box::new(a), Box::new(b)),
        }
    }

    /// Smart disjunction.
    pub fn or(a: Qualifier, b: Qualifier) -> Qualifier {
        Qualifier::Or(Box::new(a), Box::new(b))
    }

    /// Smart negation; collapses double negation.
    #[allow(clippy::should_implement_trait)] // deliberate constructor name
    pub fn not(q: Qualifier) -> Qualifier {
        match q {
            Qualifier::Not(inner) => *inner,
            other => Qualifier::Not(Box::new(other)),
        }
    }

    /// Number of AST nodes, counting embedded paths.
    pub fn size(&self) -> usize {
        match self {
            Qualifier::True => 1,
            Qualifier::Exists(p) => 1 + p.size(),
            Qualifier::TextEq(p, _) => 1 + p.size(),
            Qualifier::Not(q) => 1 + q.size(),
            Qualifier::And(a, b) | Qualifier::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Whether any embedded path mentions a closure.
    pub fn has_closure(&self) -> bool {
        match self {
            Qualifier::True => false,
            Qualifier::Exists(p) | Qualifier::TextEq(p, _) => p.has_closure(),
            Qualifier::Not(q) => q.has_closure(),
            Qualifier::And(a, b) | Qualifier::Or(a, b) => a.has_closure() || b.has_closure(),
        }
    }

    /// Display adapter rendering parseable concrete syntax.
    pub fn display<'a>(&'a self, vocab: &'a Vocabulary) -> QualifierDisplay<'a> {
        QualifierDisplay { qual: self, vocab }
    }
}

// ---------------------------------------------------------------------------
// Display (parseable concrete syntax)
// ---------------------------------------------------------------------------

/// [`fmt::Display`] adapter for [`Path`].
pub struct PathDisplay<'a> {
    path: &'a Path,
    vocab: &'a Vocabulary,
}

/// [`fmt::Display`] adapter for [`Qualifier`].
pub struct QualifierDisplay<'a> {
    qual: &'a Qualifier,
    vocab: &'a Vocabulary,
}

fn fmt_path(p: &Path, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match p {
        Path::Empty => write!(f, "."),
        Path::Label(l) => write!(f, "{}", vocab.name(*l)),
        Path::Wildcard => write!(f, "*"),
        Path::Seq(ps) => {
            for (i, part) in ps.iter().enumerate() {
                if i > 0 {
                    write!(f, "/")?;
                }
                // Unions need parens inside a sequence.
                if matches!(part, Path::Union(_)) {
                    write!(f, "(")?;
                    fmt_path(part, vocab, f)?;
                    write!(f, ")")?;
                } else {
                    fmt_path(part, vocab, f)?;
                }
            }
            Ok(())
        }
        Path::Union(ps) => {
            for (i, part) in ps.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                fmt_path(part, vocab, f)?;
            }
            Ok(())
        }
        Path::Star(inner) => {
            write!(f, "(")?;
            fmt_path(inner, vocab, f)?;
            write!(f, ")*")
        }
        Path::Qualified(inner, q) => {
            // Sequences/unions need parens so the qualifier binds the whole.
            if matches!(**inner, Path::Seq(_) | Path::Union(_)) {
                write!(f, "(")?;
                fmt_path(inner, vocab, f)?;
                write!(f, ")")?;
            } else {
                fmt_path(inner, vocab, f)?;
            }
            write!(f, "[")?;
            fmt_qual(q, vocab, f)?;
            write!(f, "]")
        }
    }
}

/// Paths at comparison position must parse back via `cmp_seq`, which has no
/// top-level union; parenthesize unions.
fn fmt_cmp_path(p: &Path, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if matches!(p, Path::Union(_)) {
        write!(f, "(")?;
        fmt_path(p, vocab, f)?;
        write!(f, ")")
    } else {
        fmt_path(p, vocab, f)
    }
}

fn fmt_qual(q: &Qualifier, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match q {
        Qualifier::True => write!(f, "true()"),
        Qualifier::Exists(p) => fmt_cmp_path(p, vocab, f),
        Qualifier::TextEq(p, c) => {
            if *p == Path::Empty {
                write!(f, "text() = '{c}'")
            } else {
                fmt_cmp_path(p, vocab, f)?;
                write!(f, " = '{c}'")
            }
        }
        Qualifier::Not(inner) => {
            write!(f, "not(")?;
            fmt_qual(inner, vocab, f)?;
            write!(f, ")")
        }
        Qualifier::And(a, b) => {
            for (i, side) in [a, b].into_iter().enumerate() {
                if i > 0 {
                    write!(f, " and ")?;
                }
                if matches!(**side, Qualifier::Or(_, _)) {
                    write!(f, "(")?;
                    fmt_qual(side, vocab, f)?;
                    write!(f, ")")?;
                } else {
                    fmt_qual(side, vocab, f)?;
                }
            }
            Ok(())
        }
        Qualifier::Or(a, b) => {
            fmt_qual(a, vocab, f)?;
            write!(f, " or ")?;
            fmt_qual(b, vocab, f)
        }
    }
}

impl fmt::Display for PathDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_path(self.path, self.vocab, f)
    }
}

impl fmt::Display for QualifierDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_qual(self.qual, self.vocab, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(vocab: &Vocabulary) -> (Label, Label, Label) {
        (vocab.intern("a"), vocab.intern("b"), vocab.intern("c"))
    }

    #[test]
    fn seq_flattens_and_drops_epsilon() {
        let vocab = Vocabulary::new();
        let (a, b, c) = labels(&vocab);
        let p = Path::seq([
            Path::Label(a),
            Path::Empty,
            Path::seq([Path::Label(b), Path::Label(c)]),
        ]);
        assert_eq!(
            p,
            Path::Seq(vec![Path::Label(a), Path::Label(b), Path::Label(c)])
        );
    }

    #[test]
    fn union_dedups() {
        let vocab = Vocabulary::new();
        let (a, b, _) = labels(&vocab);
        let p = Path::union([Path::Label(a), Path::Label(b), Path::Label(a)]);
        assert_eq!(p, Path::Union(vec![Path::Label(a), Path::Label(b)]));
        assert_eq!(Path::union([Path::Label(a)]), Path::Label(a));
    }

    #[test]
    fn star_collapses() {
        let vocab = Vocabulary::new();
        let (a, _, _) = labels(&vocab);
        assert_eq!(Path::star(Path::Empty), Path::Empty);
        let s = Path::star(Path::Label(a));
        assert_eq!(Path::star(s.clone()), s);
    }

    #[test]
    fn nullable_analysis() {
        let vocab = Vocabulary::new();
        let (a, b, _) = labels(&vocab);
        assert!(Path::Empty.nullable());
        assert!(!Path::Label(a).nullable());
        assert!(Path::star(Path::Label(a)).nullable());
        assert!(Path::union([Path::Label(a), Path::Empty]).nullable());
        assert!(!Path::seq([Path::Label(a), Path::star(Path::Label(b))]).nullable());
    }

    #[test]
    fn size_counts_qualifiers() {
        let vocab = Vocabulary::new();
        let (a, b, _) = labels(&vocab);
        let p = Path::qualified(Path::Label(a), Qualifier::Exists(Path::Label(b)));
        assert_eq!(p.size(), 4); // Qualified + Label + Exists + Label
    }

    #[test]
    fn display_round_understandable() {
        let vocab = Vocabulary::new();
        let (a, b, c) = labels(&vocab);
        let p = Path::seq([
            Path::Label(a),
            Path::qualified(
                Path::Label(b),
                Qualifier::and(
                    Qualifier::Exists(Path::star(Path::seq([Path::Label(c), Path::Label(a)]))),
                    Qualifier::TextEq(Path::Label(c), "v".into()),
                ),
            ),
        ]);
        let s = p.display(&vocab).to_string();
        assert_eq!(s, "a/b[(c/a)* and c = 'v']");
    }

    #[test]
    fn qualified_true_is_dropped() {
        let vocab = Vocabulary::new();
        let (a, _, _) = labels(&vocab);
        assert_eq!(
            Path::qualified(Path::Label(a), Qualifier::True),
            Path::Label(a)
        );
    }

    #[test]
    fn double_negation_collapses() {
        let q = Qualifier::not(Qualifier::not(Qualifier::True));
        assert_eq!(q, Qualifier::True);
    }
}
