//! Regular expressions over node labels — the building block of the
//! DTD-like schemas of Figure 2 (function input/output types and element
//! content models).
//!
//! The alphabet is the set of element/function names plus the special
//! `data` symbol (a data-value child). The expression `any` denotes any
//! single symbol and `any*` (written `any*` or used as an output type)
//! stands for the unconstrained type of Section 3.

use axml_xml::Label;
use std::fmt;

/// A symbol of the content alphabet: what one child of a node can be.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sym {
    /// An element (or, inside schemas, a function) name.
    Name(Label),
    /// A data value child (the `data` keyword).
    Data,
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Name(l) => write!(f, "{l}"),
            Sym::Data => write!(f, "data"),
        }
    }
}

/// A regular expression over label symbols.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LabelRe {
    /// The empty language.
    Empty,
    /// The empty word.
    Epsilon,
    /// A single `data` child.
    Data,
    /// Any single symbol (element name, function name or data).
    Any,
    /// A single child with the given name.
    Sym(Label),
    /// Concatenation.
    Seq(Vec<LabelRe>),
    /// Alternation.
    Alt(Vec<LabelRe>),
    /// Kleene star.
    Star(Box<LabelRe>),
    /// One or more.
    Plus(Box<LabelRe>),
    /// Zero or one.
    Opt(Box<LabelRe>),
}

impl LabelRe {
    /// A symbol expression.
    pub fn sym(name: impl Into<Label>) -> Self {
        LabelRe::Sym(name.into())
    }

    /// Concatenation helper.
    pub fn seq(parts: Vec<LabelRe>) -> Self {
        match parts.len() {
            0 => LabelRe::Epsilon,
            1 => parts.into_iter().next().unwrap(),
            _ => LabelRe::Seq(parts),
        }
    }

    /// Alternation helper.
    pub fn alt(parts: Vec<LabelRe>) -> Self {
        match parts.len() {
            0 => LabelRe::Empty,
            1 => parts.into_iter().next().unwrap(),
            _ => LabelRe::Alt(parts),
        }
    }

    /// `re*`
    pub fn star(self) -> Self {
        LabelRe::Star(Box::new(self))
    }

    /// `re+`
    pub fn plus(self) -> Self {
        LabelRe::Plus(Box::new(self))
    }

    /// `re?`
    pub fn opt(self) -> Self {
        LabelRe::Opt(Box::new(self))
    }

    /// The unconstrained type `any*` (Section 3 assumes it for all
    /// functions before typing is introduced).
    pub fn any_forest() -> Self {
        LabelRe::Star(Box::new(LabelRe::Any))
    }

    /// Whether ε ∈ L(self).
    pub fn nullable(&self) -> bool {
        match self {
            LabelRe::Empty | LabelRe::Data | LabelRe::Any | LabelRe::Sym(_) => false,
            LabelRe::Epsilon => true,
            LabelRe::Seq(parts) => parts.iter().all(|p| p.nullable()),
            LabelRe::Alt(parts) => parts.iter().any(|p| p.nullable()),
            LabelRe::Star(_) | LabelRe::Opt(_) => true,
            LabelRe::Plus(p) => p.nullable(),
        }
    }

    /// All names syntactically occurring in the expression.
    pub fn names(&self) -> Vec<Label> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_names(&self, out: &mut Vec<Label>) {
        match self {
            LabelRe::Sym(l) => out.push(l.clone()),
            LabelRe::Seq(ps) | LabelRe::Alt(ps) => {
                for p in ps {
                    p.collect_names(out);
                }
            }
            LabelRe::Star(p) | LabelRe::Plus(p) | LabelRe::Opt(p) => p.collect_names(out),
            _ => {}
        }
    }

    /// The symbols that occur in at least one word of the language
    /// (syntactic occurrence pruned of `Empty` branches). `None` in the
    /// data slot means `data` cannot occur; the boolean reports whether
    /// `Any` occurs (wildcard position).
    pub fn occurring(&self) -> Occurring {
        match self {
            LabelRe::Empty | LabelRe::Epsilon => Occurring::default(),
            LabelRe::Data => Occurring {
                data: true,
                ..Default::default()
            },
            LabelRe::Any => Occurring {
                any: true,
                ..Default::default()
            },
            LabelRe::Sym(l) => Occurring {
                names: vec![l.clone()],
                ..Default::default()
            },
            LabelRe::Seq(ps) => {
                // a symbol occurs in some word of a concatenation iff every
                // factor has a nonempty language and the symbol occurs in
                // some factor
                if ps.iter().any(|p| p.language_empty()) {
                    Occurring::default()
                } else {
                    ps.iter()
                        .map(|p| p.occurring())
                        .fold(Occurring::default(), Occurring::union)
                }
            }
            LabelRe::Alt(ps) => ps
                .iter()
                .map(|p| p.occurring())
                .fold(Occurring::default(), Occurring::union),
            LabelRe::Star(p) | LabelRe::Plus(p) | LabelRe::Opt(p) => p.occurring(),
        }
    }

    /// Whether L(self) = ∅.
    pub fn language_empty(&self) -> bool {
        match self {
            LabelRe::Empty => true,
            LabelRe::Epsilon | LabelRe::Data | LabelRe::Any | LabelRe::Sym(_) => false,
            LabelRe::Seq(ps) => ps.iter().any(|p| p.language_empty()),
            LabelRe::Alt(ps) => ps.iter().all(|p| p.language_empty()),
            LabelRe::Star(_) | LabelRe::Opt(_) => false, // contain ε
            LabelRe::Plus(p) => p.language_empty(),
        }
    }

    /// Reference membership test by structural recursion (used to validate
    /// the NFA translation in tests; exponential, test-only quality).
    pub fn matches(&self, word: &[Sym]) -> bool {
        match self {
            LabelRe::Empty => false,
            LabelRe::Epsilon => word.is_empty(),
            LabelRe::Data => word.len() == 1 && word[0] == Sym::Data,
            LabelRe::Any => word.len() == 1,
            LabelRe::Sym(l) => word.len() == 1 && matches!(&word[0], Sym::Name(n) if n == l),
            LabelRe::Seq(ps) => match ps.split_first() {
                None => word.is_empty(),
                Some((h, t)) => (0..=word.len())
                    .any(|k| h.matches(&word[..k]) && LabelRe::Seq(t.to_vec()).matches(&word[k..])),
            },
            LabelRe::Alt(ps) => ps.iter().any(|p| p.matches(word)),
            LabelRe::Star(p) => {
                word.is_empty()
                    || (1..=word.len()).any(|k| p.matches(&word[..k]) && self.matches(&word[k..]))
            }
            // p+ = p · p*; the first factor may itself match ε (e.g. ε+)
            LabelRe::Plus(p) => (0..=word.len())
                .any(|k| p.matches(&word[..k]) && LabelRe::Star(p.clone()).matches(&word[k..])),
            LabelRe::Opt(p) => word.is_empty() || p.matches(word),
        }
    }
}

/// Which symbols occur in some word of a language (see
/// [`LabelRe::occurring`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Occurring {
    /// Concrete names occurring.
    pub names: Vec<Label>,
    /// Whether `data` occurs.
    pub data: bool,
    /// Whether the wildcard `any` occurs.
    pub any: bool,
}

impl Occurring {
    fn union(mut self, other: Occurring) -> Occurring {
        self.names.extend(other.names);
        self.names.sort();
        self.names.dedup();
        self.data |= other.data;
        self.any |= other.any;
        self
    }
}

impl fmt::Display for LabelRe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelRe::Empty => write!(f, "∅"),
            LabelRe::Epsilon => write!(f, "ε"),
            LabelRe::Data => write!(f, "data"),
            LabelRe::Any => write!(f, "any"),
            LabelRe::Sym(l) => write!(f, "{l}"),
            LabelRe::Seq(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("{p}")).collect();
                write!(f, "{}", parts.join("."))
            }
            LabelRe::Alt(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("{p}")).collect();
                write!(f, "({})", parts.join(" | "))
            }
            LabelRe::Star(p) => write!(f, "{}*", paren(p)),
            LabelRe::Plus(p) => write!(f, "{}+", paren(p)),
            LabelRe::Opt(p) => write!(f, "{}?", paren(p)),
        }
    }
}

fn paren(p: &LabelRe) -> String {
    match p {
        LabelRe::Seq(_) => format!("({p})"),
        _ => format!("{p}"),
    }
}

/// Parses the DTD-like regex syntax of Figure 2:
/// `name.address.rating`, `(restaurant | getNearbyRestos)*`, `data`,
/// `hotel*`, `rating?`, `any*`, `()` for ε.
pub fn parse_re(input: &str) -> Result<LabelRe, String> {
    let mut p = ReParser {
        s: input.as_bytes(),
        src: input,
        pos: 0,
    };
    let re = p.alt()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(format!(
            "trailing input at byte {} in regex {input:?}",
            p.pos
        ));
    }
    Ok(re)
}

struct ReParser<'a> {
    s: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl<'a> ReParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn alt(&mut self) -> Result<LabelRe, String> {
        let mut parts = vec![self.seq()?];
        loop {
            self.skip_ws();
            if self.pos < self.s.len() && self.s[self.pos] == b'|' {
                self.pos += 1;
                parts.push(self.seq()?);
            } else {
                break;
            }
        }
        Ok(LabelRe::alt(parts))
    }

    fn seq(&mut self) -> Result<LabelRe, String> {
        let mut parts = vec![self.postfix()?];
        loop {
            self.skip_ws();
            if self.pos < self.s.len() && self.s[self.pos] == b'.' {
                self.pos += 1;
                parts.push(self.postfix()?);
            } else {
                break;
            }
        }
        Ok(LabelRe::seq(parts))
    }

    fn postfix(&mut self) -> Result<LabelRe, String> {
        let mut base = self.atom()?;
        loop {
            self.skip_ws();
            match self.s.get(self.pos) {
                Some(b'*') => {
                    base = base.star();
                    self.pos += 1;
                }
                Some(b'+') => {
                    base = base.plus();
                    self.pos += 1;
                }
                Some(b'?') => {
                    base = base.opt();
                    self.pos += 1;
                }
                _ => return Ok(base),
            }
        }
    }

    fn atom(&mut self) -> Result<LabelRe, String> {
        self.skip_ws();
        match self.s.get(self.pos) {
            Some(b'(') => {
                self.pos += 1;
                self.skip_ws();
                if self.s.get(self.pos) == Some(&b')') {
                    self.pos += 1;
                    return Ok(LabelRe::Epsilon);
                }
                let inner = self.alt()?;
                self.skip_ws();
                if self.s.get(self.pos) == Some(&b')') {
                    self.pos += 1;
                    Ok(inner)
                } else {
                    Err(format!(
                        "expected ')' at byte {} in {:?}",
                        self.pos, self.src
                    ))
                }
            }
            Some(c) if c.is_ascii_alphanumeric() || *c == b'_' || *c == b'@' => {
                let start = self.pos;
                while self.pos < self.s.len()
                    && (self.s[self.pos].is_ascii_alphanumeric()
                        || matches!(self.s[self.pos], b'_' | b'-' | b'@'))
                {
                    self.pos += 1;
                }
                let name = &self.src[start..self.pos];
                Ok(match name {
                    "data" => LabelRe::Data,
                    "any" => LabelRe::Any,
                    _ => LabelRe::sym(name),
                })
            }
            _ => Err(format!(
                "expected a name, 'data', 'any' or '(' at byte {} in {:?}",
                self.pos, self.src
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Sym {
        Sym::Name(s.into())
    }

    #[test]
    fn parse_fig2_expressions() {
        let re = parse_re("name.address.rating.nearby").unwrap();
        assert!(re.matches(&[n("name"), n("address"), n("rating"), n("nearby")]));
        assert!(!re.matches(&[n("name"), n("address")]));

        let re = parse_re("(restaurant | getNearbyRestos)*.(museum | getNearbyMuseums)*").unwrap();
        assert!(re.matches(&[]));
        assert!(re.matches(&[n("restaurant"), n("restaurant"), n("museum")]));
        assert!(re.matches(&[n("getNearbyRestos"), n("museum")]));
        assert!(!re.matches(&[n("museum"), n("restaurant")]));

        let re = parse_re("(data | getRating)").unwrap();
        assert!(re.matches(&[Sym::Data]));
        assert!(re.matches(&[n("getRating")]));
        assert!(!re.matches(&[Sym::Data, Sym::Data]));
    }

    #[test]
    fn parse_postfix_operators() {
        let re = parse_re("hotel*").unwrap();
        assert!(re.matches(&[]));
        assert!(re.matches(&[n("hotel"), n("hotel")]));
        let re = parse_re("hotel+").unwrap();
        assert!(!re.matches(&[]));
        assert!(re.matches(&[n("hotel")]));
        let re = parse_re("hotel?").unwrap();
        assert!(re.matches(&[]));
        assert!(!re.matches(&[n("hotel"), n("hotel")]));
    }

    #[test]
    fn any_matches_any_single_symbol() {
        let re = parse_re("any*").unwrap();
        assert!(re.matches(&[n("x"), Sym::Data, n("y")]));
    }

    #[test]
    fn epsilon_and_errors() {
        assert_eq!(parse_re("()").unwrap(), LabelRe::Epsilon);
        assert!(parse_re("").is_err());
        assert!(parse_re("(a").is_err());
        assert!(parse_re("a trailing").is_err());
        assert!(parse_re("|a").is_err());
    }

    #[test]
    fn nullable_and_empty() {
        assert!(parse_re("a*").unwrap().nullable());
        assert!(!parse_re("a.b").unwrap().nullable());
        assert!(parse_re("a? . b?").unwrap().nullable());
        assert!(!LabelRe::Empty.nullable());
        assert!(LabelRe::Empty.language_empty());
        assert!(!parse_re("a|b").unwrap().language_empty());
        assert!(LabelRe::Seq(vec![LabelRe::Empty, LabelRe::Epsilon]).language_empty());
    }

    #[test]
    fn occurring_symbols() {
        let re = parse_re("(a | b).c*.data").unwrap();
        let occ = re.occurring();
        assert_eq!(
            occ.names,
            vec![Label::from("a"), Label::from("b"), Label::from("c")]
        );
        assert!(occ.data);
        assert!(!occ.any);
        // symbols in a dead branch don't occur
        let dead = LabelRe::Seq(vec![LabelRe::Empty, LabelRe::sym("ghost")]);
        assert!(dead.occurring().names.is_empty());
    }

    #[test]
    fn display_roundtrips_through_parser() {
        for src in [
            "name.address.rating",
            "(a | b)*",
            "data",
            "any*",
            "(a.b)?",
            "a+.b?",
        ] {
            let re = parse_re(src).unwrap();
            let re2 = parse_re(&re.to_string()).unwrap();
            assert_eq!(re, re2, "{src} -> {re}");
        }
    }

    use axml_xml::Label;
}
