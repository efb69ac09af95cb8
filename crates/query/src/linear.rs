//! Linear paths — the spine abstraction behind LPQs (Section 3.1), the
//! `lin` part of NFQs (Section 4.2), the may-influence test (Prop. 3) and
//! the independence condition (✳) of Section 4.4.

use crate::pattern::{EdgeKind, FunMatch, PLabel, PNodeId, Pattern};
use axml_xml::Label;
use std::fmt;

/// The label test of one linear step.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StepTest {
    /// A concrete label.
    Label(Label),
    /// Any label (`*`, variables).
    Any,
}

/// One step of a linear path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LinStep {
    /// Edge from the previous step.
    pub edge: EdgeKind,
    /// Label test.
    pub test: StepTest,
}

/// A linear path: a sequence of steps from the document root.
///
/// The *language* of a linear path is the set of label words it matches:
/// `/a//b` matches `a.b`, `a.x.b`, `a.x.y.b`, … — this is the regular
/// language used by Proposition 3.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct LinearPath {
    /// Steps in root-to-leaf order.
    pub steps: Vec<LinStep>,
}

impl LinearPath {
    /// The empty path (denotes the document root itself).
    pub fn empty() -> Self {
        LinearPath::default()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the path has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends a step.
    pub fn push(&mut self, edge: EdgeKind, test: StepTest) {
        self.steps.push(LinStep { edge, test });
    }

    /// The concrete labels mentioned along the path (the relevant alphabet
    /// for automata constructions).
    pub fn labels(&self) -> Vec<Label> {
        self.steps
            .iter()
            .filter_map(|s| match &s.test {
                StepTest::Label(l) => Some(l.clone()),
                StepTest::Any => None,
            })
            .collect()
    }

    /// Path from the pattern root down to `v`. With `include_v` the final
    /// step tests `v`'s own label; otherwise the path stops at `v`'s parent
    /// (the paper's `q_v^lin`, which excludes `v`).
    ///
    /// OR nodes are transparent (they never sit on a root path of an
    /// original query); function pattern nodes contribute an `Any` test.
    pub fn to_node(pattern: &Pattern, v: PNodeId, include_v: bool) -> LinearPath {
        let mut chain = Vec::new();
        let mut cur = Some(v);
        while let Some(n) = cur {
            chain.push(n);
            cur = pattern.parent(n);
        }
        chain.reverse();
        let upto = if include_v {
            chain.len()
        } else {
            chain.len().saturating_sub(1)
        };
        let mut path = LinearPath::empty();
        for &n in &chain[..upto] {
            let node = pattern.node(n);
            let test = match &node.label {
                PLabel::Const(l) => StepTest::Label(l.clone()),
                PLabel::Var(_) | PLabel::Wildcard | PLabel::Fun(_) => StepTest::Any,
                PLabel::Or => continue, // transparent
            };
            let edge = if pattern.parent(n).is_none() {
                EdgeKind::Child
            } else {
                node.edge
            };
            path.push(edge, test);
        }
        path
    }

    /// Builds the LPQ pattern for this path: the path's steps followed by a
    /// star-labeled function node as the output (Section 3.1). When the
    /// path is empty the LPQ is a root-level function node.
    pub fn to_lpq(&self, final_edge: EdgeKind) -> Pattern {
        let mut p = Pattern::new();
        let mut cur: Option<PNodeId> = None;
        for s in &self.steps {
            let label = match &s.test {
                StepTest::Label(l) => PLabel::Const(l.clone()),
                StepTest::Any => PLabel::Wildcard,
            };
            cur = Some(match cur {
                None => {
                    if s.edge == EdgeKind::Descendant {
                        let r = p.set_root(PLabel::Wildcard);
                        p.add_child(r, EdgeKind::Descendant, label)
                    } else {
                        p.set_root(label)
                    }
                }
                Some(c) => p.add_child(c, s.edge, label),
            });
        }
        let f = match cur {
            None => p.set_root(PLabel::Fun(FunMatch::Any)),
            Some(c) => p.add_child(c, final_edge, PLabel::Fun(FunMatch::Any)),
        };
        p.mark_result(f);
        p
    }

    /// Whether this path matches a concrete word of labels (used in tests
    /// as the reference semantics for the automata in `axml-schema` and
    /// for the function-call guide's class verdicts in `axml-core`).
    pub fn matches_word(&self, word: &[&str]) -> bool {
        fn go(steps: &[LinStep], word: &[&str]) -> bool {
            match steps.first() {
                None => word.is_empty(),
                Some(s) => {
                    let test_ok = |w: &str| match &s.test {
                        StepTest::Label(l) => l.as_str() == w,
                        StepTest::Any => true,
                    };
                    match s.edge {
                        EdgeKind::Child => {
                            !word.is_empty() && test_ok(word[0]) && go(&steps[1..], &word[1..])
                        }
                        EdgeKind::Descendant => (1..=word.len())
                            .any(|k| test_ok(word[k - 1]) && go(&steps[1..], &word[k..])),
                    }
                }
            }
        }
        go(&self.steps, word)
    }
}

impl fmt::Display for LinearPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "/");
        }
        for s in &self.steps {
            match s.edge {
                EdgeKind::Child => write!(f, "/")?,
                EdgeKind::Descendant => write!(f, "//")?,
            }
            match &s.test {
                StepTest::Label(l) => write!(f, "{l}")?,
                StepTest::Any => write!(f, "*")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn root_path_extraction() {
        let q = parse_query("/hotels/hotel/nearby//restaurant/name").unwrap();
        let name = q.result_nodes()[0];
        let with = LinearPath::to_node(&q, name, true);
        assert_eq!(with.to_string(), "/hotels/hotel/nearby//restaurant/name");
        let without = LinearPath::to_node(&q, name, false);
        assert_eq!(without.to_string(), "/hotels/hotel/nearby//restaurant");
    }

    #[test]
    fn variables_and_wildcards_become_any() {
        let q = parse_query("/a/*/b[c=$X] -> $X").unwrap();
        let x = q.result_nodes()[0];
        let p = LinearPath::to_node(&q, x, true);
        assert_eq!(p.to_string(), "/a/*/b/c/*");
    }

    #[test]
    fn lpq_construction() {
        let q = parse_query("/hotels/hotel").unwrap();
        let hotel = q.result_nodes()[0];
        let lin = LinearPath::to_node(&q, hotel, false);
        let lpq = lin.to_lpq(EdgeKind::Child);
        // /hotels/()
        assert_eq!(lpq.len(), 2);
        let out = lpq.result_nodes()[0];
        assert!(matches!(lpq.node(out).label, PLabel::Fun(FunMatch::Any)));
    }

    #[test]
    fn empty_path_lpq_is_root_function() {
        let lpq = LinearPath::empty().to_lpq(EdgeKind::Child);
        assert_eq!(lpq.len(), 1);
        assert!(matches!(
            lpq.node(lpq.root()).label,
            PLabel::Fun(FunMatch::Any)
        ));
    }

    #[test]
    fn word_matching_reference_semantics() {
        let q = parse_query("/a//b/c").unwrap();
        let c = q.result_nodes()[0];
        let p = LinearPath::to_node(&q, c, true);
        assert!(p.matches_word(&["a", "b", "c"]));
        assert!(p.matches_word(&["a", "x", "y", "b", "c"]));
        assert!(!p.matches_word(&["a", "c"]));
        assert!(!p.matches_word(&["a", "b", "c", "d"]));
        assert!(!p.matches_word(&[]));
    }

    #[test]
    fn descendant_step_requires_at_least_one_label() {
        let q = parse_query("/a//b").unwrap();
        let b = q.result_nodes()[0];
        let p = LinearPath::to_node(&q, b, true);
        assert!(!p.matches_word(&["a"]));
        assert!(p.matches_word(&["a", "b"]));
    }
}
