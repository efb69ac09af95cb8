//! Validation of AXML documents against a schema `τ`.
//!
//! An element node is valid when the word of its children's symbols
//! (element name / `data` / function name) belongs to the language of its
//! content model; a function node is valid when its parameter word belongs
//! to the function's input type. This is the typing discipline of
//! Section 2 ("its input must be properly typed … its result is guaranteed
//! to match the out regular expression").

use crate::nfa::Nfa;
use crate::regex::Sym;
use crate::schema::Schema;
use axml_xml::{Document, NodeId, NodeKind};
use std::collections::HashMap;
use std::fmt;

/// A validation problem at a specific node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The root element's label does not match the declared root.
    RootMismatch {
        /// What the schema declares.
        expected: String,
        /// What the document has.
        found: String,
    },
    /// An element label with no declaration.
    UndeclaredElement {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: String,
    },
    /// A call to an undeclared function.
    UndeclaredFunction {
        /// The offending node.
        node: NodeId,
        /// The service name.
        service: String,
    },
    /// An element's children don't match its content model.
    ContentMismatch {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: String,
        /// The children word that was found.
        found: Vec<String>,
    },
    /// A call's parameters don't match the function input type.
    InputMismatch {
        /// The offending call node.
        node: NodeId,
        /// The service name.
        service: String,
        /// The parameter word that was found.
        found: Vec<String>,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::RootMismatch { expected, found } => {
                write!(f, "root element is <{found}>, schema expects <{expected}>")
            }
            ValidationError::UndeclaredElement { label, .. } => {
                write!(f, "undeclared element <{label}>")
            }
            ValidationError::UndeclaredFunction { service, .. } => {
                write!(f, "undeclared function {service}()")
            }
            ValidationError::ContentMismatch { label, found, .. } => {
                write!(
                    f,
                    "content of <{label}> does not match its model: [{}]",
                    found.join(", ")
                )
            }
            ValidationError::InputMismatch { service, found, .. } => {
                write!(
                    f,
                    "parameters of {service}() do not match its input type: [{}]",
                    found.join(", ")
                )
            }
        }
    }
}

/// Validates a document against a schema, returning every problem found.
pub fn validate(doc: &Document, schema: &Schema) -> Vec<ValidationError> {
    let mut errors = Vec::new();
    let mut nfas: HashMap<String, Nfa> = HashMap::new();

    if let Some(root_label) = &schema.root {
        for &r in doc.roots() {
            if doc.is_data(r) && doc.label(r) != root_label.as_str() {
                errors.push(ValidationError::RootMismatch {
                    expected: root_label.to_string(),
                    found: doc.label(r).to_string(),
                });
            }
        }
    }

    for node in doc.all_nodes() {
        match doc.kind(node) {
            NodeKind::Text => {}
            NodeKind::Element => {
                let label = doc.label(node);
                let Some(content) = schema.element(label) else {
                    errors.push(ValidationError::UndeclaredElement {
                        node,
                        label: label.to_string(),
                    });
                    continue;
                };
                let word = child_word(doc, node);
                let nfa = nfas
                    .entry(label.to_string())
                    .or_insert_with(|| Nfa::from_re(content));
                if !nfa.accepts(&word) {
                    errors.push(ValidationError::ContentMismatch {
                        node,
                        label: label.to_string(),
                        found: word.iter().map(|s| s.to_string()).collect(),
                    });
                }
            }
            NodeKind::Call(_) => {
                let service = doc.label(node);
                let Some(sig) = schema.function(service) else {
                    errors.push(ValidationError::UndeclaredFunction {
                        node,
                        service: service.to_string(),
                    });
                    continue;
                };
                let word = child_word(doc, node);
                let key = format!("fn:{service}");
                let nfa = nfas.entry(key).or_insert_with(|| Nfa::from_re(&sig.input));
                if !nfa.accepts(&word) {
                    errors.push(ValidationError::InputMismatch {
                        node,
                        service: service.to_string(),
                        found: word.iter().map(|s| s.to_string()).collect(),
                    });
                }
            }
        }
    }
    errors
}

/// Checks whether a result *forest* is an output instance of the given
/// type: the word of its root symbols must belong to the type's language.
/// (Subtrees are then checked by [`validate`]-style content checks.)
pub fn forest_matches_type(forest: &Document, ty: &crate::regex::LabelRe) -> bool {
    let word: Vec<Sym> = forest
        .roots()
        .iter()
        .map(|&r| node_sym(forest, r))
        .collect();
    Nfa::from_re(ty).accepts(&word)
}

fn node_sym(doc: &Document, n: NodeId) -> Sym {
    match doc.kind(n) {
        NodeKind::Element => Sym::Name(doc.label(n).into()),
        NodeKind::Text => Sym::Data,
        NodeKind::Call(_) => Sym::Name(doc.label(n).into()),
    }
}

fn child_word(doc: &Document, node: NodeId) -> Vec<Sym> {
    doc.children(node)
        .iter()
        .map(|&c| node_sym(doc, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse_re;
    use crate::schema::figure2_schema;
    use axml_xml::parse;

    #[test]
    fn valid_figure1_style_document() {
        let d = parse(
            "<hotels>\
               <hotel><name>BW</name><address>75 2nd Av</address>\
                 <rating>*****</rating>\
                 <nearby><restaurant><name>Jo</name><address>2nd Av</address>\
                   <rating><axml:call service=\"getRating\">Jo</axml:call></rating>\
                 </restaurant>\
                 <axml:call service=\"getNearbyRestos\">2nd Av</axml:call>\
                 <museum><name>MoMA</name><address>53rd St</address></museum></nearby>\
               </hotel>\
               <axml:call service=\"getHotels\">NY</axml:call>\
             </hotels>",
        )
        .unwrap();
        let s = figure2_schema();
        let errors = validate(&d, &s);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn detects_content_mismatch() {
        let d = parse("<hotels><hotel><name>BW</name></hotel></hotels>").unwrap();
        let s = figure2_schema();
        let errors = validate(&d, &s);
        assert!(errors.iter().any(
            |e| matches!(e, ValidationError::ContentMismatch { label, .. } if label == "hotel")
        ));
    }

    #[test]
    fn detects_undeclared_names() {
        let d = parse("<hotels><mystery/></hotels>").unwrap();
        let s = figure2_schema();
        let errors = validate(&d, &s);
        assert!(errors.iter().any(|e| matches!(
            e,
            ValidationError::UndeclaredElement { label, .. } if label == "mystery"
        )));
        // the mystery child also breaks hotels' content model
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::ContentMismatch { .. })));

        let d = parse("<hotels><axml:call service=\"nope\"/></hotels>").unwrap();
        let errors = validate(&d, &s);
        assert!(errors.iter().any(|e| matches!(
            e,
            ValidationError::UndeclaredFunction { service, .. } if service == "nope"
        )));
    }

    #[test]
    fn detects_bad_call_parameters() {
        // getRating expects a single data parameter
        let d =
            parse("<rating><axml:call service=\"getRating\"><x/></axml:call></rating>").unwrap();
        let s = figure2_schema();
        let errors = validate(&d, &s);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::InputMismatch { service, .. } if service == "getRating")));
    }

    #[test]
    fn detects_root_mismatch() {
        let d = parse("<motels/>").unwrap();
        let s = figure2_schema();
        let errors = validate(&d, &s);
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::RootMismatch { .. })));
    }

    #[test]
    fn forest_type_membership() {
        let f =
            parse("<restaurant><name>A</name><address>B</address><rating>*</rating></restaurant>")
                .unwrap();
        assert!(forest_matches_type(&f, &parse_re("restaurant*").unwrap()));
        assert!(!forest_matches_type(&f, &parse_re("museum*").unwrap()));
        let mixed = parse("<a/><b/>").unwrap();
        assert!(forest_matches_type(&mixed, &parse_re("a.b").unwrap()));
        assert!(forest_matches_type(
            &mixed,
            &crate::regex::LabelRe::any_forest()
        ));
    }

    #[test]
    fn error_messages_render() {
        let d = parse("<motels/>").unwrap();
        let s = figure2_schema();
        for e in validate(&d, &s) {
            assert!(!e.to_string().is_empty());
        }
    }
}
