//! Property tests for call-cache keys: a key built where a call stands
//! (`CallKey::for_call`) is the key of the call's copied parameter forest
//! (`CallKey::new`), with and without a pushed query.

use axml_query::{parse_query, EdgeKind};
use axml_services::{CallKey, PushedQuery};
use axml_xml::{Document, NodeId};
use proptest::prelude::*;

/// Label and text material, with characters the serializer escapes.
const WORDS: [&str; 6] = ["name", "x < y", "a & b", "\"q\"", "it's", "plain"];

/// A document built by a script of `(what, where, word)` steps: elements,
/// attributes with escaped values, escaped text and calls, each under an
/// element or a call already built, so calls nest inside parameters.
fn doc_strategy() -> impl Strategy<Value = Document> {
    proptest::collection::vec((0u8..5, 0usize..64, 0usize..WORDS.len()), 1..40).prop_map(|steps| {
        let mut d = Document::with_root("r");
        let mut holders: Vec<NodeId> = vec![d.root()];
        for (what, at, word) in steps {
            let parent = holders[at % holders.len()];
            let word = WORDS[word];
            match what {
                0 => holders.push(d.add_element(parent, format!("e{}", at % 3))),
                1 => {
                    let attr = d.add_element(parent, format!("@k{}", at % 2));
                    d.add_text(attr, word);
                }
                2 => {
                    d.add_text(parent, word);
                }
                _ => holders.push(d.add_call(parent, format!("svc{}", at % 2))),
            }
        }
        d
    })
}

fn pushed(via: EdgeKind) -> PushedQuery {
    PushedQuery {
        pattern: parse_query("/restaurant[rating=\"*****\"][name=$X] -> $X").unwrap(),
        via,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_key_built_in_place_is_the_key_of_the_parameter_forest(d in doc_strategy()) {
        let pushes = [None, Some(pushed(EdgeKind::Child)), Some(pushed(EdgeKind::Descendant))];
        for call in d.calls() {
            let service = d.label(call);
            let params = d.children_to_forest(call);
            for p in &pushes {
                let in_place = CallKey::for_call(service, &d, call, p.as_ref());
                let reference = CallKey::new(service, &params, p.as_ref());
                prop_assert_eq!(in_place, reference);
            }
        }
    }
}
