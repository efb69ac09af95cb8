//! Property tests for call requests and call-cache keys: a request read
//! where a call stands (`CallRequest::of_call`) is the request of the
//! call's copied parameter forest (`CallRequest::of_forest`): the same
//! first text, the same bytes as the forest's serialization, and the same
//! `CallKey`, with and without a pushed query. Every cache key and fault
//! fingerprint rests on this.

use axml_query::{parse_query, EdgeKind};
use axml_services::{CallKey, CallRequest, PushedQuery};
use axml_xml::{to_xml, Document, Forest, NodeId};
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
    // from the default config, so that `PROPTEST_CASES` sets the count
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn a_key_built_in_place_is_the_key_of_the_parameter_forest(d in doc_strategy()) {
        let pushes = [None, Some(pushed(EdgeKind::Child)), Some(pushed(EdgeKind::Descendant))];
        for call in d.calls() {
            let service = d.label(call);
            let mut params = Forest::new();
            for &p in d.children(call) {
                params.append_copy_as_root(&d, p);
            }
            let in_place = CallRequest::of_call(&d, call);
            let copied = CallRequest::of_forest(&params);
            let first = params.roots().first().and_then(|&r| params.text_value(r));
            prop_assert_eq!(in_place.first_text(), first);
            prop_assert_eq!(copied.first_text(), first);
            prop_assert_eq!(in_place.to_xml(), to_xml(&params));
            prop_assert_eq!(copied.to_xml(), to_xml(&params));
            for p in &pushes {
                let reference = CallKey::new(service, &copied, p.as_ref());
                prop_assert_eq!(CallKey::new(service, &in_place, p.as_ref()), reference);
            }
        }
    }
}
