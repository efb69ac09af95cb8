//! Test support shared with the engine's differential typing tests:
//! random small schemas, the queries asked of them, and the reference §5
//! checker.

#![allow(dead_code)]

pub mod reference;

use proptest::prelude::*;

/// Random small schemas: 3 elements, 2 functions over them.
pub fn schema_strategy() -> impl Strategy<Value = String> {
    let content = prop_oneof![
        Just("data"),
        Just("e0"),
        Just("e1?"),
        Just("(e0 | e1)"),
        Just("(e0 | f0)*"),
        Just("e0.e1"),
        Just("(data | f1)"),
        Just("e2*"),
    ];
    let out = prop_oneof![
        Just("data"),
        Just("e0*"),
        Just("(e1 | e2)"),
        Just("e2.e2"),
        Just("f1?"),
        Just("any*"),
    ];
    (
        proptest::collection::vec(content, 3),
        proptest::collection::vec(out, 2),
    )
        .prop_map(|(cs, os)| {
            let mut text = String::new();
            for (i, c) in cs.iter().enumerate() {
                text.push_str(&format!("element e{i} = {c}\n"));
            }
            for (i, o) in os.iter().enumerate() {
                text.push_str(&format!("function f{i} = in: data, out: {o}\n"));
            }
            text
        })
}

/// The queries asked of every random schema.
pub const SCHEMA_QUERIES: [&str; 6] = [
    "/e0",
    "/e0[e1]",
    "/e1/\"v\"",
    "/e2[e0][e1]",
    "/e0//data0",
    "/e0/e1[e2=\"x\"]",
];
