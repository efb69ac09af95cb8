//! Exchanging AXML documents (the closing remark of Section 1: "our
//! technique can be used to evaluate queries on exchanged AXML data").
//!
//! A *sender* completes a document for the recipient's query — invoking
//! only the calls that query needs — then ships the (still partially
//! intensional) document. The *recipient* answers the query by plain
//! snapshot evaluation, with zero service interaction.
//!
//! ```text
//! cargo run --example exchange
//! ```

use activexml::core::{Engine, EngineConfig};
use activexml::gen::scenario::{figure1, figure4_query};
use activexml::query::eval;
use activexml::xml::{parse, to_xml};

fn main() {
    let query = figure4_query();
    let s = figure1();
    let mut doc = s.doc;
    println!(
        "sender holds an AXML document: {} nodes, {} embedded calls",
        doc.len(),
        doc.calls().len()
    );

    // the sender materializes exactly what the recipient's query needs
    let engine = Engine::new(&s.registry, EngineConfig::default()).with_schema(&s.schema);
    let done = engine.complete_for(&mut doc, &query);
    println!(
        "sender completed the document for the query: {} calls invoked, {} still pending",
        done.stats.calls_invoked,
        doc.calls().len()
    );

    // ship it as plain XML text (the calls travel as <axml:call> elements)
    let wire = to_xml(&doc);
    println!("shipped {} bytes", wire.len());

    // the recipient parses and evaluates — no services in sight
    let received = parse(&wire).expect("wire format is well-formed XML");
    let answers = eval(&query, &received);
    println!(
        "\nrecipient evaluates the query offline: {} answers",
        answers.len()
    );
    for tuple in activexml::query::render_result(&received, &answers) {
        println!("  {}", tuple.join(" @ "));
    }

    // the pending calls in the shipped document are exactly the ones the
    // query does not need — another peer with different interests could
    // continue the lazy evaluation from here
    let pending: Vec<String> = received
        .calls()
        .iter()
        .map(|&c| received.call_info(c).unwrap().1.to_string())
        .collect();
    println!("\nstill intensional on the wire: {pending:?}");
}
