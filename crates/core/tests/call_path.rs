//! Both directions of a call across the document boundary. Outbound, a
//! service reads a dispatched call's parameters where they stand, so a
//! parallel batch mate of a cache hit still sees its own parameters.
//! Inbound, the replies every producer in the repository builds are
//! compact, so a splice reads them as they stand and copies none first.

use axml_core::{Engine, EngineConfig};
use axml_gen::feeds::{auction_feed, price_feed, AuctionFeedParams, PriceFeedParams};
use axml_gen::scenario::{figure1, generate, ScenarioParams};
use axml_query::{parse_query, render_result, EdgeKind};
use axml_services::{prune_result, CallRequest, FnService, Registry};
use axml_store::{CacheConfig, CallCache};
use axml_xml::{decode_document, document_to_bytes, parse, Document, Forest};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// `<r>` holding one `echo` call per key, in order.
fn echo_doc(keys: &[&str]) -> Document {
    let mut d = Document::with_root("r");
    for key in keys {
        let c = d.add_call(d.root(), "echo");
        d.add_text(c, *key);
    }
    d
}

#[test]
fn a_batch_mate_of_a_cache_hit_reads_its_own_parameters() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut registry = Registry::new();
    let log = Arc::clone(&seen);
    registry.register(FnService::new("echo", move |req: &CallRequest| {
        let key = req.first_text().unwrap_or("?").to_string();
        let answer = format!("<item><id>echo-{key}</id><key>{key}</key></item>");
        log.lock().unwrap().push(key);
        parse(&answer).unwrap()
    }));
    let query = parse_query("/r/item/id/$I -> $I").unwrap();
    let cache = CallCache::new(CacheConfig::default());
    let engine = Engine::new(&registry, EngineConfig::default()).with_cache(&cache);
    // warm `a` and `c`, then run all four calls as one parallel batch:
    // the hits splice first, and the misses `b` and `d` dispatch after
    engine.evaluate(&mut echo_doc(&["a", "c"]), &query);
    seen.lock().unwrap().clear();
    let keys = ["a", "b", "c", "d"];
    let mut d = echo_doc(&keys);
    let report = engine.evaluate(&mut d, &query);
    assert_eq!(
        (report.stats.cache_hits, report.stats.calls_invoked),
        (2, 2)
    );
    assert_eq!(*seen.lock().unwrap(), ["b", "d"]);
    let answers: BTreeSet<_> = render_result(&d, &report.result).into_iter().collect();
    let mut naive_doc = echo_doc(&keys);
    let naive = Engine::new(&registry, EngineConfig::naive()).evaluate(&mut naive_doc, &query);
    let expected: BTreeSet<_> = render_result(&naive_doc, &naive.result)
        .into_iter()
        .collect();
    assert_eq!(answers, expected);
    assert_eq!(answers.len(), 4);
}

/// Every reply `registry` gives for the calls of `doc` and, recursively,
/// of its intensional replies, each from a request read in place.
fn replies(doc: &Document, registry: &Registry) -> Vec<Arc<Forest>> {
    let mut out: Vec<Arc<Forest>> = Vec::new();
    let mut pending = vec![doc.clone()];
    while let Some(d) = pending.pop() {
        for c in d.calls() {
            let req = CallRequest::of_call(&d, c);
            let reply = registry.invoke_within(d.label(c), &req, None, f64::INFINITY);
            let reply = reply.unwrap().result;
            if !reply.calls().is_empty() {
                pending.push((*reply).clone());
            }
            out.push(reply);
        }
    }
    out
}

#[test]
fn every_producers_replies_splice_as_they_stand() {
    let parsed = parse(
        "<restaurant a=\"1\"><name>Jo</name><axml:call service=\"f\">k</axml:call></restaurant>\
         <restaurant><name>Jo</name><rating>*****</rating></restaurant>",
    )
    .unwrap();
    assert!(parsed.splices_in_place(), "parser");
    let decoded = decode_document(&document_to_bytes(&parsed)).unwrap();
    assert!(decoded.splices_in_place(), "wire decoder");
    let pattern = parse_query("/restaurant[rating=\"*****\"]/name").unwrap();
    for via in [EdgeKind::Child, EdgeKind::Descendant] {
        let pruned = prune_result(&pattern, &parsed, via);
        assert!(!pruned.is_empty());
        assert!(pruned.splices_in_place(), "prune_result");
    }
    let figure = figure1();
    let mut generated = vec![("figure 1", figure.doc, figure.registry)];
    let params = ScenarioParams {
        hotels: 40,
        ..ScenarioParams::default()
    };
    let scenario = generate(&params);
    generated.push(("generated hotels", scenario.doc, scenario.registry));
    let feed = price_feed(&PriceFeedParams::default());
    generated.push(("price feed", feed.doc, feed.registry));
    let feed = auction_feed(&AuctionFeedParams::default());
    generated.push(("auction feed", feed.doc, feed.registry));
    for (name, doc, registry) in &generated {
        let replies = replies(doc, registry);
        assert!(replies.len() > 10, "{name}");
        for reply in replies {
            assert!(
                reply.splices_in_place(),
                "{name}: {}",
                axml_xml::to_xml(&reply)
            );
        }
    }
}
