//! The two lifetime assumptions behind the function-call guide (§6.2): a
//! call's visibility and its parent path's class are computed once per
//! call, when the document allocates it, and a query's verdicts on those
//! classes are recomputed once a label the query names is first interned.

use axml_core::{Engine, EngineConfig, EvalReport};
use axml_obs::{EventKind, RingSink};
use axml_query::{parse_query, render_result};
use axml_services::{Registry, StaticService};
use axml_xml::{parse, Document};
use std::collections::BTreeSet;

/// Configurations whose detection takes its positional candidates from
/// the guide: the default, sequential NFQA, and the LPQ and top-down
/// baselines.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("default", EngineConfig::default()),
        ("nfq-plain", EngineConfig::nfq_plain()),
        ("lpq", EngineConfig::lpq()),
        ("topdown", EngineConfig::top_down()),
    ]
}

fn registry(services: &[(&str, &str)]) -> Registry {
    let mut r = Registry::new();
    for &(name, result) in services {
        r.register(StaticService::new(name, parse(result).unwrap()));
    }
    r
}

/// Runs `query` on a copy of `doc`; returns the report, its answers and
/// the services named by every round's candidate set.
fn run(
    doc: &Document,
    registry: &Registry,
    query: &str,
    config: EngineConfig,
) -> (EvalReport, BTreeSet<Vec<String>>, BTreeSet<String>) {
    let mut d = doc.clone();
    let ring = RingSink::unbounded();
    let report = Engine::new(registry, config)
        .with_observer(&ring)
        .evaluate(&mut d, &parse_query(query).unwrap());
    let answers = render_result(&d, &report.result).into_iter().collect();
    let candidates = ring
        .events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::Candidates { services, .. } => Some(services),
            _ => None,
        })
        .flatten()
        .collect();
    (report, answers, candidates)
}

#[test]
fn calls_inside_parameters_are_never_candidates() {
    // `g` sits at a path `//rating` accepts (hotels.hotel.rating.f.rating),
    // but inside `f`'s parameters: query navigation never reaches it, and
    // splicing `f` discards it
    let doc = parse(
        "<hotels><hotel><rating><axml:call service=\"f\">\
           <rating><axml:call service=\"g\"/></rating>\
         </axml:call></rating></hotel></hotels>",
    )
    .unwrap();
    let services = registry(&[("f", "<stars>*****</stars>"), ("g", "<stars>**</stars>")]);
    for (name, config) in configs() {
        let (report, answers, candidates) = run(&doc, &services, "//rating/$R -> $R", config);
        assert!(report.complete, "{name}");
        assert_eq!(
            candidates,
            BTreeSet::from(["f".to_string()]),
            "{name}: only the visible call is ever a candidate"
        );
        assert_eq!(report.stats.invoked_by_service.get("g"), None, "{name}");
        assert_eq!(
            answers,
            BTreeSet::from([vec!["stars".to_string()]]),
            "{name}"
        );
    }
}

#[test]
fn labels_first_interned_by_a_splice_anchor_candidates() {
    // the document has no `spa` or `pool` element: both labels enter its
    // symbol table with `getAmenities`' result, together with the call
    // that only the `$D` NFQ (position /hotels/hotel/spa/pool) retrieves
    let doc =
        parse("<hotels><hotel><axml:call service=\"getAmenities\"/></hotel></hotels>").unwrap();
    let services = registry(&[
        (
            "getAmenities",
            "<spa><pool><axml:call service=\"getDepth\"/></pool></spa>",
        ),
        ("getDepth", "<deep/>"),
    ]);
    for (name, config) in configs() {
        let (report, answers, candidates) =
            run(&doc, &services, "/hotels/hotel/spa/pool/$D -> $D", config);
        assert!(report.complete, "{name}");
        assert!(candidates.contains("getDepth"), "{name}: {candidates:?}");
        assert_eq!(report.stats.calls_invoked, 2, "{name}");
        assert_eq!(
            answers,
            BTreeSet::from([vec!["deep".to_string()]]),
            "{name}"
        );
    }
}
