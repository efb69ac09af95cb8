//! Seeded random AXML workloads — documents, terminating service
//! registries and queries over a small shared alphabet. Used by the
//! cross-strategy equivalence property tests and by stress benchmarks.
//!
//! Termination is guaranteed by construction: services are stratified by
//! depth, a depth-`d` service only returns calls to depth-`d−1` services,
//! and depth-0 services return pure data.

use axml_query::{EdgeKind, PLabel, PNodeId, Pattern};
use axml_services::{Registry, StaticService};
use axml_xml::{Document, Forest, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for the random workload.
#[derive(Clone, Debug)]
pub struct SyntheticParams {
    /// RNG seed.
    pub seed: u64,
    /// Approximate number of nodes in the initial document.
    pub doc_nodes: usize,
    /// Probability that a generated leaf position holds a service call.
    pub call_probability: f64,
    /// Element alphabet size (labels `e0…`).
    pub alphabet: usize,
    /// Service strata: depth-`d` results may contain depth-`d−1` calls.
    pub service_depth: usize,
    /// Services per stratum.
    pub services_per_depth: usize,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            seed: 7,
            doc_nodes: 120,
            call_probability: 0.25,
            alphabet: 6,
            service_depth: 2,
            services_per_depth: 3,
        }
    }
}

fn svc_name(depth: usize, k: usize) -> String {
    format!("svc{depth}_{k}")
}

/// Generates a document and a registry of terminating services.
pub fn random_workload(params: &SyntheticParams) -> (Document, Registry) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut registry = Registry::new();

    // services, bottom stratum first
    for depth in 0..=params.service_depth {
        for k in 0..params.services_per_depth {
            let mut f = Forest::new();
            let n_roots = 1 + rng.gen_range(0..3);
            for _ in 0..n_roots {
                let root = f.add_root(format!("e{}", rng.gen_range(0..params.alphabet)));
                grow_forest(&mut f, root, depth, params, &mut rng, 3);
            }
            registry.register(StaticService::new(svc_name(depth, k), f));
        }
    }

    let mut doc = Document::with_root("root");
    let root = doc.root();
    let mut budget = params.doc_nodes;
    grow_doc(&mut doc, root, params, &mut rng, &mut budget, 6);
    (doc, registry)
}

fn grow_doc(
    doc: &mut Document,
    at: NodeId,
    params: &SyntheticParams,
    rng: &mut StdRng,
    budget: &mut usize,
    depth: usize,
) {
    if depth == 0 || *budget == 0 {
        return;
    }
    let fanout = 1 + rng.gen_range(0..4);
    for _ in 0..fanout {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        let roll: f64 = rng.gen();
        if roll < params.call_probability {
            let d = rng.gen_range(0..=params.service_depth);
            let k = rng.gen_range(0..params.services_per_depth);
            doc.add_call(at, svc_name(d, k));
        } else if roll < params.call_probability + 0.25 {
            doc.add_text(at, format!("v{}", rng.gen_range(0..5)));
        } else {
            let e = doc.add_element(at, format!("e{}", rng.gen_range(0..params.alphabet)));
            grow_doc(doc, e, params, rng, budget, depth - 1);
        }
    }
}

fn grow_forest(
    f: &mut Forest,
    at: NodeId,
    service_depth: usize,
    params: &SyntheticParams,
    rng: &mut StdRng,
    depth: usize,
) {
    if depth == 0 {
        f.add_text(at, format!("v{}", rng.gen_range(0..5)));
        return;
    }
    let fanout = 1 + rng.gen_range(0..3);
    for _ in 0..fanout {
        let roll: f64 = rng.gen();
        if service_depth > 0 && roll < 0.3 {
            // a nested call one stratum down (termination!)
            let k = rng.gen_range(0..params.services_per_depth);
            f.add_call(at, svc_name(service_depth - 1, k));
        } else if roll < 0.55 {
            f.add_text(at, format!("v{}", rng.gen_range(0..5)));
        } else {
            let e = f.add_element(at, format!("e{}", rng.gen_range(0..params.alphabet)));
            grow_forest(f, e, service_depth, params, rng, depth - 1);
        }
    }
}

/// Generates a random tree-pattern query over the same alphabet, rooted at
/// the synthetic document root.
pub fn random_query(seed: u64, alphabet: usize, max_nodes: usize) -> Pattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pattern::new();
    let root = p.set_root(PLabel::Const("root".into()));
    let mut budget = max_nodes.saturating_sub(1);
    grow_query(&mut p, root, alphabet, &mut rng, &mut budget, 3);
    // result: a random node (prefer a leaf); fall back to the root
    let ids: Vec<PNodeId> = p.node_ids().collect();
    let leaves: Vec<PNodeId> = ids
        .iter()
        .copied()
        .filter(|&i| p.node(i).children.is_empty())
        .collect();
    let pick = if leaves.is_empty() {
        root
    } else {
        leaves[rng.gen_range(0..leaves.len())]
    };
    p.mark_result(pick);
    p
}

fn grow_query(
    p: &mut Pattern,
    at: PNodeId,
    alphabet: usize,
    rng: &mut StdRng,
    budget: &mut usize,
    depth: usize,
) {
    if depth == 0 || *budget == 0 {
        return;
    }
    let fanout = 1 + rng.gen_range(0..2);
    for _ in 0..fanout {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        let edge = if rng.gen_bool(0.35) {
            EdgeKind::Descendant
        } else {
            EdgeKind::Child
        };
        let label = match rng.gen_range(0..10) {
            0 => PLabel::Wildcard,
            1 | 2 => PLabel::Const(format!("v{}", rng.gen_range(0..5)).into()),
            _ => PLabel::Const(format!("e{}", rng.gen_range(0..alphabet)).into()),
        };
        let is_value = matches!(&label, PLabel::Const(l) if l.as_str().starts_with('v'));
        let c = p.add_child(at, edge, label);
        if !is_value {
            grow_query(p, c, alphabet, rng, budget, depth - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_services::CallRequest;

    #[test]
    fn workload_is_deterministic() {
        let p = SyntheticParams::default();
        let (d1, _) = random_workload(&p);
        let (d2, _) = random_workload(&p);
        assert_eq!(axml_xml::to_xml(&d1), axml_xml::to_xml(&d2));
    }

    #[test]
    fn all_doc_services_are_registered_and_terminate() {
        let p = SyntheticParams::default();
        let (mut doc, registry) = random_workload(&p);
        // brute-force full materialization must terminate
        let mut guard = 0;
        loop {
            let calls = doc.calls();
            if calls.is_empty() {
                break;
            }
            guard += 1;
            assert!(guard < 10_000, "materialization did not terminate");
            let c = calls[0];
            let (_, svc) = doc.call_info(c).unwrap();
            assert!(registry.has_service(svc.as_str()));
            let req = CallRequest::of_call(&doc, c);
            let out = registry.invoke_within(svc.as_str(), &req, None, f64::INFINITY);
            let out = out.unwrap();
            doc.splice_call(c, &out.result);
            doc.check_integrity().unwrap();
        }
    }

    #[test]
    fn random_queries_are_well_formed() {
        for seed in 0..20 {
            let q = random_query(seed, 6, 8);
            q.check_integrity().unwrap();
            assert!(!q.result_nodes().is_empty());
            assert!(q.len() <= 8 + 1);
        }
    }
}
