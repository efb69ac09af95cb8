//! Schema-driven random instance generation: derive random valid AXML
//! documents (and service registries answering their calls) from a schema
//! `τ`. Powers schema-round-trip property tests and arbitrary-schema
//! stress workloads.

use axml_schema::{LabelRe, Schema};
use axml_services::{Registry, StaticService};
use axml_xml::{Document, Forest, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs of the schema-driven generator.
#[derive(Clone, Debug)]
pub struct InstanceParams {
    /// RNG seed.
    pub seed: u64,
    /// Maximum element nesting (recursion in the schema is cut here by
    /// preferring ε/shorter alternatives).
    pub max_depth: usize,
    /// Maximum repetitions sampled for `*` / `+`.
    pub max_star: usize,
    /// Probability of keeping a function position as an embedded call
    /// (vs. not emitting it when optional).
    pub call_probability: f64,
}

impl Default for InstanceParams {
    fn default() -> Self {
        InstanceParams {
            seed: 5,
            max_depth: 8,
            max_star: 3,
            call_probability: 0.6,
        }
    }
}

/// Generates a random instance of the schema rooted at `root_label`,
/// together with a registry whose services answer every call the document
/// (and the services' own results, recursively) can make. Results are
/// themselves schema-derived, with depth shrinking so everything
/// terminates.
pub fn random_instance(
    schema: &Schema,
    root_label: &str,
    params: &InstanceParams,
) -> (Document, Registry) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut doc = Document::with_root(root_label);
    let root = doc.root();
    grow_element(
        schema,
        &mut doc,
        root,
        root_label,
        params,
        &mut rng,
        params.max_depth,
    );

    // services: one static result per declared function, derived from its
    // output type at reduced depth (so nested calls bottom out)
    let mut registry = Registry::new();
    for sig in schema.functions() {
        let mut f = Forest::new();
        let word = sample_word(schema, &sig.output, params, &mut rng, params.max_depth / 2);
        for sym in word {
            emit_symbol(
                schema,
                &mut f,
                None,
                &sym,
                params,
                &mut rng,
                params.max_depth / 2,
            );
        }
        registry.register(StaticService::new(sig.name.as_str(), f));
    }
    (doc, registry)
}

/// A sampled content symbol.
#[derive(Clone, Debug)]
enum SymChoice {
    Elem(String),
    Fun(String),
    Data,
}

fn grow_element(
    schema: &Schema,
    doc: &mut Document,
    node: NodeId,
    label: &str,
    params: &InstanceParams,
    rng: &mut StdRng,
    depth: usize,
) {
    let Some(content) = schema.element(label) else {
        return; // undeclared: leave empty
    };
    let content = content.clone();
    for sym in sample_word(schema, &content, params, rng, depth) {
        emit_symbol(schema, doc, Some(node), &sym, params, rng, depth);
    }
}

fn emit_symbol(
    schema: &Schema,
    doc: &mut Document,
    parent: Option<NodeId>,
    sym: &SymChoice,
    params: &InstanceParams,
    rng: &mut StdRng,
    depth: usize,
) {
    match sym {
        SymChoice::Data => {
            let value = format!("v{}", rng.gen_range(0..100));
            match parent {
                Some(p) => {
                    doc.add_text(p, value);
                }
                None => {
                    doc.add_root_text(value);
                }
            }
        }
        SymChoice::Fun(name) => {
            let call = match parent {
                Some(p) => doc.add_call(p, name.as_str()),
                None => doc.add_root_call(name.as_str()),
            };
            // parameters sampled from the input type, data-only depth
            if let Some(sig) = schema.function(name) {
                let input = sig.input.clone();
                for psym in sample_word(schema, &input, params, rng, 1) {
                    if let SymChoice::Data = psym {
                        doc.add_text(call, format!("p{}", rng.gen_range(0..100)));
                    }
                }
            }
        }
        SymChoice::Elem(name) => {
            let e = match parent {
                Some(p) => doc.add_element(p, name.as_str()),
                None => doc.add_root(name.as_str()),
            };
            if depth > 0 {
                grow_element(schema, doc, e, name, params, rng, depth - 1);
            }
        }
    }
}

/// Samples one word of `re`'s language (bounded repetitions; at depth 0,
/// nullable expressions collapse to ε so recursion terminates).
fn sample_word(
    schema: &Schema,
    re: &LabelRe,
    params: &InstanceParams,
    rng: &mut StdRng,
    depth: usize,
) -> Vec<SymChoice> {
    match re {
        LabelRe::Empty => Vec::new(),
        LabelRe::Epsilon => Vec::new(),
        LabelRe::Data => vec![SymChoice::Data],
        // `any` positions: emit a data value (always valid)
        LabelRe::Any => vec![SymChoice::Data],
        LabelRe::Sym(l) => {
            if schema.is_function(l.as_str()) {
                vec![SymChoice::Fun(l.to_string())]
            } else {
                vec![SymChoice::Elem(l.to_string())]
            }
        }
        LabelRe::Seq(parts) => parts
            .iter()
            .flat_map(|p| sample_word(schema, p, params, rng, depth))
            .collect(),
        LabelRe::Alt(parts) => {
            // at depth 0 prefer a nullable branch to stop recursion; prefer
            // dropping optional function branches per call_probability
            let viable: Vec<&LabelRe> = if depth == 0 {
                let nullable: Vec<&LabelRe> = parts.iter().filter(|p| p.nullable()).collect();
                if nullable.is_empty() {
                    parts.iter().collect()
                } else {
                    nullable
                }
            } else {
                parts.iter().collect()
            };
            let pick = viable[rng.gen_range(0..viable.len())];
            sample_word(schema, pick, params, rng, depth)
        }
        LabelRe::Star(p) => {
            let n = if depth == 0 {
                0
            } else {
                rng.gen_range(0..=params.max_star)
            };
            (0..n)
                .flat_map(|_| sample_word(schema, p, params, rng, depth))
                .collect()
        }
        LabelRe::Plus(p) => {
            let n = 1 + if depth == 0 {
                0
            } else {
                rng.gen_range(0..params.max_star)
            };
            (0..n)
                .flat_map(|_| sample_word(schema, p, params, rng, depth))
                .collect()
        }
        LabelRe::Opt(p) => {
            let keep = depth > 0 && rng.gen_bool(params.call_probability);
            if keep {
                sample_word(schema, p, params, rng, depth)
            } else {
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_schema::{figure2_schema, validate};
    use axml_services::CallRequest;

    #[test]
    fn generated_instances_validate() {
        let schema = figure2_schema();
        for seed in 0..30 {
            let (doc, _) = random_instance(
                &schema,
                "hotels",
                &InstanceParams {
                    seed,
                    ..Default::default()
                },
            );
            let errors = validate(&doc, &schema);
            assert!(errors.is_empty(), "seed {seed}: {errors:?}");
            doc.check_integrity().unwrap();
        }
    }

    #[test]
    fn service_results_match_their_output_types() {
        let schema = figure2_schema();
        let (_, registry) = random_instance(&schema, "hotels", &InstanceParams::default());
        for sig in schema.functions() {
            let none = Forest::new();
            let req = CallRequest::of_forest(&none);
            let out = registry.invoke_within(sig.name.as_str(), &req, None, f64::INFINITY);
            let out = out.unwrap();
            assert!(
                axml_schema::forest_matches_type(&out.result, &sig.output),
                "{} result does not match its output type",
                sig.name
            );
        }
    }

    #[test]
    fn generation_terminates_on_recursive_schemas() {
        let schema = axml_schema::parse_schema(
            "element tree = data.tree*\nfunction f = in: data, out: tree\n",
        )
        .unwrap();
        let (doc, _) = random_instance(&schema, "tree", &InstanceParams::default());
        assert!(doc.len() < 1_000_000);
        doc.check_integrity().unwrap();
    }

    #[test]
    fn full_materialization_of_generated_instance_terminates() {
        // figure-2 style schemas have an acyclic call graph: everything
        // bottoms out even through the generated services
        let schema = figure2_schema();
        let (mut doc, registry) = random_instance(
            &schema,
            "hotels",
            &InstanceParams {
                seed: 9,
                ..Default::default()
            },
        );
        let mut guard = 0;
        loop {
            let calls = doc.calls();
            if calls.is_empty() {
                break;
            }
            guard += 1;
            assert!(guard < 100_000);
            let c = calls[0];
            let (_, svc) = doc.call_info(c).unwrap();
            let req = CallRequest::of_call(&doc, c);
            let out = registry.invoke_within(svc.as_str(), &req, None, f64::INFINITY);
            let out = out.unwrap();
            doc.splice_call(c, &out.result);
        }
        let errors = validate(&doc, &schema);
        assert!(errors.is_empty(), "{errors:?}");
    }
}
