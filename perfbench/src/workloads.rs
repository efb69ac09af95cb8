//! The four workloads, what one op is in each, and how a run measures
//! them.
//!
//! Every workload runs the `axml` CLI's default engine configuration
//! (`EngineConfig::default()` with `push_queries: false`) and the CLI's
//! defaults for sessions, subscriptions and durability. A run sets up the
//! workload (generating inputs, building stores, subscribing, one warm-up
//! window), then measures a fixed number of windows of a fixed op count.
//! Answers are checked outside the timed calls: against reference answers
//! computed beforehand by the naive engine, or, for the subscription
//! feed, against a full re-evaluation.

use crate::calib;
use crate::metrics::{Report, Reported, END_TO_END, PER_LAYER};
use crate::probes::{self, Probe};
use crate::stats::{median, window_percentile, Spread, Window, MIN_WINDOW_OPS};
use crate::trace::{Span, Tracer};
use axml_core::{Engine, EngineConfig, EngineStats};
use axml_gen::feeds::{price_feed, PriceFeedParams};
use axml_gen::scenario::{figure4_query, generate, Scenario, ScenarioParams};
use axml_query::{parse_query, render_result, Pattern};
use axml_services::{NetProfile, NetStats, Registry};
use axml_store::{
    CacheConfig, CacheStats, CrashProfile, DocumentStore, DurabilityOptions, PlanCacheConfig,
    PlanCacheStats, SchedulerMode, SessionOptions, SessionSpec, SimDir,
};
use axml_sub::{SubscriptionEngine, SubscriptionEngineStats, SubscriptionOptions};
use axml_xml::{to_xml, Document};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One lazy query at a time on a fresh copy of a large hotels
    /// document: NFQ detection, typing, invocation and the final
    /// evaluation, with no cache, plan cache, scheduler or log.
    LazyHotels,
    /// Read-only multi-tenant serving with warm call and plan caches.
    ServeTenants,
    /// A subscription feed: TTL lapses drive refresh, publish and
    /// scope-filtered reconcile.
    SubscribeFeed,
    /// Durable stores: persistent writers beside snapshot readers with
    /// no call cache, every publish logged, then crash recovery.
    DurableMixed,
}

impl Workload {
    /// Every workload, in the default run order.
    pub const ALL: [Workload; 4] = [
        Workload::LazyHotels,
        Workload::ServeTenants,
        Workload::SubscribeFeed,
        Workload::DurableMixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LazyHotels => "lazy-hotels",
            Workload::ServeTenants => "serve-tenants",
            Workload::SubscribeFeed => "subscribe-feed",
            Workload::DurableMixed => "durable-mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seconds one measured window takes at the reference speed (see
    /// [`calib`]), calibration and checks included.
    fn window_s(self) -> f64 {
        match self {
            Workload::LazyHotels => 3.2,
            Workload::ServeTenants => 1.2,
            Workload::SubscribeFeed => 2.0,
            Workload::DurableMixed => 0.8,
        }
    }

    /// Windows a run measures, given `seconds` of measuring time at the
    /// reference speed: at least two, so a traced run has an untraced and
    /// a traced one. The count depends on `seconds` alone, never on how
    /// fast the machine or the commit under test runs, so two commits run
    /// with the same `seconds` measure the same ops.
    pub fn windows(self, seconds: f64) -> usize {
        ((seconds / self.window_s()).round() as usize).max(2)
    }
}

/// Input scale: `Full` is the benchmark; `Tiny` (20 hotels, one window)
/// exists for tests of the harness itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Test-only sizes.
    Tiny,
}

/// What one run measures.
#[derive(Clone, Debug)]
pub struct Params {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured windows; a traced run alternates untraced and traced ones.
    pub windows: usize,
    /// Traced run: per-layer metrics, spans and probes instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Kernel runs timed before and after each set-up.
const SETUP_CAL_RUNS: usize = 3;

/// Worker threads of every scheduler round (the machine has two cores).
pub(crate) const WORKERS: usize = 2;

/// The CLI's default engine configuration.
fn cli_engine() -> EngineConfig {
    EngineConfig {
        push_queries: false,
        ..EngineConfig::default()
    }
}

/// `figure4`, `descendant`, `names`: the queries of every hotels
/// workload. One cheap shape beside two costly ones keeps each window's
/// median inside the costly cluster rather than on a boundary between
/// clusters, where it would jump with every shift in the mix.
fn hotel_queries() -> Vec<Pattern> {
    vec![
        figure4_query(),
        parse_query("//restaurant[rating=\"*****\"]/name/$N -> $N").expect("descendant query"),
        parse_query("/hotels/hotel/name/$N -> $N").expect("names query"),
    ]
}

/// SplitMix64 step: derives independent sub-seeds from the run's seed.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hotels_scenario(hotels: usize, seed: u64) -> Scenario {
    let mut sc = generate(&ScenarioParams {
        hotels,
        seed,
        ..ScenarioParams::default()
    });
    sc.registry.set_default_profile(NetProfile::default());
    sc
}

/// A copy of `doc` whose root's children come in a seeded order.
fn shuffle_children(doc: &Document, seed: u64) -> Document {
    let root = doc.root();
    let mut children = doc.children(root).to_vec();
    for i in (1..children.len()).rev() {
        children.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    let mut out = Document::with_root(doc.label(root));
    let out_root = out.root();
    for c in children {
        out.append_copy(out_root, doc, c);
    }
    out
}

/// FNV-1a over an answer set's rows, in their (sorted) order.
fn answer_hash(answers: &BTreeSet<Vec<String>>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for row in answers {
        for field in row {
            field.bytes().for_each(&mut eat);
            eat(0x1f);
        }
        eat(0x1e);
    }
    h
}

fn rows(doc: &Document, report: &axml_core::EvalReport) -> BTreeSet<Vec<String>> {
    render_result(doc, &report.result).into_iter().collect()
}

/// The naive engine's answer: it materializes every call before
/// evaluating, so it shares none of the lazy machinery it checks.
fn naive_hash(doc: &Document, registry: &Registry, query: &Pattern) -> u64 {
    let mut d = doc.clone();
    let report = Engine::new(registry, EngineConfig::naive()).evaluate(&mut d, query);
    assert!(report.complete, "the naive reference must be complete");
    answer_hash(&rows(&d, &report))
}

/// Reference answer hashes for a run, in the order its checks use them.
/// Computed before the run (in another process), so neither their time
/// nor their memory is measured.
pub fn references(p: &Params) -> Vec<u64> {
    match p.workload {
        Workload::LazyHotels => {
            let inputs = LazyHotels::build(p);
            let mut out = Vec::new();
            for sc in &inputs.scenarios {
                for q in &inputs.queries {
                    out.push(naive_hash(&sc.doc, &sc.registry, q));
                }
            }
            out
        }
        Workload::ServeTenants => {
            let inputs = ServeTenants::build(p);
            inputs
                .queries
                .iter()
                .map(|q| naive_hash(&inputs.sc.doc, &inputs.sc.registry, q))
                .collect()
        }
        Workload::SubscribeFeed => Vec::new(),
        Workload::DurableMixed => {
            let inputs = DurableMixed::build(p);
            let mut out = Vec::new();
            for doc in &inputs.docs {
                for q in &inputs.queries {
                    out.push(naive_hash(doc, &inputs.sc.registry, q));
                }
            }
            out
        }
    }
}

/// Per-layer accumulators: each metric is a sum over a denominator, so
/// means per op and ratios of totals share one representation.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, f64)>,
}

impl Layers {
    /// Adds one sample of a per-sample mean.
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.add_ratio(name, v, 1.0);
    }

    /// Adds to a ratio of totals.
    pub fn add_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let e = self.values.entry(name).or_insert((0.0, 0.0));
        e.0 += num;
        e.1 += den;
    }

    /// Whether `name` has a value.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The metric's value; 0 when its denominator stayed 0.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .get(name)
            .map(|&(n, d)| if d == 0.0 { 0.0 } else { n / d })
    }

    /// Copies every metric of `other` that this one lacks; returns their
    /// names.
    pub fn merge_missing(&mut self, other: &Layers) -> BTreeSet<&'static str> {
        let mut added = BTreeSet::new();
        for (k, v) in &other.values {
            if !self.values.contains_key(k) {
                self.values.insert(k, *v);
                added.insert(*k);
            }
        }
        added
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records one `Engine::evaluate` (with the copy it ran on and the
/// rendering of its answer) into the `core`, `query`, `xml` and
/// `services` metrics.
pub(crate) fn record_eval(
    layers: &mut Layers,
    stats: &EngineStats,
    clone: Duration,
    eval: Duration,
    render: Duration,
) {
    let rel = ms(stats.relevance_cpu);
    let fin = ms(stats.final_eval_cpu);
    let total = ms(stats.total_cpu);
    layers.add("core.evaluate_ms", ms(eval));
    layers.add("core.relevance_ms", rel);
    layers.add_ratio("core.relevance_share", rel, total);
    layers.add("core.final_eval_ms", fin);
    layers.add("core.other_ms", (total - rel - fin).max(0.0));
    layers.add("core.relevance_evals_per_op", stats.relevance_evals as f64);
    layers.add(
        "core.nfq_evals_skipped_per_op",
        stats.nfq_evals_skipped as f64,
    );
    layers.add("core.rounds_per_op", stats.rounds as f64);
    layers.add("query.render_ms", ms(render));
    layers.add("xml.clone_ms", ms(clone));
    layers.add("xml.final_doc_nodes", stats.final_doc_size as f64);
    layers.add("services.calls_per_op", stats.calls_invoked as f64);
    layers.add("services.sim_net_ms_per_op", stats.sim_time_ms);
    layers.add("services.bytes_per_op", stats.bytes_transferred as f64);
    layers.add("services.attempts_per_op", stats.call_attempts as f64);
}

/// Counter deltas attached to an `Engine::evaluate` span.
fn eval_attrs(stats: &EngineStats) -> [(&'static str, f64); 4] {
    [
        ("calls_invoked", stats.calls_invoked as f64),
        ("relevance_evals", stats.relevance_evals as f64),
        ("rounds", stats.rounds as f64),
        ("bytes_transferred", stats.bytes_transferred as f64),
    ]
}

/// Records call-cache counter deltas over `ops` ops.
pub(crate) fn record_cache(layers: &mut Layers, before: CacheStats, after: CacheStats, ops: f64) {
    let probes =
        (after.hits + after.misses + after.stale) - (before.hits + before.misses + before.stale);
    layers.add_ratio(
        "store.cache.hit_rate",
        (after.hits - before.hits) as f64,
        probes as f64,
    );
    layers.add_ratio(
        "store.cache.stale_per_op",
        (after.stale - before.stale) as f64,
        ops,
    );
    layers.add_ratio(
        "store.cache.insertions_per_op",
        (after.insertions - before.insertions) as f64,
        ops,
    );
    layers.add_ratio(
        "store.cache.evictions_per_op",
        (after.evictions - before.evictions) as f64,
        ops,
    );
}

/// Records plan-cache counter deltas over `ops` ops.
pub(crate) fn record_plans(
    layers: &mut Layers,
    before: PlanCacheStats,
    after: PlanCacheStats,
    ops: f64,
) {
    let fetches = (after.hits + after.misses) - (before.hits + before.misses);
    layers.add_ratio(
        "store.plan_cache.hit_rate",
        (after.hits - before.hits) as f64,
        fetches as f64,
    );
    layers.add_ratio(
        "store.plan_cache.compiles_per_op",
        (after.compiles - before.compiles) as f64,
        ops,
    );
}

/// Records registry counter deltas over `ops` ops.
fn record_net(layers: &mut Layers, before: &NetStats, after: &NetStats, ops: f64) {
    layers.add_ratio(
        "services.calls_per_op",
        (after.calls - before.calls) as f64,
        ops,
    );
    layers.add_ratio(
        "services.bytes_per_op",
        (after.bytes - before.bytes) as f64,
        ops,
    );
    layers.add_ratio(
        "services.attempts_per_op",
        (after.attempts - before.attempts) as f64,
        ops,
    );
}

/// State shared by a run's ops: the tracer, the references, failure
/// counts and the per-layer accumulators.
pub(crate) struct Ctx<'r> {
    /// Times every call; records spans in traced windows.
    pub tracer: Tracer,
    /// Per-layer accumulators.
    pub layers: Layers,
    refs: &'r [u64],
    inject_wrong: bool,
    measuring: bool,
    failed: usize,
    wrong: bool,
    op_seq: u64,
}

impl<'r> Ctx<'r> {
    fn new(refs: &'r [u64], inject_wrong: bool) -> Ctx<'r> {
        Ctx {
            tracer: Tracer::new(false),
            layers: Layers::default(),
            refs,
            inject_wrong,
            measuring: false,
            failed: 0,
            wrong: false,
            op_seq: 0,
        }
    }

    fn next_op(&mut self) -> u64 {
        self.op_seq += 1;
        self.op_seq
    }

    fn reference(&self, i: usize) -> u64 {
        self.refs[i]
    }

    /// Counts a failed op or check. Warm-up failures make the run wrong
    /// without counting as measured ops.
    fn fail(&mut self) {
        self.wrong = true;
        if self.measuring {
            self.failed += 1;
        }
    }

    /// Checks a complete answer against its expected hash. With
    /// `--inject-wrong`, the first measured check expects a wrong answer,
    /// so the checker itself is tested.
    fn check(&mut self, expected: u64, answers: &BTreeSet<Vec<String>>, complete: bool) {
        let mut expected = expected;
        if self.inject_wrong && self.measuring {
            self.inject_wrong = false;
            expected ^= 1;
        }
        if !complete || answer_hash(answers) != expected {
            self.fail();
        }
    }
}

/// A workload's inputs; `start` sets up a runnable workload over them
/// (borrowing them, as a subscription engine borrows its registry).
trait Setup: Sized {
    type Run<'a>: Run
    where
        Self: 'a;

    /// Generates the inputs.
    fn build(p: &Params) -> Self;

    /// Builds stores and subscriptions and runs the warm-up window.
    fn start<'a>(&'a mut self, p: &Params, ctx: &mut Ctx) -> Self::Run<'a>;
}

trait Run {
    /// Runs one measured window.
    fn window(&mut self, ctx: &mut Ctx) -> Window;

    /// Records the per-layer metrics this workload's own counters give.
    fn finish(&mut self, ctx: &mut Ctx);

    /// Inputs for probes of the layers the ops leave unmeasured.
    fn probe(&self) -> Probe<'_>;
}

/// What a run produces.
pub struct Outcome {
    /// Metrics and counts.
    pub report: Report,
    /// Spans of the traced windows.
    pub spans: Vec<Span>,
}

/// Runs one workload in this process.
pub fn run(p: &Params, refs: &[u64], inject_wrong: bool) -> Outcome {
    match p.workload {
        Workload::LazyHotels => drive::<LazyHotels>(p, refs, inject_wrong),
        Workload::ServeTenants => drive::<ServeTenants>(p, refs, inject_wrong),
        Workload::SubscribeFeed => drive::<FeedInputs>(p, refs, inject_wrong),
        Workload::DurableMixed => drive::<DurableMixed>(p, refs, inject_wrong),
    }
}

fn drive<S: Setup>(p: &Params, refs: &[u64], inject_wrong: bool) -> Outcome {
    let mut ctx = Ctx::new(refs, inject_wrong);
    let reps = if p.trace || p.size == Size::Tiny {
        1
    } else {
        SETUP_REPS
    };
    // set-up time is scaled to the reference speed by kernel times taken
    // just before and just after it
    let mut setup_s = Vec::new();
    for rep in 1..=reps {
        let cal_before = calib::median_sample_ms(SETUP_CAL_RUNS);
        let t0 = Instant::now();
        let mut inputs = S::build(p);
        let mut run = inputs.start(p, &mut ctx);
        let raw = t0.elapsed().as_secs_f64();
        let cal_after = calib::median_sample_ms(SETUP_CAL_RUNS);
        setup_s.push(calib::scale(raw, (cal_before + cal_after) / 2.0));
        if rep == reps {
            return measure(p, &mut run, &mut ctx, &setup_s);
        }
    }
    unreachable!("at least one set-up")
}

fn measure(p: &Params, run: &mut impl Run, ctx: &mut Ctx, setup_s: &[f64]) -> Outcome {
    ctx.measuring = true;
    // traced runs alternate untraced and traced windows, so tracing
    // overhead is measured against windows of the same run
    let mut plain: Vec<Window> = Vec::new();
    let mut traced: Vec<Window> = Vec::new();
    for i in 0..p.windows {
        let tracing = p.trace && i % 2 == 1;
        ctx.tracer.set_enabled(tracing);
        let w = run.window(ctx);
        (if tracing { &mut traced } else { &mut plain }).push(w);
    }
    ctx.tracer.set_enabled(false);
    ctx.measuring = false;

    let percentile = |ws: &[Window], q: f64| -> Vec<f64> {
        ws.iter()
            .map(|w| window_percentile(&w.latencies(), q).expect("windows hold enough ops"))
            .collect()
    };
    let metrics: Vec<Reported> = if p.trace {
        run.finish(ctx);
        let probed = probes::fill(&run.probe(), &mut ctx.layers);
        let overhead = median(&percentile(&traced, 0.5)) / median(&percentile(&plain, 0.5)) - 1.0;
        ctx.layers.add("trace.overhead_frac", overhead);
        let raw_p50: Vec<f64> = plain
            .iter()
            .map(|w| window_percentile(&w.raw_latencies(), 0.5).expect("windows hold enough ops"))
            .collect();
        ctx.layers.add("bench.raw_op_p50_ms", median(&raw_p50));
        let cal: Vec<f64> = plain.iter().flat_map(|w| w.cal_ms()).copied().collect();
        ctx.layers.add("bench.cal_ms", median(&cal));
        PER_LAYER
            .iter()
            .map(|m| Reported {
                name: m.name,
                unit: m.unit,
                value: Spread::of(&[ctx
                    .layers
                    .value(m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name))]),
                probe: probed.contains(m.name),
            })
            .collect()
    } else {
        let value = |name: &str| -> Spread {
            match name {
                "op_p50_ms" => Spread::of(&percentile(&plain, 0.5)),
                "op_p95_ms" => Spread::of(&percentile(&plain, 0.95)),
                "ops_per_s" => Spread::of(&plain.iter().map(Window::ops_per_s).collect::<Vec<_>>()),
                "peak_rss_mb" => Spread::of(&[peak_rss_mb()]),
                "setup_s" => Spread::of(setup_s),
                other => unreachable!("no end-to-end metric {other}"),
            }
        };
        END_TO_END
            .iter()
            .map(|m| Reported {
                name: m.name,
                unit: m.unit,
                value: value(m.name),
                probe: false,
            })
            .collect()
    };
    let attempted = plain.iter().chain(&traced).map(Window::ops).sum();
    Outcome {
        report: Report {
            workload: p.workload.name(),
            correct: !ctx.wrong,
            attempted,
            failed: ctx.failed,
            windows: plain.len() + traced.len(),
            metrics,
        },
        spans: ctx.tracer.spans().to_vec(),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// The smallest multiple of `unit` that is at least [`MIN_WINDOW_OPS`].
fn window_ops(unit: usize) -> usize {
    MIN_WINDOW_OPS.div_ceil(unit) * unit
}

// ---------------------------------------------------------------- lazy-hotels

/// Documents `lazy-hotels` rotates through. Several documents per run
/// keep one seed's document from setting the whole run's numbers.
const LAZY_DOCS: usize = 4;
const LAZY_HOTELS: usize = 400;

struct LazyHotels {
    scenarios: Vec<Scenario>,
    queries: Vec<Pattern>,
    config: EngineConfig,
    next: usize,
}

impl LazyHotels {
    fn pairs(&self) -> usize {
        self.scenarios.len() * self.queries.len()
    }

    /// One query on a fresh copy of one document; returns its latency.
    fn op(&mut self, ctx: &mut Ctx) -> f64 {
        let pair = self.next % self.pairs();
        self.next += 1;
        let sc = &self.scenarios[pair / self.queries.len()];
        let query = &self.queries[pair % self.queries.len()];
        let op = ctx.next_op();
        let root = ctx.tracer.begin("bench.op", op, None);
        let parent = Some(root.id());
        let (mut doc, clone) = ctx
            .tracer
            .span("xml.Document::clone", op, parent, || sc.doc.clone());
        let engine = Engine::new(&sc.registry, self.config.clone()).with_schema(&sc.schema);
        let (report, eval) = ctx.tracer.span("core.Engine::evaluate", op, parent, || {
            engine.evaluate(&mut doc, query)
        });
        ctx.tracer.annotate(&eval_attrs(&report.stats));
        let (rendered, render) = ctx.tracer.span("query.render_result", op, parent, || {
            render_result(&doc, &report.result)
        });
        let latency = ctx.tracer.end(root, &[]);

        let answers: BTreeSet<Vec<String>> = rendered.into_iter().collect();
        let expected = ctx.reference(pair);
        ctx.check(expected, &answers, report.complete);
        if ctx.measuring {
            record_eval(&mut ctx.layers, &report.stats, clone, eval, render);
        }
        ms(latency)
    }
}

impl Setup for LazyHotels {
    type Run<'a> = &'a mut LazyHotels;

    fn build(p: &Params) -> Self {
        let (docs, hotels) = match p.size {
            Size::Full => (LAZY_DOCS, LAZY_HOTELS),
            Size::Tiny => (1, 20),
        };
        LazyHotels {
            scenarios: (0..docs)
                .map(|k| hotels_scenario(hotels, mix(p.seed, k as u64)))
                .collect(),
            queries: hotel_queries(),
            config: cli_engine(),
            next: 0,
        }
    }

    fn start<'a>(&'a mut self, _p: &Params, ctx: &mut Ctx) -> &'a mut LazyHotels {
        for _ in 0..self.pairs() {
            self.op(ctx);
        }
        self
    }
}

impl Run for &mut LazyHotels {
    /// A unit is one rotation over every (document, query) pair.
    fn window(&mut self, ctx: &mut Ctx) -> Window {
        let mut w = Window::new(calib::sample_ms());
        for _ in 0..window_ops(self.pairs()) / self.pairs() {
            let latencies: Vec<f64> = (0..self.pairs()).map(|_| self.op(ctx)).collect();
            let busy_ms = latencies.iter().sum();
            w.push(latencies, busy_ms, calib::sample_ms());
        }
        w
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        // ops evaluate private copies and publish nothing
        ctx.layers.add("xml.versions_per_round", 0.0);
    }

    fn probe(&self) -> Probe<'_> {
        let sc = &self.scenarios[0];
        Probe {
            doc: &sc.doc,
            queries: &self.queries,
            schema: Some(&sc.schema),
            registry: &sc.registry,
            config: self.config.clone(),
            cache: None,
            plans: None,
        }
    }
}

// -------------------------------------------------------------- serve-tenants

const TENANT_HOTELS: usize = 200;
const TENANT_DOCS: usize = 4;
const TENANT_SESSIONS: usize = 32;
const TENANT_QUERIES: usize = 8;
const TENANT_ROUNDS_PER_WINDOW: usize = 2;

/// What one session of a scheduler round asks: its document's index and
/// its queries' indices.
pub(crate) type Asked = Vec<(usize, Vec<usize>)>;

/// One scheduler round's specs. Sessions `2k` and `2k + 1` share
/// document `k % docs`, so pairs of sessions with different options run
/// side by side; session `s` asks query `(s + i) % n` as its `i`-th
/// query, so every round asks each query about equally often.
pub(crate) fn tenant_specs(
    sessions: usize,
    per_session: usize,
    docs: &[String],
    queries: &[Pattern],
    options: impl Fn(usize) -> SessionOptions,
) -> (Vec<SessionSpec>, Asked) {
    let mut specs = Vec::new();
    let mut asked = Vec::new();
    for s in 0..sessions {
        let doc = (s / 2) % docs.len();
        let idx: Vec<usize> = (0..per_session).map(|i| (s + i) % queries.len()).collect();
        let mut spec = SessionSpec::new(
            format!("session-{s}"),
            docs[doc].clone(),
            idx.iter().map(|&i| queries[i].clone()).collect(),
        );
        spec.options = options(s);
        specs.push(spec);
        asked.push((doc, idx));
    }
    (specs, asked)
}

#[derive(Default)]
struct ServeCounters {
    ops: f64,
    rounds: f64,
    round_ms: f64,
    busy_ms: f64,
    sim_ms: f64,
}

struct ServeTenants {
    sc: Scenario,
    queries: Vec<Pattern>,
    store: DocumentStore,
    specs: Vec<SessionSpec>,
    asked: Asked,
    counters: ServeCounters,
    before: (CacheStats, PlanCacheStats, NetStats),
}

impl ServeTenants {
    /// One scheduler round: every session runs its queries. Returns the
    /// queries' latencies and the round's wall time in ms.
    fn round(&mut self, ctx: &mut Ctx) -> (Vec<f64>, f64) {
        let op = ctx.next_op();
        let root = ctx.tracer.begin("bench.round", op, None);
        let (report, wall) =
            ctx.tracer
                .span("store.DocumentStore::serve", op, Some(root.id()), || {
                    self.store.serve(
                        &self.specs,
                        &self.sc.registry,
                        Some(&self.sc.schema),
                        &SchedulerMode::Concurrent { workers: WORKERS },
                        None,
                    )
                });
        ctx.tracer
            .annotate(&[("queries", report.total_queries as f64)]);
        ctx.tracer.end(root, &[]);

        let mut latencies = Vec::new();
        for (s, session) in report.sessions.iter().enumerate() {
            for (i, q) in session.queries.iter().enumerate() {
                // every stored document is a copy of the same input
                let expected = ctx.reference(self.asked[s].1[i]);
                ctx.check(expected, &q.answers, q.complete);
                latencies.push(q.wall_ms);
                self.counters.ops += 1.0;
                self.counters.busy_ms += q.wall_ms;
                self.counters.sim_ms += q.sim_time_ms;
            }
        }
        self.counters.rounds += 1.0;
        self.counters.round_ms += ms(wall);
        (latencies, ms(wall))
    }

    fn snapshot_counters(&self) -> (CacheStats, PlanCacheStats, NetStats) {
        (
            self.store.cache().stats(),
            self.store.plans().stats(),
            self.sc.registry.stats(),
        )
    }
}

impl Setup for ServeTenants {
    type Run<'a> = &'a mut ServeTenants;

    fn build(p: &Params) -> Self {
        let hotels = match p.size {
            Size::Full => TENANT_HOTELS,
            Size::Tiny => 20,
        };
        let sc = hotels_scenario(hotels, mix(p.seed, 0));
        let queries = hotel_queries();
        let names: Vec<String> = (0..TENANT_DOCS).map(|d| format!("t{d}")).collect();
        let (specs, asked) =
            tenant_specs(TENANT_SESSIONS, TENANT_QUERIES, &names, &queries, |_| {
                SessionOptions::with_engine(cli_engine())
            });
        ServeTenants {
            sc,
            queries,
            store: DocumentStore::new(),
            specs,
            asked,
            counters: ServeCounters::default(),
            before: Default::default(),
        }
    }

    fn start<'a>(&'a mut self, _p: &Params, ctx: &mut Ctx) -> &'a mut ServeTenants {
        for d in 0..TENANT_DOCS {
            self.store.insert(format!("t{d}"), self.sc.doc.clone());
        }
        // the warm-up round fills the call and plan caches
        self.round(ctx);
        self.counters = ServeCounters::default();
        self.before = self.snapshot_counters();
        self
    }
}

impl Run for &mut ServeTenants {
    fn window(&mut self, ctx: &mut Ctx) -> Window {
        let mut w = Window::new(calib::sample_ms());
        for _ in 0..TENANT_ROUNDS_PER_WINDOW {
            let (latencies, wall_ms) = self.round(ctx);
            w.push(latencies, wall_ms, calib::sample_ms());
        }
        w
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        let (cache0, plans0, net0) = &self.before;
        let (cache1, plans1, net1) = self.snapshot_counters();
        let c = &self.counters;
        let l = &mut ctx.layers;
        record_cache(l, *cache0, cache1, c.ops);
        record_plans(l, *plans0, plans1, c.ops);
        record_net(l, net0, &net1, c.ops);
        l.add_ratio("services.sim_net_ms_per_op", c.sim_ms, c.ops);
        l.add_ratio("store.sched.round_ms", c.round_ms, c.rounds);
        l.add_ratio(
            "store.sched.busy_frac",
            c.busy_ms,
            WORKERS as f64 * c.round_ms,
        );
        // snapshot sessions never publish
        l.add("xml.versions_per_round", 0.0);
    }

    fn probe(&self) -> Probe<'_> {
        Probe {
            doc: &self.sc.doc,
            queries: &self.queries,
            schema: Some(&self.sc.schema),
            registry: &self.sc.registry,
            config: cli_engine(),
            cache: Some(self.store.cache().as_ref()),
            plans: Some(self.store.plans().as_ref()),
        }
    }
}

// ------------------------------------------------------------- subscribe-feed

const FEED_HOTELS: usize = 100;
const FEED_WARMUP_CYCLES: usize = 50;
/// Cycles between two kernel samples.
const FEED_UNIT_CYCLES: usize = 20;

struct FeedInputs {
    feed: axml_gen::feeds::Feed,
    queries: Vec<Pattern>,
    store: DocumentStore,
}

struct SubscribeFeed<'a> {
    inputs: &'a FeedInputs,
    engine: SubscriptionEngine<'a>,
    config: EngineConfig,
    counters: FeedCounters,
    before: FeedTotals,
}

/// Cumulative counters, read when measuring starts and ends.
#[derive(Default)]
struct FeedTotals {
    sub: SubscriptionEngineStats,
    cache: CacheStats,
    plans: PlanCacheStats,
    net: NetStats,
    version: u64,
    clock_ms: f64,
}

#[derive(Default)]
struct FeedCounters {
    ops: f64,
    latency_ms: f64,
    refresh_ms: f64,
    reconcile_ms: f64,
    purge_ms: f64,
    advanced_ms: f64,
}

impl Setup for FeedInputs {
    type Run<'a> = SubscribeFeed<'a>;

    fn build(p: &Params) -> Self {
        let hotels = match p.size {
            Size::Full => FEED_HOTELS,
            Size::Tiny => 20,
        };
        let mut feed = price_feed(&PriceFeedParams {
            hotels,
            volatile_stride: 2,
        });
        // the feed generator takes no seed: the seed orders the hotels.
        // Their validity windows stay as generated, so every seed sees the
        // same sequence of lapses and the same mix of cycle costs.
        feed.doc = shuffle_children(&feed.doc, p.seed);
        let mut config = CacheConfig::default();
        for (service, ttl) in &feed.ttls {
            config = config.ttl_for(service.clone(), *ttl);
        }
        let mut store = DocumentStore::with_cache_config(config);
        store.insert("feed", feed.doc.clone());
        let queries = feed.watchers.iter().map(|(_, q)| q.clone()).collect();
        FeedInputs {
            feed,
            queries,
            store,
        }
    }

    fn start<'a>(&'a mut self, p: &Params, ctx: &mut Ctx) -> SubscribeFeed<'a> {
        let inputs: &'a FeedInputs = self;
        let config = cli_engine();
        let options = SubscriptionOptions {
            engine: config.clone(),
            ..SubscriptionOptions::default()
        };
        let engine = SubscriptionEngine::over_store(
            &inputs.store,
            "feed",
            &inputs.feed.registry,
            None,
            options,
        )
        .expect("feed document stored");
        let mut run = SubscribeFeed {
            inputs,
            engine,
            config,
            counters: FeedCounters::default(),
            before: Default::default(),
        };
        for (name, query) in &inputs.feed.watchers {
            let t0 = Instant::now();
            run.engine.subscribe(name.clone(), query.clone());
            ctx.layers.add("sub.subscribe_ms", ms(t0.elapsed()));
        }
        let cycles = match p.size {
            Size::Full => FEED_WARMUP_CYCLES,
            Size::Tiny => 5,
        };
        for _ in 0..cycles {
            run.cycle(ctx);
        }
        run.check(ctx);
        run.counters = FeedCounters::default();
        run.before = run.totals();
        run
    }
}

impl SubscribeFeed<'_> {
    /// One TTL-lapse cycle: move the clock to the earliest expiry,
    /// refresh, reconcile, purge. Returns its latency.
    fn cycle(&mut self, ctx: &mut Ctx) -> f64 {
        let cache = self.inputs.store.cache();
        let lapse = cache
            .earliest_expiry()
            .expect("every feed service has a finite validity window");
        let op = ctx.next_op();
        let root = ctx.tracer.begin("bench.op", op, None);
        let parent = Some(root.id());
        let advance = (lapse - self.engine.clock_ms()).max(0.0);
        self.engine.advance_clock(advance);
        let engine = &mut self.engine;
        let (version, refresh) =
            ctx.tracer
                .span("sub.SubscriptionEngine::refresh", op, parent, || {
                    engine.refresh()
                });
        ctx.tracer
            .annotate(&[("published", version.is_some() as u8 as f64)]);
        let (deltas, reconcile) =
            ctx.tracer
                .span("sub.SubscriptionEngine::reconcile", op, parent, || {
                    engine.reconcile()
                });
        ctx.tracer.annotate(&[("deltas", deltas.len() as f64)]);
        let now = engine.clock_ms();
        let (purged, purge) = ctx
            .tracer
            .span("store.CallCache::purge_expired", op, parent, || {
                cache.purge_expired(now)
            });
        ctx.tracer.annotate(&[("purged", purged as f64)]);
        let latency = ms(ctx.tracer.end(root, &[]));

        let c = &mut self.counters;
        c.ops += 1.0;
        c.latency_ms += latency;
        c.refresh_ms += ms(refresh);
        c.reconcile_ms += ms(reconcile);
        c.purge_ms += ms(purge);
        c.advanced_ms += advance;
        latency
    }

    /// Every subscription's answer must equal a full evaluation of the
    /// published version.
    fn check(&mut self, ctx: &mut Ctx) {
        let snapshot = self.inputs.store.get("feed").expect("feed document stored");
        for (name, query) in &self.inputs.feed.watchers {
            let t0 = Instant::now();
            let mut doc = snapshot.to_document();
            let clone = t0.elapsed();
            let engine = Engine::new(&self.inputs.feed.registry, self.config.clone());
            let t1 = Instant::now();
            let report = engine.evaluate(&mut doc, query);
            let eval = t1.elapsed();
            let t2 = Instant::now();
            let full = rows(&doc, &report);
            let render = t2.elapsed();
            if ctx.measuring {
                record_eval(&mut ctx.layers, &report.stats, clone, eval, render);
            }
            // a published version is fully materialized: re-evaluating it
            // must not invoke (and so advance) the feed's services
            let sound = report.complete && report.stats.calls_invoked == 0;
            let answers = self.engine.answers(name).cloned().unwrap_or_default();
            ctx.check(answer_hash(&full), &answers, sound);
        }
    }

    fn totals(&self) -> FeedTotals {
        let store = &self.inputs.store;
        FeedTotals {
            sub: self.engine.stats().clone(),
            cache: store.cache().stats(),
            plans: store.plans().stats(),
            net: self.inputs.feed.registry.stats(),
            version: store
                .versioned("feed")
                .expect("feed document stored")
                .version(),
            clock_ms: self.engine.clock_ms(),
        }
    }
}

impl Run for SubscribeFeed<'_> {
    fn window(&mut self, ctx: &mut Ctx) -> Window {
        let mut w = Window::new(calib::sample_ms());
        for _ in 0..MIN_WINDOW_OPS / FEED_UNIT_CYCLES {
            let latencies: Vec<f64> = (0..FEED_UNIT_CYCLES).map(|_| self.cycle(ctx)).collect();
            let busy_ms = latencies.iter().sum();
            w.push(latencies, busy_ms, calib::sample_ms());
        }
        self.check(ctx);
        w
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        let (t0, t1) = (&self.before, self.totals());
        let c = &self.counters;
        let watchers = self.inputs.feed.watchers.len() as f64;
        let l = &mut ctx.layers;
        record_cache(l, t0.cache, t1.cache, c.ops);
        record_plans(l, t0.plans, t1.plans, c.ops);
        record_net(l, &t0.net, &t1.net, c.ops);
        // the clock moves by explicit advances plus the simulated cost
        // of every evaluation
        l.add_ratio(
            "services.sim_net_ms_per_op",
            t1.clock_ms - t0.clock_ms - c.advanced_ms,
            c.ops,
        );
        l.add_ratio(
            "xml.versions_per_round",
            (t1.version - t0.version) as f64,
            c.ops,
        );
        l.add_ratio("sub.refresh_ms", c.refresh_ms, c.ops);
        l.add_ratio("sub.reconcile_ms", c.reconcile_ms, c.ops);
        l.add_ratio("sub.refresh_share", c.refresh_ms, c.latency_ms);
        l.add_ratio("store.cache.purge_ms", c.purge_ms, c.ops);
        let d = |f: fn(&SubscriptionEngineStats) -> usize| (f(&t1.sub) - f(&t0.sub)) as f64;
        l.add_ratio(
            "sub.skip_frac",
            d(|s| s.versions_skipped),
            d(|s| s.publications) * watchers,
        );
        l.add_ratio("sub.full_reevals_per_op", d(|s| s.full_reevals), c.ops);
        l.add_ratio("sub.degradations_per_op", d(|s| s.degradations), c.ops);
        l.add_ratio(
            "sub.refresh_invocations_per_op",
            d(|s| s.refresh_invocations),
            c.ops,
        );
        l.add_ratio("sub.deltas_per_op", d(|s| s.deltas_emitted), c.ops);
    }

    fn probe(&self) -> Probe<'_> {
        Probe {
            doc: &self.inputs.feed.doc,
            queries: &self.inputs.queries,
            schema: None,
            registry: &self.inputs.feed.registry,
            config: self.config.clone(),
            cache: None,
            plans: None,
        }
    }
}

// -------------------------------------------------------------- durable-mixed

const DURABLE_DOCS: usize = 4;
const DURABLE_HOTELS_PER_DOC: usize = 100;
/// Sessions per round: the even ones write, the odd ones read.
const DURABLE_SESSIONS: usize = 16;
const DURABLE_QUERIES: usize = 4;
const DURABLE_ROUNDS_PER_WINDOW: usize = 8;
const DURABLE_WARMUP_ROUNDS: usize = 2;

/// Splits a generated hotels document into `parts` documents of
/// consecutive hotels; every part keeps the root's other children (the
/// `getHotels` call). One registry answers every part's calls.
fn split_hotels(doc: &Document, parts: usize) -> Vec<Document> {
    let root = doc.root();
    let (hotels, others): (Vec<_>, Vec<_>) = doc
        .children(root)
        .iter()
        .partition(|&&c| doc.label(c) == "hotel");
    let per = hotels.len().div_ceil(parts);
    hotels
        .chunks(per)
        .map(|chunk| {
            let mut part = Document::with_root("hotels");
            let proot = part.root();
            for &h in chunk.iter().chain(&others) {
                part.append_copy(proot, doc, h);
            }
            part
        })
        .collect()
}

#[derive(Default)]
struct DurableCounters {
    ops: f64,
    rounds: f64,
    serve_ms: f64,
    busy_ms: f64,
    sim_ms: f64,
    inserts: f64,
    insert_ms: f64,
    recover_ms: f64,
    frames: f64,
    splices: f64,
    appends: f64,
    synced: f64,
    checkpoints: f64,
    wal_bytes: f64,
    versions: f64,
    cache: CacheStats,
    plans: PlanCacheStats,
}

struct DurableMixed {
    sc: Scenario,
    docs: Vec<Document>,
    names: Vec<String>,
    queries: Vec<Pattern>,
    specs: Vec<SessionSpec>,
    asked: Asked,
    counters: DurableCounters,
    net_before: NetStats,
}

impl DurableMixed {
    /// One round: a fresh durable store, inserts, one scheduler round of
    /// writers and readers, then a reboot and recovery. Returns the
    /// queries' latencies and the whole round's wall time in ms, so the
    /// round's throughput pays for logging, checkpoints and recovery.
    fn round(&mut self, ctx: &mut Ctx) -> (Vec<f64>, f64) {
        let op = ctx.next_op();
        let root = ctx.tracer.begin("bench.round", op, None);
        let parent = Some(root.id());
        let dir = SimDir::new(CrashProfile::default());
        let mut store = DocumentStore::durable_with_configs(
            Box::new(dir.clone()),
            DurabilityOptions::default(),
            CacheConfig::with_ttl_ms(0.0),
            PlanCacheConfig::default(),
        );
        for (name, doc) in self.names.iter().zip(&self.docs) {
            let copy = doc.clone();
            let (_, insert) = ctx
                .tracer
                .span("store.DocumentStore::insert", op, parent, || {
                    store.insert(name.clone(), copy)
                });
            self.counters.inserts += 1.0;
            self.counters.insert_ms += ms(insert);
        }
        let (report, serve) = ctx
            .tracer
            .span("store.DocumentStore::serve", op, parent, || {
                store.serve(
                    &self.specs,
                    &self.sc.registry,
                    Some(&self.sc.schema),
                    &SchedulerMode::Concurrent { workers: WORKERS },
                    None,
                )
            });
        ctx.tracer
            .annotate(&[("queries", report.total_queries as f64)]);
        // snapshots are O(1); they are compared after the round
        let published: Vec<_> = self
            .names
            .iter()
            .map(|n| store.get(n).expect("document stored"))
            .collect();
        let boot = dir.reopen(CrashProfile::default());
        let (recovered, recover) =
            ctx.tracer
                .span("store.DocumentStore::recover", op, parent, || {
                    DocumentStore::recover(Box::new(boot), DurabilityOptions::default())
                });
        let wall = ctx.tracer.end(root, &[]);

        let mut latencies = Vec::new();
        for (session, (doc, asked)) in report.sessions.iter().zip(&self.asked) {
            for (q, &query) in session.queries.iter().zip(asked) {
                let expected = ctx.reference(doc * self.queries.len() + query);
                ctx.check(expected, &q.answers, q.complete);
                latencies.push(q.wall_ms);
                self.counters.ops += 1.0;
                self.counters.busy_ms += q.wall_ms;
                self.counters.sim_ms += q.sim_time_ms;
            }
        }

        let manager = store.durability().expect("durable store");
        for name in &self.names {
            if manager.failure(name).is_some() {
                ctx.fail();
            }
        }
        let wal = manager.stats();
        let c = &mut self.counters;
        c.rounds += 1.0;
        c.serve_ms += ms(serve);
        c.recover_ms += ms(recover);
        c.appends += wal.appends as f64;
        c.synced += wal.synced_appends as f64;
        c.checkpoints += wal.checkpoints as f64;
        c.cache = c.cache.merged(&store.cache().stats());
        c.plans = c.plans.merged(&store.plans().stats());
        for (name, snapshot) in self.names.iter().zip(&published) {
            c.wal_bytes += dir.persisted(&axml_store::log_file_name(name)).len() as f64;
            c.versions += snapshot.version() as f64;
        }
        match recovered {
            Ok((rstore, rep)) => {
                if !rep.ok() || rep.any_truncated() {
                    ctx.fail();
                }
                for d in &rep.docs {
                    self.counters.frames += d.frames as f64;
                    self.counters.splices += d.splices_replayed as f64;
                }
                // recovery must land on the published version, byte for byte
                for (name, snapshot) in self.names.iter().zip(&published) {
                    let same = rstore.get(name).is_some_and(|s| {
                        s.version() == snapshot.version()
                            && to_xml(&s.to_document()) == to_xml(&snapshot.to_document())
                    });
                    if !same {
                        ctx.fail();
                    }
                }
            }
            Err(_) => ctx.fail(),
        }
        (latencies, ms(wall))
    }
}

impl Setup for DurableMixed {
    type Run<'a> = &'a mut DurableMixed;

    fn build(p: &Params) -> Self {
        let per_doc = match p.size {
            Size::Full => DURABLE_HOTELS_PER_DOC,
            Size::Tiny => 5,
        };
        let sc = hotels_scenario(per_doc * DURABLE_DOCS, mix(p.seed, 0));
        let docs = split_hotels(&sc.doc, DURABLE_DOCS);
        let names: Vec<String> = (0..docs.len()).map(|d| format!("d{d}")).collect();
        let queries = hotel_queries();
        let (specs, asked) =
            tenant_specs(DURABLE_SESSIONS, DURABLE_QUERIES, &names, &queries, |s| {
                SessionOptions {
                    engine: cli_engine(),
                    // even sessions write (they publish what they materialize),
                    // odd ones read beside them
                    snapshot_per_query: s % 2 == 1,
                    ..SessionOptions::default()
                }
            });
        DurableMixed {
            sc,
            docs,
            names,
            queries,
            specs,
            asked,
            counters: DurableCounters::default(),
            net_before: NetStats::default(),
        }
    }

    fn start<'a>(&'a mut self, p: &Params, ctx: &mut Ctx) -> &'a mut DurableMixed {
        let rounds = match p.size {
            Size::Full => DURABLE_WARMUP_ROUNDS,
            Size::Tiny => 1,
        };
        for _ in 0..rounds {
            self.round(ctx);
        }
        self.counters = DurableCounters::default();
        self.net_before = self.sc.registry.stats();
        self
    }
}

impl Run for &mut DurableMixed {
    fn window(&mut self, ctx: &mut Ctx) -> Window {
        let mut w = Window::new(calib::sample_ms());
        for _ in 0..DURABLE_ROUNDS_PER_WINDOW {
            let (latencies, wall_ms) = self.round(ctx);
            w.push(latencies, wall_ms, calib::sample_ms());
        }
        w
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        let c = &self.counters;
        let l = &mut ctx.layers;
        record_cache(l, CacheStats::default(), c.cache, c.ops);
        record_plans(l, PlanCacheStats::default(), c.plans, c.ops);
        record_net(l, &self.net_before, &self.sc.registry.stats(), c.ops);
        l.add_ratio("services.sim_net_ms_per_op", c.sim_ms, c.ops);
        l.add_ratio("xml.versions_per_round", c.versions, c.rounds);
        l.add_ratio("store.sched.round_ms", c.serve_ms, c.rounds);
        l.add_ratio(
            "store.sched.busy_frac",
            c.busy_ms,
            WORKERS as f64 * c.serve_ms,
        );
        l.add_ratio("store.wal.appends_per_round", c.appends, c.rounds);
        l.add_ratio("store.wal.checkpoints_per_round", c.checkpoints, c.rounds);
        l.add_ratio("store.wal.synced_frac", c.synced, c.appends);
        l.add_ratio("store.wal.bytes_per_append", c.wal_bytes, c.appends);
        l.add_ratio("store.wal.insert_ms", c.insert_ms, c.inserts);
        l.add_ratio("store.recover.wall_ms", c.recover_ms, c.rounds);
        l.add_ratio("store.recover.frames", c.frames, c.rounds);
        l.add_ratio("store.recover.splices_replayed", c.splices, c.rounds);
        l.add_ratio("store.recover.us_per_frame", c.recover_ms * 1e3, c.frames);
    }

    fn probe(&self) -> Probe<'_> {
        Probe {
            doc: &self.docs[0],
            queries: &self.queries,
            schema: Some(&self.sc.schema),
            registry: &self.sc.registry,
            config: cli_engine(),
            cache: None,
            plans: None,
        }
    }
}
