//! The in-place refresh against the refresh it replaced. The reference
//! below re-completes the *base* document for every watcher at every
//! refresh, through its own cache, and publishes when a call was invoked.
//! It drives a twin world: the same document and watchers, with its own
//! feed registry, store and cache, so both worlds' services count their
//! invocations alike.
//!
//! With no network latency both worlds see the same lapses at the same
//! instants, so they must publish at the same cycles, every watcher's
//! answer must equal a full evaluation of the reference's latest version,
//! and wherever no still-valid result became irrelevant the two published
//! documents must serialize alike. With the feeds' own latency the twins
//! drift apart, so there the in-place world is checked against the delta
//! oracle and against cache-less full evaluation of each version.

use axml_core::{Engine, EngineConfig};
use axml_gen::feeds::{auction_feed, price_feed, AuctionFeedParams, Feed, PriceFeedParams};
use axml_query::{parse_query, render_result, Pattern};
use axml_services::{CallRequest, FnService, NetProfile, Registry};
use axml_store::{CacheConfig, CallCache, DocumentStore};
use axml_sub::{check_subscription, Delta, SubscriptionEngine, SubscriptionOptions};
use axml_xml::{parse, to_xml, CatchUp, Document, Forest};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

fn cache_config(ttls: &[(String, f64)]) -> CacheConfig {
    let mut config = CacheConfig::with_ttl_ms(f64::INFINITY);
    for (service, ttl) in ttls {
        config = config.ttl_for(service.clone(), *ttl);
    }
    config
}

/// The answer of a cache-less full evaluation of `query` on `doc`, which
/// must be complete without invoking anything.
fn full_answer(doc: &Document, registry: &Registry, query: &Pattern) -> BTreeSet<Vec<String>> {
    let mut working = doc.clone();
    let report = Engine::new(registry, EngineConfig::default()).evaluate(&mut working, query);
    assert!(report.complete, "a published version answers completely");
    assert_eq!(
        report.stats.calls_invoked, 0,
        "a published version holds every call a watcher needs"
    );
    render_result(&working, &report.result)
        .into_iter()
        .collect()
}

/// The from-base refresh, kept as the reference.
struct FromBase<'a> {
    base: Document,
    registry: &'a Registry,
    cache: CallCache,
    watchers: Vec<Pattern>,
    clock_ms: f64,
    /// The latest published version: the base before any publication.
    published: Document,
}

impl<'a> FromBase<'a> {
    fn new(feed: &'a Feed) -> Self {
        FromBase {
            base: feed.doc.clone(),
            registry: &feed.registry,
            cache: CallCache::new(cache_config(&feed.ttls)),
            watchers: feed.watchers.iter().map(|(_, q)| q.clone()).collect(),
            clock_ms: 0.0,
            published: feed.doc.clone(),
        }
    }

    fn engine(&self) -> Engine<'_> {
        Engine::new(self.registry, EngineConfig::default())
            .with_cache(&self.cache)
            .starting_at(self.clock_ms)
    }

    /// What subscribing does: each watcher evaluated on a copy of the
    /// published version through the cache.
    fn subscribe_all(&mut self) {
        for i in 0..self.watchers.len() {
            let mut working = self.published.clone();
            let report = self.engine().evaluate(&mut working, &self.watchers[i]);
            self.clock_ms += report.stats.sim_time_ms;
        }
    }

    /// Re-completes the base for every watcher; publishes, and returns
    /// `true`, when a call was invoked.
    fn refresh(&mut self) -> bool {
        let mut working = self.base.clone();
        let mut invoked = false;
        for i in 0..self.watchers.len() {
            let done = self.engine().complete_for(&mut working, &self.watchers[i]);
            self.clock_ms += done.stats.sim_time_ms;
            invoked |= done.stats.calls_invoked > 0;
            assert!(done.stats.is_complete());
        }
        if invoked {
            self.published = working;
        }
        invoked
    }
}

/// What a lockstep run saw.
#[derive(Debug, Default)]
struct Seen {
    publications: usize,
    /// Cycles whose two published versions serialized differently.
    differing: usize,
    /// Cache hits in the in-place world after its first refresh.
    later_hits: u64,
}

/// Runs `cycles` lapse cycles of the in-place world and of the reference
/// world, both built by `world` and without network latency, and checks
/// them against each other at every cycle.
fn lockstep(world: impl Fn() -> Feed, cycles: usize) -> Seen {
    let (mut mine, mut twin) = (world(), world());
    for feed in [&mut mine, &mut twin] {
        feed.registry.set_default_profile(NetProfile::latency(0.0));
    }
    let mut store = DocumentStore::with_cache_config(cache_config(&mine.ttls));
    store.insert("feed", mine.doc.clone());
    let options = SubscriptionOptions {
        history_capacity: 4096,
        ..SubscriptionOptions::default()
    };
    let mut engine = SubscriptionEngine::over_store(&store, "feed", &mine.registry, None, options)
        .expect("feed stored");
    let mut reference = FromBase::new(&twin);
    for (name, query) in &mine.watchers {
        engine.subscribe(name.clone(), query.clone());
    }
    reference.subscribe_all();
    let mut seen = Seen::default();
    let mut hits_after_first = None;
    for cycle in 0..cycles {
        let lapse = store.cache().earliest_expiry();
        assert_eq!(lapse, reference.cache.earliest_expiry(), "cycle {cycle}");
        let Some(lapse) = lapse else { break };
        engine.advance_clock((lapse - engine.clock_ms()).max(0.0));
        reference.clock_ms = reference.clock_ms.max(lapse);
        let published = engine.refresh().is_some();
        assert_eq!(
            published,
            reference.refresh(),
            "cycle {cycle}: publications"
        );
        seen.publications += usize::from(published);
        hits_after_first.get_or_insert(store.cache().stats().hits);
        engine.reconcile();
        store.cache().purge_expired(engine.clock_ms());
        reference.cache.purge_expired(reference.clock_ms);
        assert_eq!(engine.clock_ms(), reference.clock_ms, "cycle {cycle}");
        for (name, query) in &twin.watchers {
            assert_eq!(
                engine.answers(name),
                Some(&full_answer(&reference.published, &twin.registry, query)),
                "cycle {cycle}: {name}"
            );
        }
        let latest = store.get("feed").expect("feed stored");
        seen.differing += usize::from(to_xml(&latest) != to_xml(&reference.published));
    }
    seen.later_hits = store.cache().stats().hits - hits_after_first.unwrap_or(0);
    seen
}

/// A forest from its serialization, which may hold several roots or none.
fn forest(xml: &str) -> Forest {
    let wrapped = parse(&format!("<w>{xml}</w>")).expect("well-formed");
    let mut f = Forest::new();
    for &c in wrapped.children(wrapped.root()) {
        f.append_copy_as_root(&wrapped, c);
    }
    f
}

/// A service answering `answer(key, n)` at the `n`th invocation for the
/// call's first parameter text `key`.
fn counting(
    name: &str,
    answer: impl Fn(&str, u64) -> String + Send + Sync + 'static,
) -> FnService<impl Fn(&CallRequest) -> Forest + Send + Sync> {
    let counts: Mutex<HashMap<String, u64>> = Mutex::default();
    FnService::new(name, move |req: &CallRequest| {
        let key = req.first_text().unwrap_or_default();
        let n = {
            let mut counts = counts.lock().unwrap();
            let count = counts.entry(key.to_string()).or_insert(0);
            *count += 1;
            *count - 1
        };
        forest(&answer(key, n))
    })
}

fn feed(doc: &str, services: Vec<(&str, f64)>, watchers: &[&str]) -> Feed {
    Feed {
        doc: parse(doc).expect("well-formed"),
        registry: Registry::new(),
        ttls: (services.iter())
            .map(|(s, ttl)| (s.to_string(), *ttl))
            .collect(),
        watchers: (watchers.iter().enumerate())
            .map(|(i, q)| (format!("w{i}"), parse_query(q).expect("query")))
            .collect(),
    }
}

/// Calls that share a parent with data and with each other, answering
/// by turns no root, one and two, on two different validity windows: a
/// lapsed call goes back between siblings whose runs grew and shrank.
fn siblings() -> Feed {
    let hotel = |i: usize| {
        format!(
            "<hotel><name>H{i}</name><deals><first/>\
             <axml:call service=\"getDeal\">a{i}</axml:call><sep/>\
             <axml:call service=\"getPromo\">b{i}</axml:call>\
             <axml:call service=\"getDeal\">c{i}</axml:call><last/></deals></hotel>"
        )
    };
    let doc = format!("<hotels>{}</hotels>", (0..3).map(hotel).collect::<String>());
    let mut f = feed(
        &doc,
        vec![("getDeal", 100.0), ("getPromo", 170.0)],
        &[
            "/hotels/hotel[name=$N]/deals/deal/$D -> $N,$D",
            "/hotels/hotel[name=$N]/deals/promo/$P -> $N,$P",
        ],
    );
    let runs = |tag: &'static str| {
        move |key: &str, n: u64| {
            (0..n % 3)
                .map(|k| format!("<{tag}>{key}-{n}-{k}</{tag}>"))
                .collect::<String>()
        }
    };
    f.registry.register(counting("getDeal", runs("deal")));
    f.registry.register(counting("getPromo", runs("promo")));
    f
}

/// Bids whose high bid is a call nested one element deep in the result,
/// lapsing before the bid list that holds it.
fn deep() -> Feed {
    let auction = |i: usize| {
        format!(
            "<auction><item>I{i}</item><bids>\
             <axml:call service=\"getBids\">I{i}</axml:call></bids></auction>"
        )
    };
    let doc = format!("<site>{}</site>", (0..3).map(auction).collect::<String>());
    let mut f = feed(
        &doc,
        vec![("getBids", 300.0), ("getHighBid", 100.0)],
        &["/site/auction[item=$I]/bids/bid/high/amount/$A -> $I,$A"],
    );
    f.registry.register(counting("getBids", |key, n| {
        format!(
            "<bid><amount>{n}</amount><high>\
             <axml:call service=\"getHighBid\">{key}</axml:call></high></bid>"
        )
    }));
    f.registry.register(counting("getHighBid", |_, n| {
        format!("<amount>{}</amount>", 100 + n)
    }));
    f
}

/// A call at the document root whose answer changes at every invocation.
fn root_call() -> Feed {
    let mut f = feed(
        "<axml:call service=\"getHotels\"/>",
        vec![("getHotels", 100.0)],
        &["/hotels/hotel/name/$N -> $N"],
    );
    f.registry.register(counting("getHotels", |_, n| {
        format!("<hotels><hotel><name>H{n}</name></hotel></hotels>")
    }));
    f
}

/// Prices gated on a rating that drops from five stars to one at its
/// first re-invocation: a price still valid then is no longer relevant.
fn gated() -> Feed {
    let hotel = |i: usize| {
        format!(
            "<hotel><name>H{i}</name>\
             <rating><axml:call service=\"getRating\">{i}</axml:call></rating>\
             <price><axml:call service=\"getPrice\">{i}</axml:call></price></hotel>"
        )
    };
    let doc = format!("<hotels>{}</hotels>", (0..2).map(hotel).collect::<String>());
    let mut f = feed(
        &doc,
        vec![("getRating", 150.0), ("getPrice", 100.0)],
        &["/hotels/hotel[rating=\"*****\"][name=$N]/price/$P -> $N,$P"],
    );
    f.registry.register(counting("getRating", |_, n| {
        (if n == 0 { "*****" } else { "*" }).to_string()
    }));
    f.registry
        .register(counting("getPrice", |_, n| format!("{}", 100 + n)));
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The price feed at several sizes and strides, with random validity
    /// windows: the two refreshes publish the same documents and answers
    /// at every cycle, and after its first refresh the in-place world
    /// probes no still-valid entry.
    #[test]
    fn price_feed_refreshes_in_place_like_from_the_base(
        hotels in 1usize..12,
        stride in 1usize..4,
        ttls in proptest::collection::vec(20.0f64..400.0, 5),
        cycles in 10usize..60,
    ) {
        let world = || {
            let mut feed = price_feed(&PriceFeedParams { hotels, volatile_stride: stride });
            for ((_, ttl), random) in feed.ttls.iter_mut().zip(&ttls) {
                *ttl = random.round();
            }
            feed
        };
        let seen = lockstep(world, cycles);
        prop_assert_eq!(seen.differing, 0);
        prop_assert_eq!(seen.later_hits, 0);
    }
}

#[test]
fn price_feed_at_its_own_windows_refreshes_like_from_the_base() {
    let seen = lockstep(
        || {
            price_feed(&PriceFeedParams {
                hotels: 20,
                volatile_stride: 2,
            })
        },
        200,
    );
    assert!(seen.publications > 100, "{seen:?}");
    assert_eq!((seen.differing, seen.later_hits), (0, 0), "{seen:?}");
}

/// Each bid list holds a call among its result's roots. With equal
/// windows the nested call lapses with its bid list; with a shorter one
/// it lapses first, and re-pends the bid list, whose still-valid result
/// comes back as a cache hit.
#[test]
fn auction_feed_with_nested_root_calls_refreshes_like_from_the_base() {
    for high_bid_ttl in [100.0, 40.0] {
        let world = || {
            let mut feed = auction_feed(&AuctionFeedParams { auctions: 4 });
            for (service, ttl) in &mut feed.ttls {
                if service == "getHighBid" {
                    *ttl = high_bid_ttl;
                }
            }
            feed
        };
        let seen = lockstep(world, 40);
        assert!(seen.publications >= 20, "{seen:?}");
        assert_eq!(seen.differing, 0, "{seen:?}");
    }
}

#[test]
fn deeper_nested_calls_refresh_like_from_the_base() {
    let seen = lockstep(deep, 40);
    assert!(seen.publications >= 20, "{seen:?}");
    assert_eq!(seen.differing, 0, "{seen:?}");
    // a lapsed high bid re-pends its bid list, which comes back from the
    // cache while its own entry is valid
    assert!(seen.later_hits > 0, "{seen:?}");
}

#[test]
fn sibling_runs_of_every_size_refresh_like_from_the_base() {
    let seen = lockstep(siblings, 60);
    assert!(seen.publications >= 30, "{seen:?}");
    assert_eq!((seen.differing, seen.later_hits), (0, 0), "{seen:?}");
}

#[test]
fn a_root_call_refreshes_like_from_the_base() {
    let seen = lockstep(root_call, 20);
    assert_eq!(seen.publications, 20, "{seen:?}");
    assert_eq!((seen.differing, seen.later_hits), (0, 0), "{seen:?}");
}

/// The rating drops at its first re-invocation, while the price is still
/// valid: the in-place world keeps that price, which the reference drops,
/// and the answers agree. When the price lapses it is re-pended and stays
/// pending, and the next publication names its path.
#[test]
fn a_call_that_stops_being_relevant_stays_pending_and_tagged() {
    let seen = lockstep(gated, 8);
    assert!(
        seen.differing > 0,
        "the in-place world kept a price: {seen:?}"
    );

    let mut feed = gated();
    feed.registry.set_default_profile(NetProfile::latency(0.0));
    let mut store = DocumentStore::with_cache_config(cache_config(&feed.ttls));
    store.insert("feed", feed.doc.clone());
    let options = SubscriptionOptions {
        history_capacity: 4096,
        ..SubscriptionOptions::default()
    };
    let mut engine = SubscriptionEngine::over_store(&store, "feed", &feed.registry, None, options)
        .expect("feed stored");
    for (name, query) in &feed.watchers {
        engine.subscribe(name.clone(), query.clone());
    }
    engine.run_until(320.0);
    let price = vec!["hotels", "hotel", "price"];
    let CatchUp::Records(records) = store.versioned("feed").unwrap().publications_since(0) else {
        panic!("history reaches back to the start");
    };
    let last = records.last().expect("the feed published");
    assert!(
        to_xml(&last.doc).contains("<price><axml:call service=\"getPrice\">"),
        "{}",
        to_xml(&last.doc)
    );
    let classes = last.changed_classes.as_ref().expect("a tagged publication");
    let paths: Vec<Vec<&str>> = (classes.iter())
        .map(|&c| {
            (last.doc.class_path(c).iter())
                .map(|&s| last.doc.sym_text(s))
                .collect()
        })
        .collect();
    assert!(paths.contains(&price), "{paths:?}");
    assert!(engine.answers("w0").unwrap().is_empty());
}

/// With 5 ms of network latency, the feeds' own: the delta stream replays to full
/// re-evaluation at every version, and every published version answers a
/// cache-less full evaluation of every watcher without invoking anything.
#[test]
fn with_network_latency_every_version_is_complete_and_replays() {
    let worlds: [fn() -> Feed; 4] = [
        || {
            price_feed(&PriceFeedParams {
                hotels: 10,
                volatile_stride: 2,
            })
        },
        || auction_feed(&AuctionFeedParams { auctions: 3 }),
        siblings,
        deep,
    ];
    for world in worlds {
        let mut feed = world();
        feed.registry.set_default_profile(NetProfile::latency(5.0));
        let mut store = DocumentStore::with_cache_config(cache_config(&feed.ttls));
        store.insert("feed", feed.doc.clone());
        let options = SubscriptionOptions {
            history_capacity: 4096,
            ..SubscriptionOptions::default()
        };
        let mut engine =
            SubscriptionEngine::over_store(&store, "feed", &feed.registry, None, options)
                .expect("feed stored");
        let initials: Vec<_> = (feed.watchers.iter())
            .map(|(name, query)| engine.subscribe(name.clone(), query.clone()))
            .collect();
        let deltas = engine.run_until(1500.0);
        assert!(engine.stats().publications > 5, "{:?}", engine.stats());
        let doc = store.versioned("feed").expect("feed stored");
        for ((name, query), initial) in feed.watchers.iter().zip(&initials) {
            let mine: Vec<Delta> = (deltas.iter())
                .filter(|d| &d.subscription == name)
                .cloned()
                .collect();
            check_subscription(doc, &feed.registry, None, query, initial, 0, &mine).assert_clean();
        }
        let CatchUp::Records(records) = doc.publications_since(0) else {
            panic!("history reaches back to the start");
        };
        for record in &records {
            for (_, query) in &feed.watchers {
                full_answer(&record.doc, &feed.registry, query);
            }
        }
    }
}
