//! Feed scenarios for the subscription engine: documents whose
//! intensional parts answer *differently over time*, modelling live
//! data sources behind Web services.
//!
//! Volatility is deterministic: each service keeps a per-key invocation
//! counter and derives its answer from it, so a sequentially pumped
//! refresh loop produces the same value sequence on every run — no
//! wall clock, no RNG at invocation time.
//!
//! Per-service TTLs are returned as plain `(service, ttl_ms)` pairs so
//! callers can build their cache configuration without this crate
//! depending on the store layer.

use axml_query::{parse_query, Pattern};
use axml_services::{FnService, NetProfile, Registry};
use axml_xml::{Document, Forest};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A ready-to-subscribe workload: a document with time-varying
/// intensional parts, the services behind them, the TTL each service's
/// answers stay valid for, and the standing queries that watch it.
pub struct Feed {
    /// The AXML document (calls intact — the subscription engine's base).
    pub doc: Document,
    /// The registry answering the document's calls.
    pub registry: Registry,
    /// Validity window per service, in simulated ms — the refresh
    /// schedule's raw material.
    pub ttls: Vec<(String, f64)>,
    /// Named standing queries to register, in order.
    pub watchers: Vec<(String, Pattern)>,
}

/// Knobs of the hotel price-watcher feed.
#[derive(Clone, Debug)]
pub struct PriceFeedParams {
    /// Hotels in the document.
    pub hotels: usize,
    /// Every `volatile_stride`-th hotel has a price/rating/review stream
    /// that changes on each re-invocation; the rest answer stably (their
    /// re-invocations publish versions whose deltas are empty).
    pub volatile_stride: usize,
}

impl Default for PriceFeedParams {
    fn default() -> Self {
        PriceFeedParams {
            hotels: 50,
            volatile_stride: 2,
        }
    }
}

/// Counter-driven service: answers `render(key, count)` where `count` is
/// how many times the key has been really invoked so far.
fn counting_service(
    name: &str,
    render: impl Fn(&str, u64) -> Forest + Send + Sync + 'static,
) -> FnService<impl Fn(&axml_services::CallRequest) -> Forest + Send + Sync> {
    let counters: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    FnService::new(name, move |req: &axml_services::CallRequest| {
        let key = req.first_text().unwrap_or_default().to_string();
        let mut counters = counters.lock().unwrap();
        let count = counters.entry(key.clone()).or_insert(0);
        let n = *count;
        *count += 1;
        render(&key, n)
    })
}

fn text_forest(text: String) -> Forest {
    let mut f = Forest::new();
    f.add_root_text(text);
    f
}

/// Hotels whose price, rating, review score, nearby restaurants and
/// museum listings all hide behind services with *different* validity
/// windows, so refreshes round-robin through the aspects: review scores
/// lapse often, restaurant listings effectively never. One watcher per
/// aspect; review and museum churn publishes versions the other
/// watchers' scope filters must skip.
pub fn price_feed(params: &PriceFeedParams) -> Feed {
    let stride = params.volatile_stride.max(1);
    let mut doc = Document::with_root("hotels");
    let root = doc.root();
    for i in 0..params.hotels {
        let h = doc.add_element(root, "hotel");
        let n = doc.add_element(h, "name");
        doc.add_text(n, format!("Hotel {i}"));
        let key = format!(
            "{i}|{}",
            if i % stride == 0 {
                "volatile"
            } else {
                "stable"
            }
        );
        for (aspect, service) in [
            ("price", "getPrice"),
            ("rating", "getRating"),
            ("reviews", "getReviews"),
            ("nearby", "getNearbyRestos"),
            ("museums", "getNearbyMuseums"),
        ] {
            let e = doc.add_element(h, aspect);
            let c = doc.add_call(e, service);
            doc.add_text(c, key.clone());
        }
    }

    let volatile = |key: &str, count: u64| -> u64 {
        if key.ends_with("volatile") {
            count
        } else {
            0
        }
    };
    let mut registry = Registry::new();
    registry.register(counting_service("getPrice", move |key, count| {
        let i: u64 = key.split('|').next().unwrap_or("0").parse().unwrap_or(0);
        text_forest(format!("{}", 80 + (i * 7) % 40 + volatile(key, count) * 3))
    }));
    registry.register(counting_service("getRating", move |key, count| {
        let i: u64 = key.split('|').next().unwrap_or("0").parse().unwrap_or(0);
        text_forest("*".repeat((1 + (i + volatile(key, count)) % 5) as usize))
    }));
    registry.register(counting_service("getReviews", move |key, count| {
        text_forest(format!("score {}", 50 + volatile(key, count) % 50))
    }));
    registry.register(counting_service("getNearbyRestos", move |key, count| {
        let mut f = Forest::new();
        let r = f.add_root("restaurant");
        let n = f.add_element(r, "name");
        f.add_text(n, format!("Resto {}", volatile(key, count) % 3));
        f
    }));
    registry.register(counting_service("getNearbyMuseums", move |key, count| {
        let mut f = Forest::new();
        let m = f.add_root("museum");
        let n = f.add_element(m, "name");
        f.add_text(n, format!("Museum {}", volatile(key, count) % 2));
        f
    }));

    registry.set_default_profile(NetProfile::latency(5.0));

    // deliberately non-harmonic windows: lapses rarely coincide, so most
    // published versions touch exactly one aspect — the workload where
    // scope-filtered reconciliation pays
    let ttls = vec![
        ("getPrice".to_string(), 1300.0),
        ("getRating".to_string(), 1700.0),
        ("getReviews".to_string(), 130.0),
        ("getNearbyRestos".to_string(), 2900.0),
        ("getNearbyMuseums".to_string(), 710.0),
    ];
    let watchers = vec![
        (
            "price-watch".to_string(),
            parse_query("/hotels/hotel[name=$N][price=$P] -> $N,$P").expect("price query"),
        ),
        (
            "rating-watch".to_string(),
            parse_query("/hotels/hotel[name=$N][rating=$R] -> $N,$R").expect("rating query"),
        ),
        (
            "review-ticker".to_string(),
            parse_query("/hotels/hotel[name=$N][reviews=$V] -> $N,$V").expect("review query"),
        ),
        (
            "museum-watch".to_string(),
            parse_query("/hotels/hotel[name=$N]/museums/museum[name=$M] -> $N,$M")
                .expect("museum query"),
        ),
        // the restaurant listing's validity window outlives typical run
        // horizons: this watcher is the (common) mostly-idle standing
        // query, whose scope filter skips every version other aspects
        // publish
        (
            "resto-watch".to_string(),
            parse_query("/hotels/hotel[name=$N]/nearby/restaurant[name=$R] -> $N,$R")
                .expect("resto query"),
        ),
    ];
    Feed {
        doc,
        registry,
        ttls,
        watchers,
    }
}

/// Knobs of the auction-ticker feed.
#[derive(Clone, Debug)]
pub struct AuctionFeedParams {
    /// Auctions in the document.
    pub auctions: usize,
}

impl Default for AuctionFeedParams {
    fn default() -> Self {
        AuctionFeedParams { auctions: 10 }
    }
}

/// Auctions whose bid lists tick behind a short-TTL `getBids` service.
/// Each `getBids` answer *contains a further call* (`getHighBid`), so
/// every refresh exercises nested invocation — the workload the
/// `refresh_depth` / `max_refires` guardrails exist for.
pub fn auction_feed(params: &AuctionFeedParams) -> Feed {
    let mut doc = Document::with_root("site");
    let root = doc.root();
    for i in 0..params.auctions {
        let a = doc.add_element(root, "auction");
        let item = doc.add_element(a, "item");
        doc.add_text(item, format!("item {i}"));
        let bids = doc.add_element(a, "bids");
        let c = doc.add_call(bids, "getBids");
        doc.add_text(c, format!("item {i}"));
    }

    let mut registry = Registry::new();
    registry.register(counting_service("getBids", |key, count| {
        let mut f = Forest::new();
        let b = f.add_root("bid");
        let amount = f.add_element(b, "amount");
        f.add_text(amount, format!("{}", 100 + count * 10));
        // the current high bid is itself intensional: a nested call the
        // lazy engine must chase on every refresh
        let c = f.add_root_call("getHighBid");
        f.add_text(c, key.to_string());
        f
    }));
    registry.register(counting_service("getHighBid", |_key, count| {
        let mut f = Forest::new();
        let b = f.add_root("bid");
        let amount = f.add_element(b, "amount");
        f.add_text(amount, format!("{}", 200 + count * 10));
        f
    }));

    registry.set_default_profile(NetProfile::latency(5.0));

    let ttls = vec![
        ("getBids".to_string(), 100.0),
        ("getHighBid".to_string(), 100.0),
    ];
    let watchers = vec![(
        "ticker".to_string(),
        parse_query("/site/auction[item=$I]/bids/bid[amount=$A] -> $I,$A").expect("ticker query"),
    )];
    Feed {
        doc,
        registry,
        ttls,
        watchers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_services::CallRequest;

    fn params(key: &str) -> Forest {
        let mut f = Forest::new();
        f.add_root_text(key);
        f
    }

    fn invoke(registry: &Registry, service: &str, key: &str) -> String {
        let params = params(key);
        let req = CallRequest::of_forest(&params);
        let outcome = registry.invoke_within(service, &req, None, f64::INFINITY);
        axml_xml::to_xml(&outcome.unwrap().result)
    }

    #[test]
    fn volatile_keys_change_per_invocation_stable_keys_do_not() {
        let feed = price_feed(&PriceFeedParams {
            hotels: 4,
            volatile_stride: 2,
        });
        let a1 = invoke(&feed.registry, "getPrice", "0|volatile");
        let a2 = invoke(&feed.registry, "getPrice", "0|volatile");
        assert_ne!(a1, a2);
        let s1 = invoke(&feed.registry, "getPrice", "1|stable");
        let s2 = invoke(&feed.registry, "getPrice", "1|stable");
        assert_eq!(s1, s2);
    }

    #[test]
    fn price_feed_document_shape() {
        let feed = price_feed(&PriceFeedParams {
            hotels: 3,
            volatile_stride: 2,
        });
        // five calls per hotel, one per aspect
        assert_eq!(feed.doc.calls().len(), 15);
        assert_eq!(feed.watchers.len(), 5);
        assert_eq!(feed.ttls.len(), 5);
        for c in feed.doc.calls() {
            let (_, svc) = feed.doc.call_info(c).unwrap();
            assert!(feed.registry.has_service(svc.as_str()), "{svc}");
        }
    }

    #[test]
    fn auction_bids_nest_a_further_call() {
        let feed = auction_feed(&AuctionFeedParams { auctions: 2 });
        let params = params("item 0");
        let req = CallRequest::of_forest(&params);
        let outcome = feed
            .registry
            .invoke_within("getBids", &req, None, f64::INFINITY)
            .unwrap();
        let answer = outcome.result;
        let has_nested_call = answer
            .roots()
            .iter()
            .any(|&r| matches!(answer.kind(r), axml_xml::NodeKind::Call(_)));
        assert!(has_nested_call);
    }
}
