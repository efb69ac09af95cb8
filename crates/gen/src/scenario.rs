//! The paper's running example: the night-life / hotels scenario of
//! Figures 1–4, both as the exact four-hotel document of Figure 1 and as a
//! parameterized generator used by the experiment harness.

use axml_query::{parse_query, Pattern};
use axml_schema::{figure2_schema, Schema};
use axml_services::{Registry, StaticService, TableService};
use axml_xml::{Document, Forest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A ready-to-run workload: document + services + schema (shared by the
/// hotels and auctions domains).
pub struct Scenario {
    /// The AXML document (hotels with intensional parts).
    pub doc: Document,
    /// The registry answering `getHotels`, `getRating`, `getNearbyRestos`
    /// and `getNearbyMuseums`.
    pub registry: Registry,
    /// The Figure 2 schema.
    pub schema: Schema,
}

/// The query of Figure 4: names and addresses of five-star restaurants
/// near five-star "Best Western" hotels.
pub fn figure4_query() -> Pattern {
    parse_query(
        "/hotels/hotel[name=\"Best Western\"][rating=\"*****\"]\
         /nearby//restaurant[name=$X][address=$Y][rating=\"*****\"] -> $X,$Y",
    )
    .expect("figure 4 query parses")
}

fn stars(n: u32) -> String {
    "*".repeat(n as usize)
}

fn add_restaurant(f: &mut Forest, parent: axml_xml::NodeId, name: &str, addr: &str, rating: u32) {
    let r = f.add_element(parent, "restaurant");
    let n = f.add_element(r, "name");
    f.add_text(n, name);
    let a = f.add_element(r, "address");
    f.add_text(a, addr);
    let rt = f.add_element(r, "rating");
    f.add_text(rt, stars(rating));
}

fn add_museum(f: &mut Forest, parent: axml_xml::NodeId, name: &str, addr: &str) {
    let m = f.add_element(parent, "museum");
    let n = f.add_element(m, "name");
    f.add_text(n, name);
    let a = f.add_element(m, "address");
    f.add_text(a, addr);
}

/// Builds the exact document of Figure 1 (with OCR-eaten names restored):
/// four hotels and ten numbered calls; calls 1, 3, 4 and 10 are the ones
/// relevant for the Figure 4 query under typing (Section 2's discussion).
pub fn figure1() -> Scenario {
    let schema = figure2_schema();
    let mut doc = Document::with_root("hotels");
    let root = doc.root();

    // hotel 1: Best Western, 75 2nd Av, ***** extensional
    {
        let h = doc.add_element(root, "hotel");
        let n = doc.add_element(h, "name");
        doc.add_text(n, "Best Western");
        let a = doc.add_element(h, "address");
        doc.add_text(a, "75, 2nd Av.");
        let r = doc.add_element(h, "rating");
        doc.add_text(r, "*****");
        let nb = doc.add_element(h, "nearby");
        // call 1: getNearbyRestos("2nd Av.")  — relevant
        let c1 = doc.add_call(nb, "getNearbyRestos");
        doc.add_text(c1, "2nd Av.");
        // call 2: getNearbyMuseums("2nd Av.") — irrelevant under typing
        let c2 = doc.add_call(nb, "getNearbyMuseums");
        doc.add_text(c2, "2nd Av.");
    }
    // hotel 2: Best Western (Madison), rating intensional
    {
        let h = doc.add_element(root, "hotel");
        let n = doc.add_element(h, "name");
        doc.add_text(n, "Best Western");
        let a = doc.add_element(h, "address");
        doc.add_text(a, "22 Madison Av.");
        let r = doc.add_element(h, "rating");
        // call 3: getRating("Best Western Madison") — relevant
        let c3 = doc.add_call(r, "getRating");
        doc.add_text(c3, "Best Western Madison");
        let nb = doc.add_element(h, "nearby");
        // call 4: getNearbyRestos("Madison Av.") — relevant
        let c4 = doc.add_call(nb, "getNearbyRestos");
        doc.add_text(c4, "Madison Av.");
        // call 5: getNearbyMuseums("Madison Av.") — irrelevant under typing
        let c5 = doc.add_call(nb, "getNearbyMuseums");
        doc.add_text(c5, "Madison Av.");
    }
    // hotel 3: Pennsylvania — name mismatch, everything irrelevant
    {
        let h = doc.add_element(root, "hotel");
        let n = doc.add_element(h, "name");
        doc.add_text(n, "Pennsylvania");
        let a = doc.add_element(h, "address");
        doc.add_text(a, "13 Penn St.");
        let r = doc.add_element(h, "rating");
        // call 8: getRating("Pennsylvania") — irrelevant (name mismatch)
        let c8 = doc.add_call(r, "getRating");
        doc.add_text(c8, "Pennsylvania");
        let nb = doc.add_element(h, "nearby");
        // call 9: getNearbyRestos("Penn St.") — irrelevant (name mismatch)
        let c9 = doc.add_call(nb, "getNearbyRestos");
        doc.add_text(c9, "Penn St.");
    }
    // hotel 4: Best Western (34th St) — only museums nearby: under typing
    // no restaurant can ever appear, so call 6 is irrelevant too
    {
        let h = doc.add_element(root, "hotel");
        let n = doc.add_element(h, "name");
        doc.add_text(n, "Best Western");
        let a = doc.add_element(h, "address");
        doc.add_text(a, "12 34th St. W");
        let r = doc.add_element(h, "rating");
        // call 6: getRating("Best Western 34th St.")
        let c6 = doc.add_call(r, "getRating");
        doc.add_text(c6, "Best Western 34th St.");
        let nb = doc.add_element(h, "nearby");
        // call 7: getNearbyMuseums("34th St.")
        let c7 = doc.add_call(nb, "getNearbyMuseums");
        doc.add_text(c7, "34th St.");
    }
    // call 10: getHotels("NY") — relevant
    let c10 = doc.add_call(root, "getHotels");
    doc.add_text(c10, "NY");

    let mut registry = Registry::new();
    // getRating: Madison is five-star, the others are not; "Jo Madison" is
    // the nested call inside getNearbyRestos("Madison Av.")'s result
    let mut ratings = TableService::new("getRating");
    for (key, r) in [
        ("Best Western Madison", 5u32),
        ("Pennsylvania", 3),
        ("Best Western 34th St.", 2),
        ("Jo Madison", 4),
    ] {
        let mut f = Forest::new();
        f.add_root_text(stars(r));
        ratings.insert(key, f);
    }
    registry.register(ratings);

    // getNearbyRestos keyed by street
    let mut restos = TableService::new("getNearbyRestos");
    {
        let mut f = Forest::new();
        let holder = f.add_root("tmp");
        add_restaurant(&mut f, holder, "In Delis", "2nd Ave.", 5);
        add_restaurant(&mut f, holder, "The Capital", "2nd Ave.", 5);
        add_restaurant(&mut f, holder, "Grease", "2nd Ave.", 1);
        // flatten: use children of tmp as roots
        let restos_forest = flatten(&f, holder);
        restos.insert("2nd Av.", restos_forest);
    }
    {
        let mut f = Forest::new();
        let holder = f.add_root("tmp");
        add_restaurant(&mut f, holder, "Mama", "Madison Av.", 5);
        // Mama's rating arrives extensionally; add one with a nested call
        let r = f.add_element(holder, "restaurant");
        let n = f.add_element(r, "name");
        f.add_text(n, "Jo");
        let a = f.add_element(r, "address");
        f.add_text(a, "Madison Av.");
        let rt = f.add_element(r, "rating");
        let c = f.add_call(rt, "getRating");
        f.add_text(c, "Jo Madison");
        restos.insert("Madison Av.", flatten(&f, holder));
    }
    {
        let mut f = Forest::new();
        let holder = f.add_root("tmp");
        add_restaurant(&mut f, holder, "Penn Grill", "Penn St.", 5);
        restos.insert("Penn St.", flatten(&f, holder));
    }
    registry.register(restos);

    // getNearbyMuseums keyed by street
    let mut museums = TableService::new("getNearbyMuseums");
    for key in ["2nd Av.", "Madison Av.", "34th St."] {
        let mut f = Forest::new();
        let holder = f.add_root("tmp");
        add_museum(&mut f, holder, "MoMA", "53rd St.");
        museums.insert(key, flatten(&f, holder));
    }
    registry.register(museums);

    // getHotels("NY"): one extra extensional qualifying hotel
    let mut hotels_f = Forest::new();
    {
        let h = hotels_f.add_root("hotel");
        let n = hotels_f.add_element(h, "name");
        hotels_f.add_text(n, "Best Western");
        let a = hotels_f.add_element(h, "address");
        hotels_f.add_text(a, "1 Broadway");
        let r = hotels_f.add_element(h, "rating");
        hotels_f.add_text(r, "*****");
        let nb = hotels_f.add_element(h, "nearby");
        add_restaurant(&mut hotels_f, nb, "Bowling Green Cafe", "Broadway", 5);
    }
    registry.register(StaticService::new("getHotels", hotels_f));

    Scenario {
        doc,
        registry,
        schema,
    }
}

/// Rebuilds a forest from the children of a holder node.
fn flatten(f: &Forest, holder: axml_xml::NodeId) -> Forest {
    let mut out = Forest::new();
    for &c in f.children(holder) {
        out.append_copy_as_root(f, c);
    }
    out
}

/// Knobs of the scaled hotels workload.
#[derive(Clone, Debug)]
pub struct ScenarioParams {
    /// Number of hotels materialized in the document.
    pub hotels: usize,
    /// Fraction of hotels named "Best Western" (the query's name filter).
    pub matching_name_fraction: f64,
    /// Fraction of hotels with a five-star rating.
    pub five_star_fraction: f64,
    /// Fraction of hotels whose rating is an embedded `getRating` call.
    pub intensional_rating_fraction: f64,
    /// Fraction of hotels whose restaurants hide behind `getNearbyRestos`.
    pub intensional_restos_fraction: f64,
    /// Restaurants per hotel (served or materialized).
    pub restos_per_hotel: usize,
    /// Museums per hotel, behind `getNearbyMuseums` calls.
    pub museums_per_hotel: usize,
    /// Fraction of restaurants rated five stars (push-query selectivity).
    pub five_star_resto_fraction: f64,
    /// Extra hotels only reachable through a `getHotels` call.
    pub intensional_hotels: usize,
    /// Add a `getReviews` call per hotel under a `reviews` element — an
    /// *off-path* distractor (like the intro's `/goingout/restaurants`
    /// calls) that even position-only LPQ pruning can skip.
    pub reviews: bool,
    /// RNG seed (everything is deterministic given the seed).
    pub seed: u64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            hotels: 50,
            matching_name_fraction: 0.3,
            five_star_fraction: 0.3,
            intensional_rating_fraction: 0.5,
            intensional_restos_fraction: 0.7,
            restos_per_hotel: 5,
            museums_per_hotel: 3,
            five_star_resto_fraction: 0.3,
            intensional_hotels: 5,
            reviews: true,
            seed: 42,
        }
    }
}

/// The Figure 2 schema extended with the `reviews` distractor used by the
/// scaled generator.
pub fn extended_schema() -> Schema {
    let mut s = figure2_schema();
    s.add_element(
        "hotel",
        axml_schema::parse_re("name.address.rating.nearby.reviews?").unwrap(),
    );
    s.add_element(
        "reviews",
        axml_schema::parse_re("(review | getReviews)*").unwrap(),
    );
    s.add_element("review", axml_schema::LabelRe::Data);
    s.add_function(
        "getReviews",
        axml_schema::LabelRe::Data,
        axml_schema::parse_re("review*").unwrap(),
    );
    s
}

/// Generates a scaled hotels workload.
pub fn generate(params: &ScenarioParams) -> Scenario {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let schema = extended_schema();
    let mut doc = Document::with_root("hotels");
    let root = doc.root();

    let mut ratings = TableService::new("getRating");
    let mut restos = TableService::new("getNearbyRestos");
    let mut museums = TableService::new("getNearbyMuseums");
    let mut reviews = TableService::new("getReviews");

    let emit_hotel = |doc: &mut Document,
                      parent: axml_xml::NodeId,
                      i: usize,
                      rng: &mut StdRng,
                      ratings: &mut TableService,
                      restos: &mut TableService,
                      museums: &mut TableService,
                      reviews: &mut TableService| {
        let name = if rng.gen_bool(params.matching_name_fraction) {
            "Best Western".to_string()
        } else {
            format!("Hotel {i}")
        };
        let addr = format!("{i} Main St.");
        let stars_n = if rng.gen_bool(params.five_star_fraction) {
            5
        } else {
            1 + rng.gen_range(0..4) as u32
        };
        let h = doc.add_element(parent, "hotel");
        let n = doc.add_element(h, "name");
        doc.add_text(n, name);
        let a = doc.add_element(h, "address");
        doc.add_text(a, addr.clone());
        let r = doc.add_element(h, "rating");
        if rng.gen_bool(params.intensional_rating_fraction) {
            let c = doc.add_call(r, "getRating");
            doc.add_text(c, addr.clone());
            let mut f = Forest::new();
            f.add_root_text(stars(stars_n));
            ratings.insert(addr.clone(), f);
        } else {
            doc.add_text(r, stars(stars_n));
        }
        let nb = doc.add_element(h, "nearby");
        // restaurants
        let mut resto_forest = Forest::new();
        let holder = resto_forest.add_root("tmp");
        for k in 0..params.restos_per_hotel {
            let rrating = if rng.gen_bool(params.five_star_resto_fraction) {
                5
            } else {
                1 + rng.gen_range(0..4) as u32
            };
            add_restaurant(
                &mut resto_forest,
                holder,
                &format!("Resto {i}-{k}"),
                &addr,
                rrating,
            );
        }
        let resto_forest = flatten(&resto_forest, holder);
        if rng.gen_bool(params.intensional_restos_fraction) {
            let c = doc.add_call(nb, "getNearbyRestos");
            doc.add_text(c, addr.clone());
            restos.insert(addr.clone(), resto_forest);
        } else {
            for &r in resto_forest.roots() {
                doc.append_copy(nb, &resto_forest, r);
            }
        }
        // museums are always intensional (pure distractors for the query)
        if params.museums_per_hotel > 0 {
            let c = doc.add_call(nb, "getNearbyMuseums");
            doc.add_text(c, addr.clone());
            let mut f = Forest::new();
            let holder = f.add_root("tmp");
            for k in 0..params.museums_per_hotel {
                add_museum(&mut f, holder, &format!("Museum {i}-{k}"), &addr);
            }
            museums.insert(addr.clone(), flatten(&f, holder));
        }
        // off-path distractor: reviews behind a call
        if params.reviews {
            let rv = doc.add_element(h, "reviews");
            let c = doc.add_call(rv, "getReviews");
            doc.add_text(c, addr.clone());
            let mut f = Forest::new();
            let r = f.add_root("review");
            f.add_text(r, format!("review of hotel {i}"));
            reviews.insert(addr.clone(), f);
        }
    };

    for i in 0..params.hotels {
        emit_hotel(
            &mut doc,
            root,
            i,
            &mut rng,
            &mut ratings,
            &mut restos,
            &mut museums,
            &mut reviews,
        );
    }

    // intensional hotels behind getHotels
    let mut hotels_forest = Forest::new();
    if params.intensional_hotels > 0 {
        let mut sub = Document::with_root("tmp");
        let sub_root = sub.root();
        for j in 0..params.intensional_hotels {
            emit_hotel(
                &mut sub,
                sub_root,
                params.hotels + j,
                &mut rng,
                &mut ratings,
                &mut restos,
                &mut museums,
                &mut reviews,
            );
        }
        hotels_forest = flatten(&sub, sub_root);
        let c = doc.add_call(root, "getHotels");
        doc.add_text(c, "NY");
    }

    let mut registry = Registry::new();
    registry.register(ratings);
    registry.register(restos);
    registry.register(museums);
    registry.register(reviews);
    registry.register(StaticService::new("getHotels", hotels_forest));

    Scenario {
        doc,
        registry,
        schema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_schema::validate;

    #[test]
    fn figure1_document_is_schema_valid() {
        let s = figure1();
        let errors = validate(&s.doc, &s.schema);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(s.doc.calls().len(), 10);
    }

    #[test]
    fn figure4_query_parses() {
        let q = figure4_query();
        assert_eq!(q.result_nodes().len(), 2);
    }

    #[test]
    fn generated_document_is_schema_valid() {
        let s = generate(&ScenarioParams {
            hotels: 20,
            ..Default::default()
        });
        let errors = validate(&s.doc, &s.schema);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn generation_is_deterministic() {
        let p = ScenarioParams::default();
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(axml_xml::to_xml(&a.doc), axml_xml::to_xml(&b.doc));
    }

    #[test]
    fn intensional_fractions_drive_call_counts() {
        let none = generate(&ScenarioParams {
            hotels: 30,
            intensional_rating_fraction: 0.0,
            intensional_restos_fraction: 0.0,
            museums_per_hotel: 0,
            intensional_hotels: 0,
            reviews: false,
            ..Default::default()
        });
        assert_eq!(none.doc.calls().len(), 0);
        let all = generate(&ScenarioParams {
            hotels: 30,
            intensional_rating_fraction: 1.0,
            intensional_restos_fraction: 1.0,
            museums_per_hotel: 2,
            intensional_hotels: 0,
            reviews: false,
            ..Default::default()
        });
        // one rating + one restos + one museums call per hotel
        assert_eq!(all.doc.calls().len(), 90);
    }

    #[test]
    fn services_cover_generated_keys() {
        let s = generate(&ScenarioParams::default());
        // every call in the document is answerable
        for c in s.doc.calls() {
            let (_, svc) = s.doc.call_info(c).unwrap();
            assert!(s.registry.has_service(svc.as_str()), "{svc}");
        }
    }
}
