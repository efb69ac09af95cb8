//! The service abstraction: what the paper calls a Web service.
//!
//! A service maps a parameter forest to a result forest. Providers may also
//! accept a *pushed query* (Section 7): instead of the full result, only
//! the part useful to the query is returned. The actual pushing logic lives
//! in [`crate::registry::Registry`], which plays the provider's side.

use axml_query::Pattern;
use axml_xml::{forest_serialized_len, Forest};
use std::sync::Arc;

/// A request to a service: the call's parameter subtrees.
#[derive(Clone, Debug, Default)]
pub struct CallRequest {
    /// Deep copies of the parameter subtrees of the function node.
    pub params: Forest,
}

impl CallRequest {
    /// Convenience: the first parameter as a text value, the common shape
    /// for the scenario services (`getRating("75 2nd Av")`).
    pub fn first_text(&self) -> Option<&str> {
        self.params
            .roots()
            .first()
            .and_then(|&r| self.params.text_value(r))
    }
}

/// A service's answer: the result forest, shared, and its wire size.
/// A service that stores its answers builds each reply once, so a call
/// hands out the stored forest without copying or re-sizing it; the
/// splice that puts it into the document is its one copy.
#[derive(Clone, Debug)]
pub struct Reply {
    /// The result forest. It may itself contain function nodes
    /// (intensional answers).
    pub forest: Arc<Forest>,
    /// `forest_serialized_len(&forest)`: the bytes the answer puts on the
    /// wire.
    pub bytes: usize,
}

impl Reply {
    /// The reply carrying `forest`, sized once here.
    pub fn new(forest: Forest) -> Self {
        Reply {
            bytes: forest_serialized_len(&forest),
            forest: Arc::new(forest),
        }
    }
}

/// A Web service implementation.
pub trait Service: Send + Sync {
    /// The service name, as used in `axml:call/@service`.
    fn name(&self) -> &str;

    /// Computes the reply to a request.
    fn invoke(&self, req: &CallRequest) -> Reply;

    /// Whether the provider can evaluate pushed queries (Section 7
    /// discusses verifying source capabilities, citing the mediator
    /// literature; incapable providers receive plain calls).
    fn supports_push(&self) -> bool {
        true
    }
}

/// A service returning a fixed forest, regardless of parameters.
pub struct StaticService {
    name: String,
    reply: Reply,
}

impl StaticService {
    /// Creates the service.
    pub fn new(name: impl Into<String>, result: Forest) -> Self {
        StaticService {
            name: name.into(),
            reply: Reply::new(result),
        }
    }
}

impl Service for StaticService {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&self, _req: &CallRequest) -> Reply {
        self.reply.clone()
    }
}

/// A service backed by a closure. Each call sizes the forest the closure
/// builds.
pub struct FnService<F> {
    name: String,
    f: F,
}

impl<F> FnService<F>
where
    F: Fn(&CallRequest) -> Forest + Send + Sync,
{
    /// Creates the service.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnService {
            name: name.into(),
            f,
        }
    }
}

impl<F> Service for FnService<F>
where
    F: Fn(&CallRequest) -> Forest + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&self, req: &CallRequest) -> Reply {
        Reply::new((self.f)(req))
    }
}

/// A keyed lookup service: the first text parameter selects the result
/// (e.g. `getNearbyRestos(address)`). Unknown keys yield an empty forest.
pub struct TableService {
    name: String,
    table: std::collections::HashMap<String, Reply>,
    push_capable: bool,
}

impl TableService {
    /// Creates an empty table service.
    pub fn new(name: impl Into<String>) -> Self {
        TableService {
            name: name.into(),
            table: Default::default(),
            push_capable: true,
        }
    }

    /// Adds an entry.
    pub fn insert(&mut self, key: impl Into<String>, result: Forest) -> &mut Self {
        self.table.insert(key.into(), Reply::new(result));
        self
    }

    /// Marks the provider as unable to evaluate pushed queries.
    pub fn without_push(mut self) -> Self {
        self.push_capable = false;
        self
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl Service for TableService {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&self, req: &CallRequest) -> Reply {
        match req.first_text().and_then(|k| self.table.get(k)) {
            Some(reply) => reply.clone(),
            None => Reply::new(Forest::new()),
        }
    }

    fn supports_push(&self) -> bool {
        self.push_capable
    }
}

/// The pushed query attached to an invocation, with the edge kind through
/// which the call position was reached (it decides whether the pattern
/// root must sit at a result root or may sit anywhere inside).
#[derive(Clone, Debug)]
pub struct PushedQuery {
    /// The subquery `sub_q_v` of Section 7.
    pub pattern: Pattern,
    /// Edge kind into the query node that justified the call.
    pub via: axml_query::EdgeKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::parse;

    /// Every reply carries its forest's serialized size.
    fn assert_sized(reply: &Reply) {
        assert_eq!(reply.bytes, forest_serialized_len(&reply.forest));
    }

    #[test]
    fn static_service_returns_shared_reply() {
        let f = parse("<a x=\"&amp;\">b &lt; c</a>").unwrap();
        let s = StaticService::new("s", f);
        let r1 = s.invoke(&CallRequest::default());
        let r2 = s.invoke(&CallRequest::default());
        assert_eq!(axml_xml::to_xml(&r1.forest), "<a x=\"&amp;\">b &lt; c</a>");
        assert!(Arc::ptr_eq(&r1.forest, &r2.forest), "one stored answer");
        assert_sized(&r1);
    }

    #[test]
    fn fn_service_sees_parameters() {
        let s = FnService::new("echo", |req: &CallRequest| {
            let mut f = Forest::new();
            let e = f.add_root("echo");
            f.add_text(e, req.first_text().unwrap_or("?"));
            f
        });
        let mut params = Forest::new();
        params.add_root_text("hello");
        let out = s.invoke(&CallRequest { params });
        assert_eq!(axml_xml::to_xml(&out.forest), "<echo>hello</echo>");
        assert_sized(&out);
    }

    #[test]
    fn table_service_lookup() {
        let mut t = TableService::new("getNearbyRestos");
        t.insert(
            "2nd Av",
            parse("<restaurant><name>Jo</name><axml:call service=\"f\">k</axml:call></restaurant>")
                .unwrap(),
        );
        let mut params = Forest::new();
        params.add_root_text("2nd Av");
        let req = CallRequest { params };
        let out = t.invoke(&req);
        assert_eq!(out.forest.roots().len(), 1);
        assert_sized(&out);
        // one key's stored answer is handed out, not copied
        assert!(Arc::ptr_eq(&out.forest, &t.invoke(&req).forest));
        // unknown key → empty forest
        let mut params = Forest::new();
        params.add_root_text("nowhere");
        let out = t.invoke(&CallRequest { params });
        assert!(out.forest.roots().is_empty());
        assert_eq!(out.bytes, 0);
    }

    #[test]
    fn push_capability_flag() {
        let t = TableService::new("x").without_push();
        assert!(!t.supports_push());
        assert!(TableService::new("y").supports_push());
    }
}
