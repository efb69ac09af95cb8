//! Declarative service definitions ("world files").
//!
//! The ActiveXML system configured its peers' services declaratively; we
//! load a registry from an XML world file so workloads are fully
//! file-driven (used by the `axml` CLI and the examples):
//!
//! ```xml
//! <world>
//!   <service name="getRating">
//!     <entry key="75 2nd Av."><result>*****</result></entry>
//!     <entry key="13 Penn St."><result>***</result></entry>
//!     <default><result>?</result></default>
//!   </service>
//!   <service name="getHotels">          <!-- no entries: static result -->
//!     <result><hotel>…</hotel></result>
//!   </service>
//!   <service name="legacy" push="false">…</service>
//! </world>
//! ```
//!
//! A `<result>` holds the forest the service returns (its children); an
//! `<entry key="…">` selects by the call's first text parameter; a
//! `<default>` answers unknown keys.

use crate::registry::Registry;
use crate::service::{CallRequest, Reply, Service};
use axml_xml::{Document, Forest, NodeId};
use std::collections::HashMap;
use std::fmt;

/// A world-file loading problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldFileError {
    /// Description.
    pub message: String,
}

impl fmt::Display for WorldFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "world file error: {}", self.message)
    }
}

impl std::error::Error for WorldFileError {}

fn err(message: impl Into<String>) -> WorldFileError {
    WorldFileError {
        message: message.into(),
    }
}

/// A table/static service loaded from a world file. Its replies are built
/// when the file is loaded.
struct WorldService {
    name: String,
    entries: HashMap<String, Reply>,
    default: Option<Reply>,
    push: bool,
}

impl Service for WorldService {
    fn name(&self) -> &str {
        &self.name
    }

    fn invoke(&self, req: &CallRequest) -> Reply {
        if let Some(reply) = req.first_text().and_then(|key| self.entries.get(key)) {
            return reply.clone();
        }
        match &self.default {
            Some(reply) => reply.clone(),
            None => Reply::new(Forest::new()),
        }
    }

    fn supports_push(&self) -> bool {
        self.push
    }
}

fn attr_of(doc: &Document, node: NodeId, name: &str) -> Option<String> {
    let attr_label = format!("@{name}");
    doc.children(node).iter().find_map(|&c| {
        if doc.label(c) == attr_label {
            doc.children(c)
                .first()
                .and_then(|&v| doc.text_value(v))
                .map(String::from)
        } else {
            None
        }
    })
}

fn result_forest(doc: &Document, holder: NodeId) -> Result<Forest, WorldFileError> {
    let result = doc
        .children(holder)
        .iter()
        .copied()
        .find(|&c| doc.label(c) == "result")
        .ok_or_else(|| err("missing <result> element"))?;
    let mut f = Forest::new();
    for &c in doc.children(result) {
        f.append_copy_as_root(doc, c);
    }
    Ok(f)
}

/// Loads a registry from a parsed world document.
pub fn load_registry(doc: &Document) -> Result<Registry, WorldFileError> {
    let root = *doc.roots().first().ok_or_else(|| err("empty world file"))?;
    if doc.label(root) != "world" {
        return Err(err(format!(
            "root element must be <world>, found <{}>",
            doc.label(root)
        )));
    }
    let mut registry = Registry::new();
    for &svc in doc.children(root) {
        if doc.label(svc) != "service" {
            if doc.is_data(svc) && doc.label(svc).starts_with('@') {
                continue;
            }
            return Err(err(format!(
                "unexpected <{}> under <world>",
                doc.label(svc)
            )));
        }
        let name =
            attr_of(doc, svc, "name").ok_or_else(|| err("<service> without name attribute"))?;
        let push = attr_of(doc, svc, "push").is_none_or(|v| v != "false");
        let mut entries = HashMap::new();
        let mut default = None;
        let mut static_result = None;
        for &child in doc.children(svc) {
            match doc.label(child) {
                "entry" => {
                    let key = attr_of(doc, child, "key")
                        .ok_or_else(|| err("<entry> without key attribute"))?;
                    entries.insert(key, Reply::new(result_forest(doc, child)?));
                }
                "default" => default = Some(Reply::new(result_forest(doc, child)?)),
                "result" => static_result = Some(forest_of(doc, child)),
                l if l.starts_with('@') => {}
                other => return Err(err(format!("unexpected <{other}> under <service>"))),
            }
        }
        if entries.is_empty() && default.is_none() {
            // static service: the bare <result> is the answer to every call
            default = static_result.map(Reply::new);
        }
        registry.register(WorldService {
            name,
            entries,
            default,
            push,
        });
    }
    Ok(registry)
}

fn forest_of(doc: &Document, result: NodeId) -> Forest {
    let mut f = Forest::new();
    for &c in doc.children(result) {
        f.append_copy_as_root(doc, c);
    }
    f
}

/// Loads a registry from world-file XML text.
pub fn load_registry_str(xml: &str) -> Result<Registry, WorldFileError> {
    let doc = axml_xml::parse(xml).map_err(|e| err(e.to_string()))?;
    load_registry(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::to_xml;
    use std::sync::Arc;

    const WORLD: &str = r#"
      <world>
        <service name="getRating">
          <entry key="a"><result>*****</result></entry>
          <entry key="b"><result>**</result></entry>
          <default><result>?</result></default>
        </service>
        <service name="getHotels">
          <result><hotel><name>BW</name></hotel><hotel><name>P</name></hotel></result>
        </service>
        <service name="legacy" push="false">
          <entry key="k"><result><x/></result></entry>
        </service>
      </world>"#;

    #[test]
    fn loads_keyed_and_static_services() {
        let r = load_registry_str(WORLD).unwrap();
        assert_eq!(
            r.service_names(),
            vec!["getHotels".to_string(), "getRating".into(), "legacy".into()]
        );
        let mut params = Forest::new();
        params.add_root_text("a");
        let out = r
            .invoke_within("getRating", params, None, f64::INFINITY)
            .unwrap();
        assert_eq!(to_xml(&out.result), "*****");
        // default applies to unknown keys
        let mut params = Forest::new();
        params.add_root_text("zz");
        let out = r
            .invoke_within("getRating", params, None, f64::INFINITY)
            .unwrap();
        assert_eq!(to_xml(&out.result), "?");
        // static: any params
        let out = r
            .invoke_within("getHotels", Forest::new(), None, f64::INFINITY)
            .unwrap();
        assert_eq!(out.result.roots().len(), 2);
    }

    #[test]
    fn replies_are_sized_and_shared() {
        let r = load_registry_str(WORLD).unwrap();
        for (service, key) in [("getRating", "a"), ("getRating", "zz"), ("getHotels", "")] {
            let call = || {
                let mut params = Forest::new();
                params.add_root_text(key);
                r.invoke_within(service, params, None, f64::INFINITY)
                    .unwrap()
            };
            let (a, b) = (call(), call());
            assert_eq!(a.bytes, axml_xml::forest_serialized_len(&a.result));
            assert!(Arc::ptr_eq(&a.result, &b.result), "{service}({key})");
        }
    }

    #[test]
    fn push_attribute_respected() {
        let r = load_registry_str(WORLD).unwrap();
        assert!(r.supports_push("getRating"));
        assert!(!r.supports_push("legacy"));
    }

    fn load_err(src: &str) -> WorldFileError {
        load_registry_str(src).err().expect("expected an error")
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(load_err("<notworld/>").message.contains("<world>"));
        assert!(load_err("<world><service/></world>")
            .message
            .contains("name"));
        assert!(
            load_err("<world><service name=\"s\"><entry><result/></entry></service></world>")
                .message
                .contains("key")
        );
        assert!(
            load_err("<world><service name=\"s\"><entry key=\"k\"/></service></world>")
                .message
                .contains("result")
        );
    }

    #[test]
    fn intensional_results_survive() {
        let r = load_registry_str(
            "<world><service name=\"outer\">\
               <result><wrap><axml:call service=\"inner\"/></wrap></result>\
             </service></world>",
        )
        .unwrap();
        let out = r
            .invoke_within("outer", Forest::new(), None, f64::INFINITY)
            .unwrap();
        assert_eq!(out.result.calls().len(), 1);
    }
}
