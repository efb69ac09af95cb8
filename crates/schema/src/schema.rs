//! The schema `τ` of Figure 2: function signatures (input/output types) and
//! element content models, in a DTD-like syntax.
//!
//! Concrete syntax (one declaration per line, `#` comments):
//!
//! ```text
//! # the night-life schema of Figure 2
//! root hotels
//! function getHotels        = in: data, out: hotel*
//! function getRating        = in: data, out: data
//! function getNearbyRestos  = in: data, out: restaurant*
//! element hotels     = (hotel | getHotels)*
//! element hotel      = name.address.rating.nearby
//! element rating     = (data | getRating)
//! element name       = data
//! ```

use crate::regex::{parse_re, LabelRe};
use axml_xml::Label;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A Web-service signature: the input and output types of Figure 2.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FunSig {
    /// Service name.
    pub name: Label,
    /// Type of the parameter forest.
    pub input: LabelRe,
    /// Type of the result forest.
    pub output: LabelRe,
}

/// A schema `τ`: element content models plus function signatures.
/// Equality and hashing are structural: two schemas are equal exactly
/// when their `Debug` renderings are.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Schema {
    elements: BTreeMap<Label, LabelRe>,
    functions: BTreeMap<Label, FunSig>,
    /// Expected root element, if declared.
    pub root: Option<Label>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Declares an element content model.
    pub fn add_element(&mut self, name: impl Into<Label>, content: LabelRe) {
        self.elements.insert(name.into(), content);
    }

    /// Declares a function signature.
    pub fn add_function(&mut self, name: impl Into<Label>, input: LabelRe, output: LabelRe) {
        let name = name.into();
        self.functions.insert(
            name.clone(),
            FunSig {
                name,
                input,
                output,
            },
        );
    }

    /// The content model of an element, if declared.
    pub fn element(&self, name: &str) -> Option<&LabelRe> {
        self.elements.get(name)
    }

    /// The signature of a function, if declared.
    pub fn function(&self, name: &str) -> Option<&FunSig> {
        self.functions.get(name)
    }

    /// Is the name a declared function?
    pub fn is_function(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// Iterates over declared elements.
    pub fn elements(&self) -> impl Iterator<Item = (&Label, &LabelRe)> {
        self.elements.iter()
    }

    /// Iterates over declared functions.
    pub fn functions(&self) -> impl Iterator<Item = &FunSig> {
        self.functions.values()
    }

    /// The *expansion closure* of a type: every symbol that can appear as a
    /// top-level node of a derived instance of `re` — symbols occurring in
    /// words of `re`, plus, for every function symbol, the closure of its
    /// output type (a call may be expanded in a derived instance), computed
    /// to a fixpoint. Function symbols stay in the result (a call may also
    /// remain unexpanded).
    pub fn expansion_closure(&self, re: &LabelRe) -> ClosureSet {
        let mut out = ClosureSet::default();
        let mut work: Vec<Label> = Vec::new();
        let occ = re.occurring();
        out.data |= occ.data;
        out.any |= occ.any;
        for name in occ.names {
            if self.is_function(name.as_str()) {
                if out.functions.insert(name.clone()) {
                    work.push(name);
                }
            } else {
                out.elements.insert(name);
            }
        }
        while let Some(f) = work.pop() {
            let sig = self.functions.get(&f).expect("worklist holds functions");
            let occ = sig.output.occurring();
            out.data |= occ.data;
            out.any |= occ.any;
            for name in occ.names {
                if self.is_function(name.as_str()) {
                    if out.functions.insert(name.clone()) {
                        work.push(name);
                    }
                } else {
                    out.elements.insert(name);
                }
            }
        }
        out
    }

    /// Names referenced anywhere in the schema (elements, functions,
    /// symbols inside types).
    pub fn referenced_names(&self) -> BTreeSet<Label> {
        let mut out: BTreeSet<Label> = BTreeSet::new();
        for (name, re) in &self.elements {
            out.insert(name.clone());
            out.extend(re.names());
        }
        for sig in self.functions.values() {
            out.insert(sig.name.clone());
            out.extend(sig.input.names());
            out.extend(sig.output.names());
        }
        out
    }
}

/// Result of [`Schema::expansion_closure`]: which symbols can appear at a
/// position after any number of call expansions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClosureSet {
    /// Element names that can appear.
    pub elements: BTreeSet<Label>,
    /// Function names that can appear (unexpanded calls).
    pub functions: BTreeSet<Label>,
    /// Whether a data value can appear.
    pub data: bool,
    /// Whether an `any`-typed position occurs (everything can appear).
    pub any: bool,
}

impl ClosureSet {
    /// Can an element with this name appear?
    pub fn has_element(&self, name: &str) -> bool {
        self.any || self.elements.contains(name)
    }

    /// Can a call to this function appear?
    pub fn has_function(&self, name: &str) -> bool {
        self.any || self.functions.contains(name)
    }

    /// Can a data value appear?
    pub fn has_data(&self) -> bool {
        self.any || self.data
    }
}

/// A schema-text parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SchemaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schema parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for SchemaParseError {}

/// Parses the line-based schema syntax described in the module docs.
pub fn parse_schema(input: &str) -> Result<Schema, SchemaParseError> {
    let mut schema = Schema::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |m: String| SchemaParseError {
            line: lineno + 1,
            message: m,
        };
        if let Some(rest) = line.strip_prefix("root ") {
            schema.root = Some(rest.trim().into());
        } else if let Some(rest) = line.strip_prefix("element ") {
            let (name, re_src) = rest
                .split_once('=')
                .ok_or_else(|| err("element declaration needs '='".into()))?;
            let re = parse_re(re_src.trim()).map_err(err)?;
            schema.add_element(name.trim(), re);
        } else if let Some(rest) = line.strip_prefix("function ") {
            let (name, sig_src) = rest
                .split_once('=')
                .ok_or_else(|| err("function declaration needs '='".into()))?;
            let sig = sig_src.trim();
            let body = sig
                .strip_prefix("in:")
                .ok_or_else(|| err("function signature must start with 'in:'".into()))?;
            let (in_src, out_src) = body
                .split_once(", out:")
                .or_else(|| body.split_once(",out:"))
                .ok_or_else(|| err("function signature needs ', out:'".into()))?;
            let input = parse_re(in_src.trim()).map_err(&err)?;
            let output = parse_re(out_src.trim()).map_err(&err)?;
            schema.add_function(name.trim(), input, output);
        } else {
            return Err(err(format!("unrecognized declaration: {line:?}")));
        }
    }
    Ok(schema)
}

/// The night-life schema of Figure 2 (with the OCR-eaten element names
/// restored), used by examples and tests throughout the workspace.
pub fn figure2_schema() -> Schema {
    parse_schema(
        "root hotels\n\
         function getHotels       = in: data, out: hotel*\n\
         function getRating       = in: data, out: data\n\
         function getNearbyRestos = in: data, out: restaurant*\n\
         function getNearbyMuseums= in: data, out: museum*\n\
         element hotels     = (hotel | getHotels)*\n\
         element hotel      = name.address.rating.nearby\n\
         element nearby     = (restaurant | getNearbyRestos)*.(museum | getNearbyMuseums)*\n\
         element restaurant = name.address.rating\n\
         element museum     = name.address\n\
         element name       = data\n\
         element address    = data\n\
         element rating     = (data | getRating)\n",
    )
    .expect("figure 2 schema is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Sym;

    #[test]
    fn parses_figure2() {
        let s = figure2_schema();
        assert_eq!(s.root.as_ref().unwrap().as_str(), "hotels");
        assert!(s.is_function("getRating"));
        assert!(!s.is_function("hotel"));
        assert!(s.element("hotel").is_some());
        let sig = s.function("getNearbyRestos").unwrap();
        assert!(sig.output.matches(&[
            Sym::Name("restaurant".into()),
            Sym::Name("restaurant".into())
        ]));
        for name in s.referenced_names() {
            assert!(s.element(name.as_str()).is_some() || s.is_function(name.as_str()));
        }
    }

    #[test]
    fn expansion_closure_follows_function_outputs() {
        let s = figure2_schema();
        // the hotels content model can produce hotel elements directly or
        // via getHotels
        let c = s.expansion_closure(s.element("hotels").unwrap());
        assert!(c.has_element("hotel"));
        assert!(c.has_function("getHotels"));
        assert!(!c.has_element("restaurant"));
        // rating can hold data directly or via getRating
        let c = s.expansion_closure(s.element("rating").unwrap());
        assert!(c.has_data());
        assert!(c.has_function("getRating"));
        assert!(!c.has_element("hotel"));
    }

    #[test]
    fn expansion_closure_is_transitive() {
        let mut s = Schema::new();
        s.add_function("f", LabelRe::Data, parse_re("g").unwrap());
        s.add_function("g", LabelRe::Data, parse_re("a").unwrap());
        s.add_element("a", LabelRe::Data);
        let c = s.expansion_closure(&parse_re("f").unwrap());
        assert!(c.has_function("f"));
        assert!(c.has_function("g"));
        assert!(c.has_element("a"));
    }

    #[test]
    fn expansion_closure_handles_recursive_types() {
        let mut s = Schema::new();
        // f's output may contain f again
        s.add_function("f", LabelRe::Data, parse_re("item.f?").unwrap());
        s.add_element("item", LabelRe::Data);
        let c = s.expansion_closure(&parse_re("f").unwrap());
        assert!(c.has_element("item"));
        assert!(c.has_function("f"));
    }

    #[test]
    fn any_closure_covers_everything() {
        let s = figure2_schema();
        let c = s.expansion_closure(&LabelRe::any_forest());
        assert!(c.has_element("whatever"));
        assert!(c.has_function("whatever"));
        assert!(c.has_data());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_schema("element a = data\nbogus line\n").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_schema("function f = out: data\n").unwrap_err();
        assert!(e.message.contains("in:"));
        let e = parse_schema("element x = (unclosed\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let s = parse_schema("# header\n\nelement a = data # trailing\n").unwrap();
        assert!(s.element("a").is_some());
    }
}
