//! Parameter sets: tag-selected definitions, `${name}` substitution, and
//! parameter-space expansion.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::JubeError;

/// One definition of a parameter, optionally restricted to a tag.
#[derive(Debug, Clone)]
struct ParamDef {
    /// Candidate values; more than one value makes the parameter expand
    /// the parameter space (JUBE's comma-separated value lists).
    values: Vec<String>,
    /// If set, this definition only applies when the tag is active. A
    /// tagged definition overrides an untagged one.
    tag: Option<String>,
}

/// A set of parameter definitions (the `<parameterset>` of a JUBE script).
#[derive(Debug, Clone, Default)]
pub struct ParameterSet {
    defs: BTreeMap<String, Vec<ParamDef>>,
}

/// One fully resolved point of the parameter space.
pub type ResolvedParams = BTreeMap<String, String>;

impl ParameterSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Define (or append a definition for) a single-valued parameter.
    pub fn set(&mut self, name: &str, value: impl Into<String>) -> &mut Self {
        self.defs
            .entry(name.to_string())
            .or_default()
            .push(ParamDef {
                values: vec![value.into()],
                tag: None,
            });
        self
    }

    /// Define a multi-valued parameter (expands the parameter space).
    pub fn set_list<I, S>(&mut self, name: &str, values: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.defs
            .entry(name.to_string())
            .or_default()
            .push(ParamDef {
                values: values.into_iter().map(Into::into).collect(),
                tag: None,
            });
        self
    }

    /// Define a tag-restricted value that overrides the default when the
    /// tag is active (JUBE's variant selection, §III-B).
    pub fn set_tagged(&mut self, name: &str, tag: &str, value: impl Into<String>) -> &mut Self {
        self.defs
            .entry(name.to_string())
            .or_default()
            .push(ParamDef {
                values: vec![value.into()],
                tag: Some(tag.to_string()),
            });
        self
    }

    /// Names of all defined parameters.
    pub fn names(&self) -> Vec<&str> {
        self.defs.keys().map(|s| s.as_str()).collect()
    }

    /// Select the effective definition of each parameter under the active
    /// tags: a matching tagged definition wins over the untagged one; later
    /// definitions win over earlier ones.
    fn effective(&self, tags: &BTreeSet<String>) -> BTreeMap<&str, &ParamDef> {
        let mut out = BTreeMap::new();
        for (name, defs) in &self.defs {
            let mut chosen: Option<&ParamDef> = None;
            for def in defs {
                match &def.tag {
                    None => {
                        if chosen.is_none_or(|c| c.tag.is_none()) {
                            chosen = Some(def);
                        }
                    }
                    Some(t) if tags.contains(t) => chosen = Some(def),
                    Some(_) => {}
                }
            }
            if let Some(def) = chosen {
                out.insert(name.as_str(), def);
            }
        }
        out
    }

    /// Expand the parameter space (cartesian product over multi-valued
    /// parameters) and resolve `${name}` references within each point.
    pub fn expand(&self, tags: &[&str]) -> Result<Vec<ResolvedParams>, JubeError> {
        let tagset: BTreeSet<String> = tags.iter().map(|s| s.to_string()).collect();
        let effective = self.effective(&tagset);
        // Cartesian product, deterministic order (BTreeMap iteration).
        let mut points: Vec<BTreeMap<String, String>> = vec![BTreeMap::new()];
        for (name, def) in &effective {
            let mut next = Vec::with_capacity(points.len() * def.values.len());
            for point in &points {
                for v in &def.values {
                    let mut p = point.clone();
                    p.insert(name.to_string(), v.clone());
                    next.push(p);
                }
            }
            points = next;
        }
        points.into_iter().map(substitute_all).collect()
    }
}

/// Iteratively substitute `${name}` references until a fixed point,
/// detecting unknown names and cycles.
pub(crate) fn substitute_all(mut params: ResolvedParams) -> Result<ResolvedParams, JubeError> {
    // An upper bound on useful passes: each pass must resolve at least one
    // level of nesting; more passes than parameters means a cycle.
    let max_rounds = params.len() + 1;
    for _ in 0..max_rounds {
        let mut changed = false;
        let snapshot = params.clone();
        for (name, value) in params.iter_mut() {
            let new = substitute_once(value, &snapshot, name)?;
            if new != *value {
                *value = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Either a genuine fixed point (no references left) or a cycle whose
    // substitution chases its own tail.
    if params.values().all(|v| !v.contains("${")) {
        return Ok(params);
    }
    let involved = params
        .iter()
        .filter(|(_, v)| v.contains("${"))
        .map(|(k, _)| k.clone())
        .collect();
    Err(JubeError::CyclicParameters { involved })
}

/// Replace every `${name}` occurrence in `value` once.
fn substitute_once(value: &str, params: &ResolvedParams, owner: &str) -> Result<String, JubeError> {
    let mut out = String::with_capacity(value.len());
    let mut rest = value;
    while let Some(start) = rest.find("${") {
        out.push_str(&rest[..start]);
        let after = &rest[start + 2..];
        let end = after.find('}').ok_or_else(|| JubeError::UnknownParameter {
            name: after.to_string(),
            referenced_by: owner.to_string(),
        })?;
        let name = &after[..end];
        let replacement = params
            .get(name)
            .ok_or_else(|| JubeError::UnknownParameter {
                name: name.to_string(),
                referenced_by: owner.to_string(),
            })?;
        out.push_str(replacement);
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_values_resolve() {
        let mut ps = ParameterSet::new();
        ps.set("nodes", "8").set("gpus_per_node", "4");
        ps.set("tasks", "${nodes}x${gpus_per_node}");
        let points = ps.expand(&[]).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0]["tasks"], "8x4");
    }

    #[test]
    fn nested_references_resolve() {
        let mut ps = ParameterSet::new();
        ps.set("a", "1").set("b", "${a}2").set("c", "${b}3");
        let p = &ps.expand(&[]).unwrap()[0];
        assert_eq!(p["c"], "123");
    }

    #[test]
    fn unknown_reference_is_an_error() {
        let mut ps = ParameterSet::new();
        ps.set("a", "${missing}");
        let err = ps.expand(&[]).unwrap_err();
        assert!(matches!(err, JubeError::UnknownParameter { ref name, .. } if name == "missing"));
    }

    #[test]
    fn cycle_is_detected() {
        let mut ps = ParameterSet::new();
        ps.set("a", "${b}").set("b", "${a}");
        let err = ps.expand(&[]).unwrap_err();
        assert!(matches!(err, JubeError::CyclicParameters { .. }));
    }

    #[test]
    fn unterminated_reference_is_an_error() {
        let mut ps = ParameterSet::new();
        ps.set("a", "${oops");
        assert!(ps.expand(&[]).is_err());
    }

    #[test]
    fn value_lists_expand_the_space() {
        let mut ps = ParameterSet::new();
        ps.set_list("nodes", ["4", "8", "16"]);
        ps.set_list("variant", ["small", "large"]);
        ps.set("label", "n${nodes}-${variant}");
        let points = ps.expand(&[]).unwrap();
        assert_eq!(points.len(), 6);
        let labels: Vec<_> = points.iter().map(|p| p["label"].clone()).collect();
        assert!(labels.contains(&"n8-large".to_string()));
        assert!(labels.contains(&"n16-small".to_string()));
    }

    #[test]
    fn tags_select_variants() {
        // The JUBE pattern: R02B09 by default, R02B10 under the "r02b10"
        // tag (ICON's two sub-benchmarks).
        let mut ps = ParameterSet::new();
        ps.set("resolution", "R02B09");
        ps.set("nodes", "120");
        ps.set_tagged("resolution", "r02b10", "R02B10");
        ps.set_tagged("nodes", "r02b10", "300");
        let base = &ps.expand(&[]).unwrap()[0];
        assert_eq!(
            (base["resolution"].as_str(), base["nodes"].as_str()),
            ("R02B09", "120")
        );
        let fine = &ps.expand(&["r02b10"]).unwrap()[0];
        assert_eq!(
            (fine["resolution"].as_str(), fine["nodes"].as_str()),
            ("R02B10", "300")
        );
    }

    #[test]
    fn inactive_tags_are_ignored() {
        let mut ps = ParameterSet::new();
        ps.set("x", "default");
        ps.set_tagged("x", "special", "other");
        let p = &ps.expand(&["unrelated"]).unwrap()[0];
        assert_eq!(p["x"], "default");
    }

    #[test]
    fn tagged_only_parameter_absent_without_tag() {
        let mut ps = ParameterSet::new();
        ps.set_tagged("gpu_direct", "gpu", "1");
        assert!(!ps.expand(&[]).unwrap()[0].contains_key("gpu_direct"));
        assert_eq!(ps.expand(&["gpu"]).unwrap()[0]["gpu_direct"], "1");
    }

    #[test]
    fn later_definitions_override() {
        let mut ps = ParameterSet::new();
        ps.set("x", "1");
        ps.set("x", "2");
        assert_eq!(ps.expand(&[]).unwrap()[0]["x"], "2");
    }

    #[test]
    fn expansion_is_deterministic() {
        let mut ps = ParameterSet::new();
        ps.set_list("n", ["1", "2"]);
        ps.set_list("m", ["a", "b"]);
        let p1 = ps.expand(&[]).unwrap();
        let p2 = ps.expand(&[]).unwrap();
        assert_eq!(p1, p2);
    }
}
