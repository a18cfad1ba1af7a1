//! The metric catalog: `BENCHMARK.json` at the repository root names every
//! workload and metric with its unit, and `perfbench/layers.json` maps each
//! per-layer metric to the workloads it is measured on and the end-to-end
//! metrics it should move. The driver prints exactly the catalog's metrics.

use std::path::Path;

use wl_obs::{parse_json, JsonValue};

/// A metric's name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics of traced runs.
    pub per_layer: Vec<Metric>,
}

impl Catalog {
    /// Read `BENCHMARK.json` from the repository root.
    ///
    /// # Errors
    /// Unreadable file or a missing/mistyped field.
    pub fn load(root: &Path) -> Result<Catalog, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Catalog::parse(&text)
    }

    /// Parse the text of `BENCHMARK.json`.
    ///
    /// # Errors
    /// Bad JSON, a missing/mistyped field, or a name outside the charset.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let v = parse_json(text)?;
        let names = |key: &str| -> Result<Vec<String>, String> {
            array(&v, key)?
                .iter()
                .map(|w| str_field(w, "name"))
                .collect()
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            array(&v, key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: str_field(m, "name")?,
                        unit: str_field(m, "unit")?,
                    })
                })
                .collect()
        };
        let catalog = Catalog {
            workloads: names("workloads")?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        };
        let all = catalog
            .workloads
            .iter()
            .chain(catalog.end_to_end.iter().map(|m| &m.name))
            .chain(catalog.per_layer.iter().map(|m| &m.name));
        for name in all {
            if !valid_name(name) {
                return Err(format!("invalid name {name:?}"));
            }
        }
        Ok(catalog)
    }
}

/// `value[key]` as an array.
pub fn array<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    match value.get(key) {
        Some(JsonValue::Array(items)) => Ok(items),
        _ => Err(format!("missing array {key:?}")),
    }
}

/// `value[key]` as a string.
pub fn str_field(value: &JsonValue, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string {key:?}"))
}

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_dir() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
    }

    fn catalog() -> Catalog {
        Catalog::load(
            manifest_dir()
                .parent()
                .expect("perfbench sits in the repo root"),
        )
        .expect("BENCHMARK.json parses")
    }

    #[test]
    fn name_charset() {
        for good in [
            "latency_p50_ms",
            "engine.theta_ms",
            "paper-repro",
            "9lives",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/name",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let c = catalog();
        let mut seen = std::collections::BTreeSet::new();
        let all = c
            .workloads
            .iter()
            .chain(c.end_to_end.iter().map(|m| &m.name))
            .chain(c.per_layer.iter().map(|m| &m.name));
        for name in all {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "duplicate name {name:?}");
        }
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_layer_metric_maps_to_existing_end_to_end_metrics_and_workloads() {
        let c = catalog();
        let text = std::fs::read_to_string(manifest_dir().join("layers.json")).unwrap();
        let layers = parse_json(&text).unwrap();
        let entries = array(&layers, "layers").unwrap();
        let mut mapped = Vec::new();
        for entry in entries {
            let name = str_field(entry, "name").unwrap();
            for w in array(entry, "workloads").unwrap() {
                let w = w.as_str().unwrap();
                assert!(
                    c.workloads.iter().any(|x| x == w),
                    "{name}: unknown workload {w}"
                );
            }
            let moves = array(entry, "moves").unwrap();
            assert!(!moves.is_empty(), "{name} moves nothing");
            for m in moves {
                let m = m.as_str().unwrap();
                assert!(
                    c.end_to_end.iter().any(|x| x.name == m),
                    "{name}: unknown end-to-end metric {m}"
                );
            }
            str_field(entry, "what").unwrap();
            mapped.push(name);
        }
        let declared: Vec<String> = c.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            mapped, declared,
            "layers.json and BENCHMARK.json list the same layer metrics in the same order"
        );
    }
}
