//! Prometheus text-exposition rendering and a matching parser.
//!
//! [`render`] produces the classic text format (`# HELP` / `# TYPE`
//! headers followed by samples). Output is deterministic: series render
//! in [`MetricsRegistry`] BTree order and floats use Rust's shortest
//! round-trip `Display`. [`parse`] reads the same format back for the
//! validator binary and the golden tests.

use crate::registry::{MetricKind, MetricsRegistry};

/// Escapes a label value per the exposition-format rules.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes a HELP string (only backslash and newline are special).
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}` for a label set, plus optional extra label.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Formats an f64 the way Prometheus expects (`+Inf` rather than `inf`,
/// and `-0` canonicalized to `0`).
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else if v == 0.0 {
        "0".to_owned()
    } else {
        format!("{v}")
    }
}

/// Renders the registry in Prometheus text-exposition format.
pub fn render(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, desc) in registry.descriptions() {
        out.push_str(&format!("# HELP {name} {}\n", escape_help(&desc.help)));
        out.push_str(&format!("# TYPE {name} {}\n", desc.kind.prometheus_type()));
        match desc.kind {
            MetricKind::Counter => {
                for (key, value) in registry.counters().filter(|(k, _)| k.name == *name) {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        label_block(&key.labels, None),
                        fmt_value(value)
                    ));
                }
            }
            MetricKind::Gauge => {
                for (key, value) in registry.gauges().filter(|(k, _)| k.name == *name) {
                    out.push_str(&format!(
                        "{name}{} {}\n",
                        label_block(&key.labels, None),
                        fmt_value(value)
                    ));
                }
            }
            MetricKind::Histogram => {
                for (key, hist) in registry.histograms().filter(|(k, _)| k.name == *name) {
                    let cumulative = hist.cumulative_counts();
                    for (bound, cum) in hist
                        .bounds()
                        .iter()
                        .map(|b| fmt_value(*b))
                        .chain(std::iter::once("+Inf".to_owned()))
                        .zip(cumulative.iter())
                    {
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            label_block(&key.labels, Some(("le", &bound))),
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        label_block(&key.labels, None),
                        fmt_value(hist.sum())
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        label_block(&key.labels, None),
                        hist.count()
                    ));
                }
            }
        }
    }
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parses one `name{labels} value` line (comments already stripped).
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |what: &str| format!("line {lineno}: {what}: {line:?}");
    let (head, value_str) = match line.find('}') {
        Some(close) => {
            let (h, rest) = line.split_at(close + 1);
            (h, rest.trim())
        }
        None => {
            let mut it = line.splitn(2, char::is_whitespace);
            let h = it.next().unwrap_or("");
            (h, it.next().unwrap_or("").trim())
        }
    };
    let value: f64 = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other.parse().map_err(|_| err("unparseable sample value"))?,
    };
    let (name, labels) = match head.find('{') {
        None => (head.trim().to_owned(), Vec::new()),
        Some(open) => {
            if !head.ends_with('}') {
                return Err(err("unclosed label block"));
            }
            let name = head[..open].trim().to_owned();
            let body = head[open + 1..head.len() - 1].trim_end_matches(',');
            let mut labels = Vec::new();
            if !body.is_empty() {
                for pair in body.split("\",") {
                    let pair = pair.trim().trim_end_matches('"');
                    let (k, v) = pair
                        .split_once("=\"")
                        .ok_or_else(|| err("malformed label pair"))?;
                    labels.push((
                        k.to_owned(),
                        v.replace("\\\"", "\"")
                            .replace("\\n", "\n")
                            .replace("\\\\", "\\"),
                    ));
                }
            }
            (name, labels)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(err("invalid metric name"));
    }
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Parses Prometheus text-exposition content into samples. `# HELP` /
/// `# TYPE` lines are validated for shape but not returned.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment.starts_with("HELP") || comment.starts_with("TYPE") {
                let mut it = comment.split_whitespace();
                let _ = it.next();
                if it.next().is_none() {
                    return Err(format!("line {lineno}: {comment:?} missing metric name"));
                }
            }
            continue;
        }
        samples.push(parse_sample(line, lineno)?);
    }
    Ok(samples)
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.describe_counter("ef_demo_total", "Demo counter");
        reg.describe_gauge("ef_level", "Demo gauge");
        reg.describe_histogram("ef_lat_seconds", "Demo histogram", &[0.1, 1.0]);
        reg.inc("ef_demo_total", &[("kind", "a")], 2.0);
        reg.inc("ef_demo_total", &[("kind", "b")], 1.0);
        reg.set_gauge("ef_level", &[], 7.5);
        reg.observe("ef_lat_seconds", &[], 0.05);
        reg.observe("ef_lat_seconds", &[], 3.0);
        reg
    }

    #[test]
    fn render_is_wellformed_and_ordered() {
        let text = render(&sample_registry());
        assert!(text.contains("# TYPE ef_demo_total counter"));
        assert!(text.contains("ef_demo_total{kind=\"a\"} 2"));
        assert!(text.contains("ef_lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ef_lat_seconds_sum 3.05"));
        let a = text.find("ef_demo_total{kind=\"a\"}").expect("a missing");
        let b = text.find("ef_demo_total{kind=\"b\"}").expect("b missing");
        assert!(a < b, "series render in BTree order");
    }

    #[test]
    fn parse_roundtrips_render() {
        let reg = sample_registry();
        let samples = parse(&render(&reg)).expect("render must parse");
        let demo_a = samples
            .iter()
            .find(|s| s.name == "ef_demo_total" && s.labels == vec![("kind".into(), "a".into())])
            .expect("counter sample");
        assert_eq!(demo_a.value, 2.0);
        let inf_bucket = samples
            .iter()
            .find(|s| s.name == "ef_lat_seconds_bucket" && s.labels[0].1 == "+Inf")
            .expect("+Inf bucket");
        assert_eq!(inf_bucket.value, 2.0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("ef_ok 1\nnot a metric!!! x\n").is_err());
        assert!(parse("name{k=\"v\" 1\n").is_err());
    }

    #[test]
    fn label_values_are_escaped() {
        let mut reg = MetricsRegistry::new();
        reg.describe_counter("ef_esc_total", "Escaping");
        reg.inc("ef_esc_total", &[("msg", "a\"b\\c\nd")], 1.0);
        let text = render(&reg);
        assert!(text.contains(r#"msg="a\"b\\c\nd""#));
        let parsed = parse(&text).expect("escaped output parses");
        assert_eq!(parsed[0].labels[0].1, "a\"b\\c\nd");
    }
}
