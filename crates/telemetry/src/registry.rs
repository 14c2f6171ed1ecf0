//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with label sets.
//!
//! Determinism rules:
//!
//! * each kind's series live in one `Vec` kept sorted by [`SeriesKey`],
//!   so iteration (and therefore every export) is in a stable order;
//! * values only ever come from simulation state or a pluggable
//!   [`crate::Clock`] — the registry itself never reads host state;
//! * histograms have *fixed* bucket bounds declared up front, so the
//!   rendered series set cannot drift between runs.
//!
//! Updating a series that exists allocates nothing: the table is
//! binary-searched with the borrowed name and labels. A key is built
//! only when a series is created, and a sorted copy of the labels only
//! when a caller passes two or more of them out of order.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// What a metric name is declared as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing total.
    Counter,
    /// A point-in-time value, overwritten on every set.
    Gauge,
    /// A fixed-bucket distribution of observed values.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Declared metadata for one metric name.
#[derive(Debug, Clone)]
pub struct MetricDesc {
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Help text rendered into the `# HELP` line.
    pub help: String,
    /// Upper bucket bounds (histograms only), strictly increasing.
    pub buckets: Vec<f64>,
}

/// One time series: a metric name plus its sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric name.
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// Builds a key from a name and unordered label pairs (sorted here).
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_owned(),
            labels,
        }
    }

    /// Orders this key against a borrowed name and *sorted* label pairs
    /// exactly as the derived `Ord` orders this key against
    /// `SeriesKey::new(name, labels)`.
    fn cmp_borrowed(&self, name: &str, labels: &[(&str, &str)]) -> Ordering {
        self.name.as_str().cmp(name).then_with(|| {
            self.labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .cmp(labels.iter().copied())
        })
    }
}

/// `labels` in [`SeriesKey`] order: borrowed when already sorted (always
/// so for fewer than two pairs), otherwise a sorted copy.
fn sorted<'a, 'b>(labels: &'a [(&'b str, &'b str)]) -> Cow<'a, [(&'b str, &'b str)]> {
    if labels.is_sorted() {
        Cow::Borrowed(labels)
    } else {
        let mut owned = labels.to_vec();
        owned.sort();
        Cow::Owned(owned)
    }
}

/// The series of one kind, ascending by [`SeriesKey`].
#[derive(Debug, Clone)]
struct SeriesTable<V>(Vec<(SeriesKey, V)>);

impl<V> Default for SeriesTable<V> {
    fn default() -> Self {
        SeriesTable(Vec::new())
    }
}

impl<V> SeriesTable<V> {
    /// Index of the series, or where it would be inserted.
    fn search(&self, name: &str, sorted_labels: &[(&str, &str)]) -> Result<usize, usize> {
        self.0
            .binary_search_by(|(key, _)| key.cmp_borrowed(name, sorted_labels))
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&V> {
        let labels = sorted(labels);
        let index = self.search(name, &labels).ok()?;
        Some(&self.0[index].1)
    }

    /// The series' value, created by `init` on first use.
    fn entry(&mut self, name: &str, labels: &[(&str, &str)], init: impl FnOnce() -> V) -> &mut V {
        let labels = sorted(labels);
        let index = match self.search(name, &labels) {
            Ok(index) => index,
            Err(index) => {
                self.0
                    .insert(index, (SeriesKey::new(name, &labels), init()));
                index
            }
        };
        &mut self.0[index].1
    }

    fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &V)> {
        self.0.iter().map(|(key, value)| (key, value))
    }
}

/// Default bucket bounds used when a histogram is observed before being
/// described: powers of ten from 1 µs to 10 s.
pub const DEFAULT_BUCKETS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// A fixed-bucket histogram: per-bucket counts plus sum and count.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1], // final slot = +Inf overflow
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Upper bucket bounds (exclusive of the implicit `+Inf` bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// *Cumulative* count at each bound, ending with the `+Inf` total —
    /// the exact series Prometheus `_bucket` lines carry.
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Deterministic store of counters, gauges, and histograms.
///
/// ```
/// use elasticflow_telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// reg.describe_counter("ef_jobs_admitted_total", "Jobs admitted");
/// reg.inc("ef_jobs_admitted_total", &[], 1.0);
/// reg.inc("ef_jobs_admitted_total", &[], 2.0);
/// assert_eq!(reg.counter_value("ef_jobs_admitted_total", &[]), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    descs: BTreeMap<String, MetricDesc>,
    counters: SeriesTable<f64>,
    gauges: SeriesTable<f64>,
    histograms: SeriesTable<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Declares a counter and its help text.
    pub fn describe_counter(&mut self, name: &str, help: &str) {
        self.describe(name, MetricKind::Counter, help, &[]);
    }

    /// Declares a gauge and its help text.
    pub fn describe_gauge(&mut self, name: &str, help: &str) {
        self.describe(name, MetricKind::Gauge, help, &[]);
    }

    /// Declares a histogram with fixed upper bucket bounds (strictly
    /// increasing; the `+Inf` bucket is implicit).
    pub fn describe_histogram(&mut self, name: &str, help: &str, buckets: &[f64]) {
        self.describe(name, MetricKind::Histogram, help, buckets);
    }

    fn describe(&mut self, name: &str, kind: MetricKind, help: &str, buckets: &[f64]) {
        self.descs.insert(
            name.to_owned(),
            MetricDesc {
                kind,
                help: help.to_owned(),
                buckets: buckets.to_vec(),
            },
        );
    }

    /// Adds `by` to a counter series, creating it at zero on first use.
    /// Undescribed names are auto-described as counters.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], by: f64) {
        self.ensure_described(name, MetricKind::Counter);
        *self.counters.entry(name, labels, || 0.0) += by;
    }

    /// Sets a gauge series to `value`.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.ensure_described(name, MetricKind::Gauge);
        *self.gauges.entry(name, labels, || value) = value;
    }

    /// Records one observation into a histogram series. Buckets come from
    /// the description (or [`DEFAULT_BUCKETS`] if the name was never
    /// described).
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.ensure_described(name, MetricKind::Histogram);
        let descs = &self.descs;
        self.histograms
            .entry(name, labels, || {
                let bounds = descs
                    .get(name)
                    .filter(|d| !d.buckets.is_empty())
                    .map_or(&DEFAULT_BUCKETS[..], |d| &d.buckets);
                Histogram::new(bounds)
            })
            .observe(value);
    }

    fn ensure_described(&mut self, name: &str, kind: MetricKind) {
        if !self.descs.contains_key(name) {
            let buckets = match kind {
                MetricKind::Histogram => DEFAULT_BUCKETS.to_vec(),
                MetricKind::Counter | MetricKind::Gauge => Vec::new(),
            };
            self.descs.insert(
                name.to_owned(),
                MetricDesc {
                    kind,
                    help: "(undocumented)".to_owned(),
                    buckets,
                },
            );
        }
    }

    /// Current value of a counter series (0 when never incremented).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.counters.get(name, labels).copied().unwrap_or(0.0)
    }

    /// Current value of a gauge series, if ever set.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(name, labels).copied()
    }

    /// A histogram series, if it has observations.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        self.histograms.get(name, labels)
    }

    /// Declared metadata per name, ascending by name.
    pub fn descriptions(&self) -> impl Iterator<Item = (&str, &MetricDesc)> {
        self.descs.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// All counter series, ascending by key.
    pub fn counters(&self) -> impl Iterator<Item = (&SeriesKey, f64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauge series, ascending by key.
    pub fn gauges(&self) -> impl Iterator<Item = (&SeriesKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histogram series, ascending by key.
    pub fn histograms(&self) -> impl Iterator<Item = (&SeriesKey, &Histogram)> {
        self.histograms.iter()
    }
}

/// A reference registry with the plainest possible store: one
/// `BTreeMap` per kind, keyed by an owned [`SeriesKey`] built on every
/// call. The tests check the sorted tables against it.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Default)]
    pub(super) struct ReferenceRegistry {
        descs: BTreeMap<String, MetricDesc>,
        counters: BTreeMap<SeriesKey, f64>,
        gauges: BTreeMap<SeriesKey, f64>,
        histograms: BTreeMap<SeriesKey, Histogram>,
    }

    impl ReferenceRegistry {
        pub(super) fn describe(&mut self, name: &str, kind: MetricKind, buckets: &[f64]) {
            self.descs.insert(
                name.to_owned(),
                MetricDesc {
                    kind,
                    help: format!("{name} help"),
                    buckets: buckets.to_vec(),
                },
            );
        }

        pub(super) fn inc(&mut self, name: &str, labels: &[(&str, &str)], by: f64) {
            self.ensure_described(name, MetricKind::Counter);
            *self
                .counters
                .entry(SeriesKey::new(name, labels))
                .or_insert(0.0) += by;
        }

        pub(super) fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
            self.ensure_described(name, MetricKind::Gauge);
            self.gauges.insert(SeriesKey::new(name, labels), value);
        }

        pub(super) fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
            self.ensure_described(name, MetricKind::Histogram);
            let bounds = self
                .descs
                .get(name)
                .filter(|d| !d.buckets.is_empty())
                .map(|d| d.buckets.clone())
                .unwrap_or_else(|| DEFAULT_BUCKETS.to_vec());
            self.histograms
                .entry(SeriesKey::new(name, labels))
                .or_insert_with(|| Histogram::new(&bounds))
                .observe(value);
        }

        fn ensure_described(&mut self, name: &str, kind: MetricKind) {
            if !self.descs.contains_key(name) {
                let buckets = match kind {
                    MetricKind::Histogram => DEFAULT_BUCKETS.to_vec(),
                    MetricKind::Counter | MetricKind::Gauge => Vec::new(),
                };
                self.descs.insert(
                    name.to_owned(),
                    MetricDesc {
                        kind,
                        help: "(undocumented)".to_owned(),
                        buckets,
                    },
                );
            }
        }

        pub(super) fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
            self.counters
                .get(&SeriesKey::new(name, labels))
                .copied()
                .unwrap_or(0.0)
        }

        pub(super) fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
            self.gauges.get(&SeriesKey::new(name, labels)).copied()
        }

        pub(super) fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
            self.histograms.get(&SeriesKey::new(name, labels))
        }

        pub(super) fn descriptions(&self) -> Vec<(&str, MetricKind, &str, &[f64])> {
            self.descs
                .iter()
                .map(|(n, d)| (n.as_str(), d.kind, d.help.as_str(), d.buckets.as_slice()))
                .collect()
        }

        pub(super) fn counters(&self) -> Vec<(&SeriesKey, f64)> {
            self.counters.iter().map(|(k, &v)| (k, v)).collect()
        }

        pub(super) fn gauges(&self) -> Vec<(&SeriesKey, f64)> {
            self.gauges.iter().map(|(k, &v)| (k, v)).collect()
        }

        pub(super) fn histograms(&self) -> Vec<(&SeriesKey, &Histogram)> {
            self.histograms.iter().collect()
        }

        /// The same contents in a [`MetricsRegistry`], copied table by
        /// table without going through its lookup or insertion code,
        /// for rendering.
        pub(super) fn to_registry(&self) -> MetricsRegistry {
            MetricsRegistry {
                descs: self.descs.clone(),
                counters: SeriesTable(self.counters.clone().into_iter().collect()),
                gauges: SeriesTable(self.gauges.clone().into_iter().collect()),
                histograms: SeriesTable(self.histograms.clone().into_iter().collect()),
            }
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::float_cmp,
    reason = "tests pin values the code computes exactly"
)]
mod tests {
    use super::reference::ReferenceRegistry;
    use super::*;
    use proptest::prelude::*;

    const NAMES: [&str; 5] = ["hits", "latency", "depth", "undescribed_a", "undescribed_b"];
    const KEYS: [&str; 3] = ["kind", "a", "zone"];
    const VALUES: [&str; 3] = ["x", "", "y\"z"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Random `inc` / `set_gauge` / `observe` sequences leave the
        /// sorted tables and the `BTreeMap` reference with equal
        /// contents: every accessor, every series iterator and the
        /// Prometheus text agree. Label sets of zero to three pairs come
        /// in random order (duplicate keys included), and two names are
        /// never described, so the first call describes them.
        #[test]
        fn registry_matches_the_btreemap_reference(
            ops in prop::collection::vec(
                (
                    0u32..3,
                    0usize..5,
                    prop::collection::vec((0usize..3, 0usize..3), 0..4),
                    -10.0f64..10.0,
                ),
                1..80,
            ),
        ) {
            let mut fast = MetricsRegistry::new();
            let mut reference = ReferenceRegistry::default();
            fast.describe_counter(NAMES[0], "hits help");
            reference.describe(NAMES[0], MetricKind::Counter, &[]);
            fast.describe_histogram(NAMES[1], "latency help", &[0.5, 1.0, 5.0]);
            reference.describe(NAMES[1], MetricKind::Histogram, &[0.5, 1.0, 5.0]);
            fast.describe_gauge(NAMES[2], "depth help");
            reference.describe(NAMES[2], MetricKind::Gauge, &[]);

            let mut touched = Vec::new();
            for (op, name, pairs, value) in ops {
                let labels: Vec<(&str, &str)> =
                    pairs.iter().map(|&(k, v)| (KEYS[k], VALUES[v])).collect();
                let name = NAMES[name];
                match op {
                    0 => {
                        fast.inc(name, &labels, value);
                        reference.inc(name, &labels, value);
                    }
                    1 => {
                        fast.set_gauge(name, &labels, value);
                        reference.set_gauge(name, &labels, value);
                    }
                    _ => {
                        fast.observe(name, &labels, value);
                        reference.observe(name, &labels, value);
                    }
                }
                touched.push((name, labels));
            }

            for (name, labels) in &touched {
                prop_assert_eq!(
                    fast.counter_value(name, labels),
                    reference.counter_value(name, labels)
                );
                prop_assert_eq!(fast.gauge_value(name, labels), reference.gauge_value(name, labels));
                prop_assert_eq!(fast.histogram(name, labels), reference.histogram(name, labels));
                // Every ordering of the same pairs finds the same series.
                let mut reversed = labels.clone();
                reversed.reverse();
                prop_assert_eq!(
                    fast.counter_value(name, &reversed),
                    reference.counter_value(name, labels)
                );
            }
            let descriptions: Vec<_> = fast
                .descriptions()
                .map(|(n, d)| (n, d.kind, d.help.as_str(), d.buckets.as_slice()))
                .collect();
            prop_assert_eq!(descriptions, reference.descriptions());
            prop_assert_eq!(fast.counters().collect::<Vec<_>>(), reference.counters());
            prop_assert_eq!(fast.gauges().collect::<Vec<_>>(), reference.gauges());
            prop_assert_eq!(fast.histograms().collect::<Vec<_>>(), reference.histograms());
            prop_assert_eq!(
                crate::prometheus::render(&fast),
                crate::prometheus::render(&reference.to_registry())
            );
        }
    }

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut reg = MetricsRegistry::new();
        reg.inc("hits", &[("kind", "slo")], 1.0);
        reg.inc("hits", &[("kind", "slo")], 1.0);
        reg.inc("hits", &[("kind", "best_effort")], 1.0);
        assert_eq!(reg.counter_value("hits", &[("kind", "slo")]), 2.0);
        assert_eq!(reg.counter_value("hits", &[("kind", "best_effort")]), 1.0);
        assert_eq!(reg.counter_value("hits", &[]), 0.0);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let mut reg = MetricsRegistry::new();
        reg.inc("m", &[("a", "1"), ("b", "2")], 1.0);
        reg.inc("m", &[("b", "2"), ("a", "1")], 1.0);
        assert_eq!(reg.counter_value("m", &[("a", "1"), ("b", "2")]), 2.0);
        assert_eq!(reg.counters().count(), 1);
    }

    #[test]
    fn gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("g", &[], 5.0);
        reg.set_gauge("g", &[], 2.5);
        assert_eq!(reg.gauge_value("g", &[]), Some(2.5));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_overflow() {
        let mut reg = MetricsRegistry::new();
        reg.describe_histogram("h", "test", &[1.0, 2.0]);
        for v in [0.5, 1.5, 1.5, 99.0] {
            reg.observe("h", &[], v);
        }
        let h = reg.histogram("h", &[]).expect("histogram exists");
        assert_eq!(h.cumulative_counts(), vec![1, 3, 4]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 102.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_observation_lands_in_le_bucket() {
        let mut reg = MetricsRegistry::new();
        reg.describe_histogram("h", "test", &[1.0]);
        reg.observe("h", &[], 1.0);
        let h = reg.histogram("h", &[]).expect("histogram exists");
        assert_eq!(h.cumulative_counts(), vec![1, 1]);
    }

    #[test]
    fn undescribed_histogram_gets_default_buckets() {
        let mut reg = MetricsRegistry::new();
        reg.observe("h", &[], 0.5);
        let h = reg.histogram("h", &[]).expect("histogram exists");
        assert_eq!(h.bounds(), &DEFAULT_BUCKETS);
    }
}
