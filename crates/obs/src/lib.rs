//! Observability primitives for the TEESec framework.
//!
//! Two pieces, both free of external dependencies (shim-crate style, like
//! the rest of the workspace):
//!
//! * [`Histogram`] — a fixed-footprint, log₂-bucketed histogram of `u64`
//!   samples with exact count/sum/min/max and interpolated quantiles
//!   ([`Histogram::quantile`], [`Histogram::summary`]). Merging two
//!   histograms is lossless w.r.t. the bucket resolution, so per-worker
//!   histograms fold into campaign-wide ones.
//! * [`MetricsSnapshot`] — an ordered bag of counters, gauges, and
//!   histograms that renders itself as Prometheus text exposition format
//!   ([`MetricsSnapshot::render_prometheus`]) and, being `Serialize`, as
//!   JSON via `serde_json`.
//!
//! The campaign engine records per-phase wall times and per-case simulated
//! cycles into histograms, folds them into its aggregate metrics, and the
//! CLI's `--metrics-out` flag writes a [`MetricsSnapshot`] next to the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// Number of histogram buckets: one for zero plus one per `u64` bit length.
pub const BUCKETS: usize = 65;

/// The `Content-Type` of the Prometheus text exposition format version
/// [`MetricsSnapshot::render_prometheus`] emits — what a conforming
/// `/metrics` endpoint must send.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 counts exact zeros; bucket `i` (1..=64) counts samples whose
/// bit length is `i`, i.e. the half-open range `[2^(i-1), 2^i)`. Count,
/// sum, min, and max are exact; quantiles interpolate linearly inside the
/// hit bucket and are clamped to `[min, max]`, so they are never more than
/// one octave off and are exact at the distribution's edges.
///
/// ```
/// use teesec_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.max(), 1000);
/// assert!(h.quantile(0.5) >= 2 && h.quantile(0.5) <= 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Per-bucket sample counts (see type docs for the bucket layout).
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for `value` (its bit length).
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive value range `[lo, hi]` covered by bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), ((1u128 << i) - 1) as u64)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), interpolated within the hit bucket
    /// and clamped to the exact `[min, max]` range. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample the quantile falls on.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = Self::bucket_range(i);
                let into = rank - seen; // 1..=n within this bucket
                let span = hi - lo;
                let est = lo + ((u128::from(span) * u128::from(into)) / u128::from(n)) as u64;
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// The canonical five-number summary plus count and sum.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs, in
    /// ascending bound order (the shape Prometheus buckets want, before
    /// cumulation).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_range(i).1, n))
    }
}

/// Percentile summary of a [`Histogram`] — the digest folded into the
/// engine's aggregate metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u128,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Median (log-bucket interpolated).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// One labeled scalar sample of a metric family.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScalarMetric {
    /// Metric family name (`teesec_cases_total`, ...).
    pub name: String,
    /// Label pairs, rendered in order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: u64,
    /// One-line help text (emitted once per family).
    pub help: String,
}

/// One histogram metric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramMetric {
    /// Metric family name.
    pub name: String,
    /// Label pairs shared by every series of this entry (`le` is appended
    /// last on the `_bucket` series at render time).
    pub labels: Vec<(String, String)>,
    /// One-line help text.
    pub help: String,
    /// The samples.
    pub histogram: Histogram,
    /// Pre-computed digest (kept in the JSON form for consumers that don't
    /// want to re-derive quantiles from buckets).
    pub summary: Summary,
}

/// An ordered collection of metrics, renderable as Prometheus text format
/// or JSON.
///
/// ```
/// use teesec_obs::{Histogram, MetricsSnapshot};
///
/// let mut snap = MetricsSnapshot::new();
/// snap.counter("teesec_cases_total", &[], 42, "Cases attempted");
/// let mut h = Histogram::new();
/// h.record(7);
/// snap.histogram("teesec_case_cycles", h, "Simulated cycles per case");
/// let text = snap.render_prometheus();
/// assert!(text.contains("teesec_cases_total 42"));
/// assert!(text.contains("teesec_case_cycles_count 1"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: Vec<ScalarMetric>,
    /// Point-in-time gauges.
    pub gauges: Vec<ScalarMetric>,
    /// Fixed-point gauges: `value` holds millionths, rendered as a decimal
    /// (`1_500_000` → `1.500000`). Keeps seconds- and ratio-valued series
    /// exact and `Eq` without `f64` anywhere in the snapshot.
    pub micro_gauges: Vec<ScalarMetric>,
    /// Distributions.
    pub histograms: Vec<HistogramMetric>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Appends a counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64, help: &str) {
        self.counters.push(ScalarMetric {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
            help: help.to_string(),
        });
    }

    /// Appends a gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64, help: &str) {
        self.gauges.push(ScalarMetric {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
            help: help.to_string(),
        });
    }

    /// Appends a fixed-point gauge sample: `value_micro` is the value in
    /// millionths (so `teesec_phase_wall_seconds_p50` for 1.5 s is
    /// `1_500_000`), rendered as `1.500000` in the Prometheus exposition.
    pub fn gauge_micro(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        value_micro: u64,
        help: &str,
    ) {
        self.micro_gauges.push(ScalarMetric {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: value_micro,
            help: help.to_string(),
        });
    }

    /// Appends an unlabeled histogram.
    pub fn histogram(&mut self, name: &str, histogram: Histogram, help: &str) {
        self.histogram_labeled(name, &[], histogram, help);
    }

    /// Appends a labeled histogram: one `(name, labels)` series of the
    /// family `name`. The `le` bucket label is appended after `labels` at
    /// render time, and `# HELP`/`# TYPE` headers are emitted once per
    /// family even when several labeled series share it.
    pub fn histogram_labeled(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        histogram: Histogram,
        help: &str,
    ) {
        let summary = histogram.summary();
        self.histograms.push(HistogramMetric {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: help.to_string(),
            histogram,
            summary,
        });
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Series are grouped by family (first-appearance order) so each
    /// `# HELP`/`# TYPE` header is emitted exactly once, as the format
    /// requires, regardless of insertion order.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (metrics, kind, micro) in [
            (&self.counters, "counter", false),
            (&self.gauges, "gauge", false),
            (&self.micro_gauges, "gauge", true),
        ] {
            let mut families: Vec<&str> = Vec::new();
            for m in metrics.iter() {
                if !families.contains(&m.name.as_str()) {
                    families.push(&m.name);
                }
            }
            for family in families {
                let mut first = true;
                for m in metrics.iter().filter(|m| m.name == family) {
                    if first {
                        let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                        let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
                        first = false;
                    }
                    let value = if micro {
                        format!("{}.{:06}", m.value / 1_000_000, m.value % 1_000_000)
                    } else {
                        m.value.to_string()
                    };
                    let _ = writeln!(out, "{}{} {}", m.name, render_labels(&m.labels), value);
                }
            }
        }
        let mut hist_families: Vec<&str> = Vec::new();
        for h in &self.histograms {
            if !hist_families.contains(&h.name.as_str()) {
                hist_families.push(&h.name);
            }
        }
        for family in hist_families {
            let mut first = true;
            for h in self.histograms.iter().filter(|h| h.name == family) {
                if first {
                    let _ = writeln!(out, "# HELP {} {}", h.name, h.help);
                    let _ = writeln!(out, "# TYPE {} histogram", h.name);
                    first = false;
                }
                let mut cumulative = 0u64;
                for (le, n) in h.histogram.nonzero_buckets() {
                    cumulative += n;
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        h.name,
                        render_labels_with_le(&h.labels, &le.to_string())
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    render_labels_with_le(&h.labels, "+Inf"),
                    h.histogram.count()
                );
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    h.name,
                    render_labels(&h.labels),
                    h.histogram.sum()
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    h.name,
                    render_labels(&h.labels),
                    h.histogram.count()
                );
            }
        }
        out
    }

    /// Serializes the snapshot as pretty-printed JSON.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize metrics snapshot")
    }
}

/// Renders a Prometheus label set (empty string when there are no labels).
fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Renders a Prometheus label set with the `le` bucket label appended last
/// (Prometheus convention for histogram `_bucket` series).
fn render_labels_with_le(labels: &[(String, String)], le: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    body.push(format!("le=\"{le}\""));
    format!("{{{}}}", body.join(","))
}

/// Escapes a label value per the Prometheus text format rules.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), Summary::default());
    }

    #[test]
    fn exact_stats_and_bucketing() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 7, 8, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), 1 + 1 + 7 + 8 + 1000 + u128::from(u64::MAX));
        // 0 → bucket 0; 1 → bucket 1; 7 → bucket 3; 8 → bucket 4;
        // 1000 → bucket 10; MAX → bucket 64.
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (1, 2));
        assert_eq!(buckets[2], (7, 1));
        assert_eq!(buckets[3], (15, 1));
        assert_eq!(buckets[4], (1023, 1));
        assert_eq!(buckets[5], (u64::MAX, 1));
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p50 >= h.min() && p99 <= h.max());
        // The median of 1..=1000 is ~500; log buckets bound the error by one
        // octave: the estimate must land in [256, 1023].
        assert!((256..=1023).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_roundtrips_through_json() {
        let mut h = Histogram::new();
        for v in [1u64, 10, 100] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).expect("serialize");
        let back: Histogram = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, h);
        assert_eq!(back.summary(), h.summary());
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut snap = MetricsSnapshot::new();
        snap.counter("t_total", &[], 3, "total things");
        snap.counter("t_by_kind", &[("kind", "a\"b")], 1, "things by kind");
        snap.gauge("t_now", &[("s", "x")], 9, "current things");
        let mut h = Histogram::new();
        h.record(5);
        h.record(100);
        snap.histogram("t_lat", h, "latency");

        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE t_total counter"), "{text}");
        assert!(text.contains("t_total 3"));
        assert!(text.contains("t_by_kind{kind=\"a\\\"b\"} 1"));
        assert!(text.contains("# TYPE t_now gauge"));
        assert!(text.contains("t_now{s=\"x\"} 9"));
        assert!(text.contains("# TYPE t_lat histogram"));
        assert!(text.contains("t_lat_bucket{le=\"7\"} 1"));
        assert!(text.contains("t_lat_bucket{le=\"127\"} 2"));
        assert!(text.contains("t_lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("t_lat_sum 105"));
        assert!(text.contains("t_lat_count 2"));
    }

    #[test]
    fn labeled_histograms_share_one_family_header() {
        let mut snap = MetricsSnapshot::new();
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(100);
        b.record(200);
        snap.histogram_labeled("t_res_cycles", &[("structure", "L1d")], a, "residency");
        snap.histogram_labeled("t_res_cycles", &[("structure", "Lfb")], b, "residency");

        let text = snap.render_prometheus();
        // One HELP/TYPE pair for the whole family, both series present.
        assert_eq!(text.matches("# TYPE t_res_cycles histogram").count(), 1);
        assert!(
            text.contains("t_res_cycles_bucket{structure=\"L1d\",le=\"7\"} 1"),
            "{text}"
        );
        assert!(text.contains("t_res_cycles_bucket{structure=\"L1d\",le=\"+Inf\"} 1"));
        assert!(text.contains("t_res_cycles_bucket{structure=\"Lfb\",le=\"255\"} 2"));
        assert!(text.contains("t_res_cycles_sum{structure=\"L1d\"} 5"));
        assert!(text.contains("t_res_cycles_count{structure=\"Lfb\"} 2"));
    }

    #[test]
    fn micro_gauges_render_as_fixed_point_decimals() {
        let mut snap = MetricsSnapshot::new();
        snap.gauge_micro(
            "t_wall_seconds",
            &[("phase", "simulate")],
            1_500_000,
            "wall s",
        );
        snap.gauge_micro("t_wall_seconds", &[("phase", "scan")], 42, "wall s");
        snap.gauge_micro("t_busy_ratio", &[], 987_654, "busy fraction");
        let text = snap.render_prometheus();
        assert!(text.contains("# TYPE t_wall_seconds gauge"), "{text}");
        assert!(text.contains("t_wall_seconds{phase=\"simulate\"} 1.500000"));
        assert!(text.contains("t_wall_seconds{phase=\"scan\"} 0.000042"));
        assert!(text.contains("t_busy_ratio 0.987654"));
        // One HELP/TYPE pair for the two-sample family.
        assert_eq!(text.matches("# TYPE t_wall_seconds").count(), 1);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut snap = MetricsSnapshot::new();
        snap.counter("c", &[("l", "v")], 1, "help");
        snap.histogram("h", Histogram::new(), "help");
        let json = snap.render_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
