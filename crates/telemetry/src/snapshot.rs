//! Typed metric snapshots: the exported schema.
//!
//! A producer reads its own instruments ([`Counter`](crate::Counter),
//! [`Histogram`](crate::Histogram), plain stats structs) at scrape
//! time, names each reading as a [`Metric`], and hands the list out as
//! a [`MetricsSnapshot`] — nothing here is shared with a recording
//! path, so there is no lock to keep off one.

use crate::histogram::HistogramSnapshot;
use crate::json::Json;

/// The unit a metric is reported in (part of the exported schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds.
    Nanos,
    /// Bytes.
    Bytes,
    /// A plain count of events or objects.
    Count,
    /// A dimensionless ratio (occupancy, imbalance, fraction).
    Ratio,
}

impl Unit {
    /// Stable schema string (`"ns"`, `"bytes"`, `"count"`, `"ratio"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Nanos => "ns",
            Unit::Bytes => "bytes",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
        }
    }
}

/// A metric's value at snapshot time.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Point-in-time gauge reading.
    Gauge(f64),
    /// Full histogram snapshot (percentiles are derived at readout).
    Histogram(HistogramSnapshot),
}

/// One named, typed metric in a snapshot.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted lowercase name, e.g. `service.get.end_to_end`.
    pub name: String,
    /// Unit of the value.
    pub unit: Unit,
    /// One-line human description.
    pub help: String,
    /// The reading.
    pub value: MetricValue,
}

impl Metric {
    /// A counter metric.
    #[must_use]
    pub fn counter(name: &str, unit: Unit, help: &str, value: u64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            help: help.to_string(),
            value: MetricValue::Counter(value),
        }
    }

    /// A gauge metric.
    #[must_use]
    pub fn gauge(name: &str, unit: Unit, help: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            help: help.to_string(),
            value: MetricValue::Gauge(value),
        }
    }

    /// A histogram metric.
    #[must_use]
    pub fn histogram(name: &str, help: &str, snap: HistogramSnapshot) -> Metric {
        Metric {
            name: name.to_string(),
            unit: Unit::Nanos,
            help: help.to_string(),
            value: MetricValue::Histogram(snap),
        }
    }
}

/// A typed point-in-time view of a set of metrics, in the order their
/// producer listed them.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// The metrics, in the producer's order.
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// Looks a metric up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The value of a counter metric, if `name` is one.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The value of a gauge metric, if `name` is one.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// The snapshot of a histogram metric, if `name` is one.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match &self.get(name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Serializes to the exported JSON schema: an object keyed by
    /// metric name; counters/gauges carry `{type, unit, help, value}`,
    /// histograms add a percentile summary
    /// (`count/mean/p50/p90/p99/p999/max`, all ns).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut root = Json::obj();
        for m in &self.metrics {
            let mut entry = Json::obj()
                .with("unit", Json::Str(m.unit.as_str().to_string()))
                .with("help", Json::Str(m.help.clone()));
            match &m.value {
                MetricValue::Counter(v) => {
                    entry.set("type", Json::Str("counter".into()));
                    entry.set("value", Json::Num(*v as f64));
                }
                MetricValue::Gauge(v) => {
                    entry.set("type", Json::Str("gauge".into()));
                    entry.set("value", Json::Num(*v));
                }
                MetricValue::Histogram(h) => {
                    entry.set("type", Json::Str("histogram".into()));
                    entry.set("count", Json::Num(h.count() as f64));
                    entry.set("mean", Json::Num(h.mean()));
                    entry.set("p50", Json::Num(h.percentile(50.0) as f64));
                    entry.set("p90", Json::Num(h.percentile(90.0) as f64));
                    entry.set("p99", Json::Num(h.percentile(99.0) as f64));
                    entry.set("p999", Json::Num(h.percentile(99.9) as f64));
                    entry.set("max", Json::Num(h.max() as f64));
                }
            }
            root.set(&m.name, entry);
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    #[test]
    fn snapshot_covers_all_kinds_and_serializes() {
        let h = Histogram::new();
        h.record(1000);
        let snap = MetricsSnapshot {
            metrics: vec![
                Metric::counter("c", Unit::Count, "a counter", 7),
                Metric::gauge("g", Unit::Ratio, "a gauge", 0.5),
                Metric::histogram("h", "a histogram", h.snapshot()),
                Metric::counter("k", Unit::Bytes, "a byte count", 9),
            ],
        };
        assert_eq!(snap.counter("c"), Some(7));
        assert_eq!(snap.gauge("g"), Some(0.5));
        assert_eq!(snap.histogram("h").unwrap().count(), 1);
        assert_eq!(snap.counter("k"), Some(9));

        let json = snap.to_json();
        let text = json.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(
            back.get("h")
                .and_then(|h| h.get("type"))
                .and_then(Json::as_str),
            Some("histogram")
        );
        assert_eq!(
            back.get("k")
                .and_then(|k| k.get("value"))
                .and_then(Json::as_f64),
            Some(9.0)
        );
    }
}
