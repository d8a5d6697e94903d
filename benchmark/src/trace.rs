//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Each thread that records owns a [`SpanLog`]; logs are merged when the
//! phase ends, so recording takes no lock. A disabled log records nothing,
//! which is how the untraced run pays no tracing cost.

use std::collections::BTreeMap;
use std::time::Instant;

use jsonio::Json;

use crate::stats;

/// One closed span. Times are microseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The unit of work (request, pass or epoch) the span belongs to.
    pub request: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// A per-thread span recorder.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    /// High bits of every id this log hands out, so ids of different
    /// threads never collide.
    lane: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, epoch: Instant, lane: usize) -> Self {
        SpanLog {
            enabled,
            epoch,
            lane: (lane as u64) << 40,
            spans: Vec::new(),
        }
    }

    /// Opens a span at `start`; returns its id for children to name as
    /// their parent and for [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
    ) -> u64 {
        let id = self.lane | self.spans.len() as u64;
        if self.enabled {
            let start_us = self.us(start);
            self.spans.push(Span {
                id,
                parent,
                name,
                request,
                start_us,
                end_us: start_us,
            });
        }
        id
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        if self.enabled {
            let end_us = self.us(end);
            self.spans[(id ^ self.lane) as usize].end_us = end_us;
        }
    }

    /// A span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open(name, parent, request, start);
        self.close(id, end);
        id
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are not counted twice).
pub fn self_times_us(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (f64, f64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_us, s.end_us)))
        .collect();
    for span in spans {
        if let Some((lo, hi)) = span.parent.and_then(|p| bounds.get(&p)) {
            let clipped = (span.start_us.max(*lo), span.end_us.min(*hi));
            if clipped.1 > clipped.0 {
                children
                    .entry(span.parent.unwrap_or_default())
                    .or_default()
                    .push(clipped);
            }
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0.0;
            if let Some(intervals) = children.get_mut(&span.id) {
                intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = f64::NEG_INFINITY;
                for &(lo, hi) in intervals.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
            }
            (span.id, (span.end_us - span.start_us - covered).max(0.0))
        })
        .collect()
}

/// One row of the per-layer table: all spans of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub median_us: f64,
    pub median_self_us: f64,
}

/// Aggregates spans by name, ordered by self time, largest first.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let self_us = self_times_us(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for span in spans {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.end_us - span.start_us);
        entry.1.push(self_us[&span.id]);
    }
    let mut rows: Vec<LayerRow> = by_name
        .into_iter()
        .map(|(name, (durations, selfs))| LayerRow {
            name,
            count: durations.len(),
            total_ms: durations.iter().sum::<f64>() / 1e3,
            self_ms: selfs.iter().sum::<f64>() / 1e3,
            median_us: stats::median(&durations),
            median_self_us: stats::median(&selfs),
        })
        .collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    rows
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::arr(spans.iter().map(|s| {
        Json::obj([
            ("id", Json::from(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("name", Json::from(s.name)),
            ("request", Json::from(s.request)),
            ("start_us", Json::from(s.start_us)),
            ("end_us", Json::from(s.end_us)),
        ])
    }))
}

pub fn layer_table_json(rows: &[LayerRow]) -> Json {
    Json::arr(rows.iter().map(|r| {
        Json::obj([
            ("span", Json::from(r.name)),
            ("count", Json::from(r.count)),
            ("total_ms", Json::from(r.total_ms)),
            ("self_ms", Json::from(r.self_ms)),
            ("median_us", Json::from(r.median_us)),
            ("median_self_us", Json::from(r.median_self_us)),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = [
            span(1, None, "request", 0.0, 100.0),
            // overlapping children cover 10..60 once, not 10..40 + 30..60
            span(2, Some(1), "write", 10.0, 40.0),
            span(3, Some(1), "read", 30.0, 60.0),
            // a child that runs past its parent only counts inside it
            span(4, Some(1), "late", 90.0, 130.0),
            span(5, Some(3), "parse", 35.0, 45.0),
            // a span whose parent was never recorded is a root
            span(6, Some(99), "orphan", 0.0, 7.0),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[&1], 100.0 - 50.0 - 10.0);
        assert_eq!(own[&2], 30.0);
        assert_eq!(own[&3], 20.0);
        assert_eq!(own[&4], 40.0);
        assert_eq!(own[&5], 10.0);
        assert_eq!(own[&6], 7.0);
    }

    #[test]
    fn layer_table_groups_by_name_and_sorts_by_self_time() {
        let spans = [
            span(1, None, "request", 0.0, 100.0),
            span(2, Some(1), "read", 0.0, 90.0),
            span(3, None, "request", 200.0, 260.0),
            span(4, Some(3), "read", 200.0, 250.0),
        ];
        let rows = layer_table(&spans);
        assert_eq!(rows[0].name, "read");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].self_ms, 0.14);
        assert_eq!(rows[0].median_us, 70.0);
        assert_eq!(rows[1].name, "request");
        assert_eq!(rows[1].self_ms, 0.02);
        assert_eq!(rows[1].total_ms, 0.16);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let now = Instant::now();
        let mut off = SpanLog::new(false, now, 1);
        off.record("x", None, 0, now, now);
        assert!(off.into_spans().is_empty());
        let mut on = SpanLog::new(true, now, 2);
        let root = on.open("root", None, 0, now);
        let child = on.record("child", Some(root), 0, now, now);
        on.close(root, now + std::time::Duration::from_micros(5));
        assert_ne!(child, root);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].end_us >= 5.0);
    }
}
