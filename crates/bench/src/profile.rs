//! Rendering helpers for the hierarchical self-profiler: the self-time
//! table `figures profile` prints, the simulator's event counts beside
//! it, and the folded-stack file it writes.
//!
//! The folded format is the flamegraph interchange format — one line
//! per unique call path, `frame;frame;frame <self-µs>` — consumable
//! directly by `flamegraph.pl` or `inferno-flamegraph`.

use std::io;
use std::path::Path;

use obs::profile::NodeStats;

use crate::output::TextTable;

/// The profiler call tree as a self-time table, heaviest self time
/// first: path, entry count, total/self milliseconds, and each node's
/// share of the run's total self time.
pub fn self_time_table(snapshot: &[(String, NodeStats)]) -> TextTable {
    let grand_self: u64 = snapshot.iter().map(|(_, s)| s.self_us).sum();
    let mut rows: Vec<&(String, NodeStats)> = snapshot.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(&b.0)));
    let mut t = TextTable::new(&["path", "count", "total_ms", "self_ms", "self_%"]);
    for (path, stats) in rows {
        let share = if grand_self == 0 {
            0.0
        } else {
            stats.self_us as f64 * 100.0 / grand_self as f64
        };
        t.row(&[
            path.clone(),
            stats.count.to_string(),
            format!("{:.1}", stats.total_us as f64 / 1_000.0),
            format!("{:.1}", stats.self_us as f64 / 1_000.0),
            format!("{share:.1}"),
        ]);
    }
    t
}

/// The simulator's dispatched events so far in this process, one
/// `(kind, count)` per [`websim::EVENT_KINDS`] entry, read from the
/// `websim_events_<kind>_total` counters (all zero under `RAC_OBS=off`).
pub fn simulator_event_counts() -> Vec<(&'static str, u64)> {
    let r = obs::Registry::global();
    websim::EVENT_KINDS
        .iter()
        .map(|&kind| {
            (
                kind,
                r.counter(&format!("websim_events_{kind}_total")).get(),
            )
        })
        .collect()
}

/// Event counts per kind as a table: count, events per second of
/// `wall_s`, and each kind's share of all events.
pub fn event_rate_table(counts: &[(&str, u64)], wall_s: f64) -> TextTable {
    let total: u64 = counts.iter().map(|&(_, n)| n).sum();
    let mut t = TextTable::new(&["event", "count", "per_wall_s", "share_%"]);
    for &(kind, n) in counts {
        let rate = if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 };
        let share = if total == 0 {
            0.0
        } else {
            n as f64 * 100.0 / total as f64
        };
        t.row(&[
            kind.to_string(),
            n.to_string(),
            format!("{rate:.0}"),
            format!("{share:.1}"),
        ]);
    }
    t
}

/// Writes the current folded-stack dump to `path`.
pub fn write_folded(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, obs::profile::folded())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(count: u64, total_us: u64, self_us: u64) -> NodeStats {
        NodeStats {
            count,
            total_us,
            self_us,
        }
    }

    #[test]
    fn table_sorts_by_self_time_and_shares_sum() {
        let snapshot = vec![
            ("tuner".to_string(), node(10, 6_000, 1_000)),
            ("tuner;sweep".to_string(), node(10, 5_000, 5_000)),
            ("measure".to_string(), node(10, 4_000, 4_000)),
        ];
        let t = self_time_table(&snapshot);
        let csv = t.render_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), "path,count,total_ms,self_ms,self_%");
        let first = lines.next().unwrap();
        assert!(first.starts_with("tuner;sweep,10,5.0,5.0,50.0"), "{first}");
        let shares: f64 = csv
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((shares - 100.0).abs() < 0.2, "shares sum to ~100: {shares}");
    }

    #[test]
    fn event_table_reports_rates_and_shares() {
        let t = event_rate_table(&[("issue", 300), ("cpu_tick", 100)], 2.0);
        assert_eq!(
            t.render_csv(),
            "event,count,per_wall_s,share_%\nissue,300,150,75.0\ncpu_tick,100,50,25.0\n"
        );
        let idle = event_rate_table(&[("issue", 0)], 0.0);
        assert_eq!(
            idle.render_csv(),
            "event,count,per_wall_s,share_%\nissue,0,0,0.0\n"
        );
    }

    #[test]
    fn empty_snapshot_renders_without_dividing_by_zero() {
        let t = self_time_table(&[]);
        assert_eq!(t.len(), 0);
    }
}
