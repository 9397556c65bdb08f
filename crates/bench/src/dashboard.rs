//! Text/CSV rendering of the live queue dashboard: the
//! [`HealthSnapshot`] series a [`esg_sim::QueueHealthMonitor`] cuts
//! while a run executes, formatted for a terminal or a plotting
//! pipeline.
//!
//! The monitor is the data layer (it lives in `esg-sim` next to the
//! event tap); this module is the presentation layer the example and
//! bench targets share. [`render_snapshot_text`] prints one rollup as a
//! fixed-width table, [`render_dashboard_text`] the whole series;
//! [`dashboard_csv_rows`] flattens the series into one row per
//! `(snapshot, queue)` for `write_csv`.

use esg_sim::HealthSnapshot;
use std::fmt::Write as _;

/// Renders one snapshot as a fixed-width text block: a headline with
/// the sampling instant, backlog total, and cumulative transfer
/// counters, then one row per queue.
pub fn render_snapshot_text(snap: &HealthSnapshot) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "t={:>9.0} ms  queues {:>3}  backlog {:>5}  |  \
transfers {} done {} q {} inflight {} ({:.0} MB)",
        snap.at_ms,
        snap.queues.len(),
        snap.total_backlog,
        snap.transfers.started,
        snap.transfers.completed,
        snap.transfers.queued,
        snap.transfers.inflight,
        snap.transfers.total_mb,
    )
    .expect("writing to String cannot fail");
    out.push_str("  queue  backlog  arrivals  dispatched  done   shed  mean-wait  max-wait\n");
    for q in &snap.queues {
        writeln!(
            out,
            "  {:<6} {:>8} {:>9} {:>11} {:>5} {:>6} {:>8.1}ms {:>7.1}ms",
            format!("{}.{}", q.key.app.0, q.key.stage),
            q.backlog,
            q.counters.arrivals,
            q.counters.dispatched_jobs,
            q.counters.completions,
            q.counters.shed_jobs,
            q.mean_wait_ms(),
            q.max_wait_ms(),
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Renders a whole snapshot series, one [`render_snapshot_text`] block
/// per snapshot separated by blank lines.
pub fn render_dashboard_text(snapshots: &[HealthSnapshot]) -> String {
    let mut out = String::new();
    for (i, snap) in snapshots.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_snapshot_text(snap));
    }
    out
}

/// Header line for [`dashboard_csv_rows`], matching `write_csv`'s
/// `header` parameter.
pub fn dashboard_csv_header() -> &'static str {
    "at_ms,app,stage,backlog,arrivals,dispatches,dispatched_jobs,completions,\
shed_jobs,mean_wait_ms,max_wait_ms,transfers_started,transfers_queued,transfers_completed,transfers_inflight,transfer_mb"
}

/// Flattens a snapshot series into one CSV row per `(snapshot, queue)`.
/// The snapshot-level transfer counters repeat on every row of their
/// snapshot so any row slice stays self-describing.
pub fn dashboard_csv_rows(snapshots: &[HealthSnapshot]) -> Vec<String> {
    let mut rows = Vec::new();
    for snap in snapshots {
        for q in &snap.queues {
            rows.push(format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                snap.at_ms,
                q.key.app.0,
                q.key.stage,
                q.backlog,
                q.counters.arrivals,
                q.counters.dispatches,
                q.counters.dispatched_jobs,
                q.counters.completions,
                q.counters.shed_jobs,
                q.mean_wait_ms(),
                q.max_wait_ms(),
                snap.transfers.started,
                snap.transfers.queued,
                snap.transfers.completed,
                snap.transfers.inflight,
                snap.transfers.total_mb,
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::{AppId, Config, InvocationId, NodeId};
    use esg_sim::{Observer, QueueHealthMonitor, QueueKey, SchedulerEvent};

    fn monitored_snapshots() -> Vec<HealthSnapshot> {
        let mut mon = QueueHealthMonitor::new(100.0);
        let k = QueueKey {
            app: AppId(3),
            stage: 1,
        };
        for i in 0..2u64 {
            mon.on_event(&SchedulerEvent::JobArrived {
                key: k,
                invocation: InvocationId(i),
                now_ms: 10.0,
            });
        }
        let invs = [InvocationId(0)];
        mon.on_event(&SchedulerEvent::Dispatched {
            key: k,
            invocations: &invs,
            config: Config::MIN,
            node: NodeId(0),
            now_ms: 40.0,
        });
        mon.finish(150.0)
    }

    #[test]
    fn text_dashboard_renders_headline_and_queue_rows() {
        let snaps = monitored_snapshots();
        let text = render_dashboard_text(&snaps);
        // One block per snapshot (100 ms boundary + the 150 ms close).
        assert_eq!(text.matches("queues").count(), 2, "{text}");
        assert!(text.contains("backlog     1"), "{text}");
        // The queue row carries the 30 ms dispatch wait.
        assert!(text.contains("3.1"), "{text}");
        assert!(text.contains("30.0ms"), "{text}");
    }

    #[test]
    fn csv_rows_flatten_per_snapshot_per_queue() {
        let snaps = monitored_snapshots();
        let rows = dashboard_csv_rows(&snaps);
        assert_eq!(rows.len(), 2, "one tracked queue in each of 2 snapshots");
        assert_eq!(
            dashboard_csv_header().split(',').count(),
            rows[0].split(',').count(),
            "header and rows must agree on the column count"
        );
        // at_ms, app, stage, backlog, arrivals, dispatches, dispatched
        // jobs, completions, sheds, mean/max wait, then the (here idle)
        // transfer rollup.
        assert!(rows[0].starts_with("100,3,1,"), "{}", rows[0]);
        assert_eq!(rows[1], "150,3,1,1,2,1,1,0,0,30,30,0,0,0,0,0");
    }

    #[test]
    fn transfer_counters_surface_in_text_and_csv() {
        let mut mon = QueueHealthMonitor::new(100.0);
        let k = QueueKey {
            app: AppId(1),
            stage: 0,
        };
        mon.on_event(&SchedulerEvent::JobArrived {
            key: k,
            invocation: InvocationId(0),
            now_ms: 5.0,
        });
        mon.on_event(&SchedulerEvent::TransferStarted {
            node: NodeId(2),
            mb: 48.0,
            now_ms: 20.0,
        });
        mon.on_event(&SchedulerEvent::TransferQueued {
            node: NodeId(2),
            mb: 16.0,
            now_ms: 25.0,
        });
        mon.on_event(&SchedulerEvent::TransferCompleted {
            node: NodeId(2),
            mb: 48.0,
            now_ms: 60.0,
        });
        let snaps = mon.finish(150.0);
        let text = render_dashboard_text(&snaps);
        assert!(
            text.contains("transfers 1 done 1 q 1 inflight 0 (48 MB)"),
            "{text}"
        );
        let rows = dashboard_csv_rows(&snaps);
        assert!(rows[0].ends_with("1,1,1,0,48"), "{}", rows[0]);
    }

    #[test]
    fn empty_series_renders_empty() {
        assert_eq!(render_dashboard_text(&[]), "");
        assert!(dashboard_csv_rows(&[]).is_empty());
    }
}
