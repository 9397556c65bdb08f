//! Table 1 — feature comparison of the five serverless systems.
//!
//! The rows come from each scheduler's `capabilities()` (encoding the
//! published systems, not our §4.2-extended variants).

use esg_bench::{section, Col, Csv, SchedKind, Table};
use std::iter::once;

#[rustfmt::skip]
const COLUMNS: [Col; 6] = [
    Col::show("feature", 24).left().csv("feature", Csv::Plain),
    Col::show("INFless", 12).csv("INFless", Csv::Plain),
    Col::show("Fast-GShare", 12).csv("FaST-GShare", Csv::Plain),
    Col::show("Orion", 12).csv("Orion", Csv::Plain),
    Col::show("Aquatope", 12).csv("Aquatope", Csv::Plain),
    Col::show("ESG", 12).csv("ESG", Csv::Plain),
];

fn main() {
    section("Table 1: comparison of serverless systems");
    let order = [
        SchedKind::Infless,
        SchedKind::FastGShare,
        SchedKind::Orion,
        SchedKind::Aquatope,
        SchedKind::Esg,
    ];
    let caps: Vec<_> = order.iter().map(|k| k.build().capabilities()).collect();
    type CapFn = fn(&esg_sim::Capabilities) -> bool;
    let rows: [(&str, CapFn); 5] = [
        ("GPU sharing", |c| c.gpu_sharing),
        ("Inter-function relation", |c| c.inter_function_relation),
        ("Adaptive sched.", |c| c.adaptive),
        ("Data locality", |c| c.data_locality),
        ("Pre-warming", |c| c.pre_warming),
    ];
    let mut table = Table::new(&COLUMNS);
    for (name, f) in rows {
        let ticks = caps
            .iter()
            .map(|c| (if f(c) { "yes" } else { "no" }).into());
        table.row(once(name.into()).chain(ticks));
    }
    table.emit("table1");
}
