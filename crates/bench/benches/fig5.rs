//! Figure 5 — job arrival intervals for the heavy / normal / light
//! workload settings.

use esg_bench::{section, write_csv, Col, Table, SEED};
use esg_model::{standard_app_ids, WorkloadClass};
use esg_workload::WorkloadGen;

#[rustfmt::skip]
const COLUMNS: [Col; 6] = [
    Col::show("class", 10).left(),
    Col::show("expected", 11),
    Col::show("min", 10).fixed(2),
    Col::show("mean", 10).fixed(2),
    Col::show("max", 10).fixed(2),
    Col::show("count", 10),
];

fn main() {
    section("Figure 5: job arrival intervals");
    let mut table = Table::new(&COLUMNS);
    let mut csv = Vec::new();
    for class in WorkloadClass::all() {
        let w = WorkloadGen::new(class, standard_app_ids(), SEED).generate(400);
        let iv = w.intervals_ms();
        let (lo, hi) = class.interval_range_ms();
        let min = iv.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = iv.iter().cloned().fold(0.0, f64::max);
        let mean = iv.iter().sum::<f64>() / iv.len() as f64;
        assert!(min >= lo - 1e-9 && max <= hi + 1e-9, "intervals in range");
        let expected = format!("{lo:>5.1}-{hi:<5.1}");
        table.row([
            class.to_string().into(),
            expected.into(),
            min.into(),
            mean.into(),
            max.into(),
            iv.len().into(),
        ]);
        for (i, d) in iv.iter().enumerate() {
            csv.push(format!("{class},{i},{d:.4}"));
        }
    }
    table.note("paper ranges: heavy [10,16.8], normal [20,33.6], light [40,67.2] ms");
    table.print();
    write_csv("fig5", "class,job,interval_ms", &csv);
}
