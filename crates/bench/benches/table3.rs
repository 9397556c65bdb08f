//! Table 3 — the serverless function catalog, cross-checked against the
//! profile substrate (minimum-configuration latency must reproduce the
//! measured execution time exactly).

use esg_bench::{section, Col, Csv, Table};
use esg_model::{standard_catalog, Config, ConfigGrid, PriceModel};
use esg_profile::ProfileTable;

#[rustfmt::skip]
const COLUMNS: [Col; 6] = [
    Col::show("function", 20).left().csv("function", Csv::Plain),
    Col::show("exec (ms)", 12).fixed(0).csv("exec_ms", Csv::Plain),
    Col::show("cold start(ms)", 14).fixed(0).csv("cold_start_ms", Csv::Plain),
    Col::show("input (MB)", 12).fixed(3).csv("input_mb", Csv::Plain),
    Col::show("model", 22).left().csv("model", Csv::Plain),
    Col::show("profile@min(ms)", 14).fixed(0).csv("profile_at_min_ms", Csv::Plain),
];

fn main() {
    section("Table 3: serverless functions");
    let catalog = standard_catalog();
    let profiles = ProfileTable::build(&catalog, &ConfigGrid::default(), &PriceModel::default());
    let mut table = Table::new(&COLUMNS);
    for (id, f) in catalog.iter() {
        let at_min = profiles.profile(id).min_config_entry().latency_ms;
        assert!(
            (at_min - f.exec_ms).abs() < 1e-9,
            "profile substrate must reproduce Table 3 at (1,1,1)"
        );
        table.row([
            f.name.into(),
            f.exec_ms.into(),
            f.cold_start_ms.into(),
            f.input_mb.into(),
            f.model.into(),
            at_min.into(),
        ]);
    }
    // A taste of the extrapolated profile (not in the paper's table, but
    // the quantity its Fig. 3 example is built from).
    let deblur = catalog.find("deblur").expect("catalog");
    let e = profiles
        .profile(deblur)
        .find(Config::new(4, 4, 2))
        .expect("grid");
    table.note(format!(
        "example extrapolation: deblur @ (b=4,c=4,g=2): {:.0} ms task, {:.4}¢/job",
        e.latency_ms, e.per_job_cost_cents
    ));
    table.emit("table3");
}
