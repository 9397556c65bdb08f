//! Figure 12 — ablation in the relaxed-heavy setting: ESG versus ESG
//! without GPU sharing (whole-GPU grants only) and ESG without batching
//! (batch fixed at 1). Each variant is a one-cell suite with its own
//! restricted configuration grid.

use esg_bench::{section, Col, Csv, ExperimentSuite, ScenarioMatrix, SchedKind, Table};
use esg_model::{ConfigGrid, Scenario};

#[rustfmt::skip]
const COLUMNS: [Col; 7] = [
    Col::show("variant", 16).left().csv("variant", Csv::Plain),
    Col::show("hit %", 8).pct(1).csv("avg_hit_rate", Csv::Fixed(4)),
    Col::show("cost (¢/inv)", 14).fixed(4).csv("cost_per_invocation_cents", Csv::Fixed(6)),
    Col::show("GPU util", 10).fixed(2).csv("gpu_util", Csv::Fixed(4)),
    Col::show("CPU util", 10).fixed(2).csv("cpu_util", Csv::Fixed(4)),
    Col::show("wait (ms)", 12).fixed(1).csv("queue_wait_ms", Csv::Fixed(2)),
    Col::show("batch", 12).fixed(2).csv("batch_mean", Csv::Fixed(3)),
];

fn main() {
    section("Figure 12: GPU-sharing and batching ablation (relaxed-heavy)");
    let grid = ConfigGrid::default();
    let variants: [(&str, ConfigGrid); 3] = [
        ("ESG", grid.clone()),
        ("no GPU sharing", grid.without_gpu_sharing(7)),
        ("no batching", grid.without_batching()),
    ];
    let mut table = Table::new(&COLUMNS);
    for (name, g) in variants {
        let sweep = ExperimentSuite::new(
            format!("fig12_{}", name.replace(' ', "_")),
            ScenarioMatrix::new()
                .schedulers([SchedKind::Esg])
                .scenarios([Scenario::RELAXED_HEAVY]),
        )
        .with_grid(g)
        .run();
        sweep.write_artifacts();
        let r = &sweep.results[0].result;
        table.row([
            name.into(),
            r.avg_hit_rate().into(),
            r.cost_per_invocation_cents().into(),
            r.vgpu_utilisation.into(),
            r.vcpu_utilisation.into(),
            r.phase_queue_wait_ms.mean().into(),
            r.batch_size.mean().into(),
        ]);
    }
    table.note(
        "paper shape: removing GPU sharing prolongs waiting (jobs queue for whole\n\
         GPUs) and hurts SLO hits; removing batching keeps hit rates but raises\n\
         cost (batching conserves resources).",
    );
    table.emit("fig12");
}
