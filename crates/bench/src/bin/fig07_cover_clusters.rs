//! Figure 7: classification accuracy vs number of micro-clusters on the
//! forest cover dataset (stand-in), error level f = 1.2.
//!
//! Usage: `fig07_cover_clusters [n] [seed]` (defaults: 6000, 7).

use udm_bench::{accuracy_sweep_clusters, render_table, write_results_file, ExperimentConfig};
use udm_data::UciDataset;

fn main() {
    let mut args = std::env::args().skip(1);
    let n = args.next().and_then(|a| a.parse().ok()).unwrap_or(6000);
    let seed = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let cfg = ExperimentConfig {
        n,
        seed,
        ..Default::default()
    };
    let qs = [20, 40, 60, 80, 100, 120, 140];
    let rows = accuracy_sweep_clusters(UciDataset::ForestCover, &qs, 1.2, &cfg)
        .expect("experiment should run");
    let table = render_table(
        &["q", "adjusted", "unadjusted", "nn"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.x),
                    format!("{:.4}", r.adjusted),
                    format!("{:.4}", r.unadjusted),
                    format!("{:.4}", r.nn),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("Figure 7 — forest cover, f=1.2, n={n}, seed={seed}");
    println!("{table}");
    if let Ok(path) = write_results_file("fig07_cover_clusters", &table) {
        eprintln!("wrote {}", path.display());
    }
}
