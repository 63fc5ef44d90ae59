//! Figure 5: classification accuracy vs number of micro-clusters on the
//! adult dataset (stand-in), error level f = 1.2.
//!
//! Usage: `fig05_adult_clusters [n] [seed]` (defaults: 4000, 7).

use udm_bench::{accuracy_sweep_clusters, render_table, write_results_file, ExperimentConfig};
use udm_data::UciDataset;

fn main() {
    let mut args = std::env::args().skip(1);
    let n = args.next().and_then(|a| a.parse().ok()).unwrap_or(4000);
    let seed = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let cfg = ExperimentConfig {
        n,
        seed,
        ..Default::default()
    };
    let qs = [20, 40, 60, 80, 100, 120, 140];
    let rows =
        accuracy_sweep_clusters(UciDataset::Adult, &qs, 1.2, &cfg).expect("experiment should run");
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
    println!("Figure 5 — adult, f=1.2, n={n}, seed={seed}");
    println!("{table}");
    if let Ok(path) = write_results_file("fig05_adult_clusters", &table) {
        eprintln!("wrote {}", path.display());
    }
}
