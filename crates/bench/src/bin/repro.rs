//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p vif-bench --release --bin repro -- <experiment|all> [--quick]
//! ```
//!
//! `--smoke` is an alias for `--quick` (CI wiring reads better with it).

use vif_bench::harness::{run_experiment, ExperimentId, Scale, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "--smoke");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let targets: Vec<ExperimentId> = match args.iter().find(|a| !a.starts_with("--")) {
        None => {
            eprintln!("usage: repro <experiment|all> [--quick|--smoke]");
            eprintln!(
                "experiments: {}",
                ALL_EXPERIMENTS
                    .iter()
                    .map(|e| e.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
        Some(name) if name == "all" => ALL_EXPERIMENTS.to_vec(),
        Some(name) => match ExperimentId::parse(name) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown experiment `{name}`");
                std::process::exit(2);
            }
        },
    };

    // stderr only: reports on stdout are same-seed ⇒ same-bytes across
    // machines, and which kernel the CPU offers is not.
    eprintln!("sha256 kernel: {}", vif_crypto::sha256::kernel());
    for id in targets {
        let start = std::time::Instant::now();
        let report = run_experiment(id, scale);
        println!("{report}");
        println!("[{} completed in {:.2?}]\n", id.name(), start.elapsed());
    }
}
