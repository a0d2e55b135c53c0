//! Regenerates the ablation study (`javelin_bench::experiments::ablation`).
fn main() {
    let scale = javelin_bench::harness::scale_from_env();
    let report = javelin_bench::experiments::ablation::run(scale);
    print!("{report}");
    if let Err(e) = javelin_bench::write_report("ablation", &report) {
        eprintln!("warning: could not write results/ablation.txt: {e}");
    }
}
