//! Regenerates the paper's fig11 (index: `javelin_bench` crate docs).
fn main() {
    let scale = javelin_bench::harness::scale_from_env();
    let report = javelin_bench::experiments::fig11::run(scale);
    print!("{report}");
    if let Err(e) = javelin_bench::write_report("fig11", &report) {
        eprintln!("warning: could not write results/fig11.txt: {e}");
    }
}
