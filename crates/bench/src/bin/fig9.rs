//! Regenerates the paper's fig9 (index: `javelin_bench` crate docs).
fn main() {
    let scale = javelin_bench::harness::scale_from_env();
    let report = javelin_bench::experiments::fig9::run(scale);
    print!("{report}");
    if let Err(e) = javelin_bench::write_report("fig9", &report) {
        eprintln!("warning: could not write results/fig9.txt: {e}");
    }
}
