//! Regenerates the paper's table3 (index: `javelin_bench` crate docs).
fn main() {
    let scale = javelin_bench::harness::scale_from_env();
    let report = javelin_bench::experiments::table3::run(scale);
    print!("{report}");
    if let Err(e) = javelin_bench::write_report("table3", &report) {
        eprintln!("warning: could not write results/table3.txt: {e}");
    }
}
