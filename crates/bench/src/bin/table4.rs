//! Regenerates the paper's table4 (index: `javelin_bench` crate docs).
fn main() {
    let scale = javelin_bench::harness::scale_from_env();
    let report = javelin_bench::experiments::table4::run(scale);
    print!("{report}");
    if let Err(e) = javelin_bench::write_report("table4", &report) {
        eprintln!("warning: could not write results/table4.txt: {e}");
    }
}
