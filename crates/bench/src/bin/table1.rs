//! Regenerates the paper's table1 (index: `javelin_bench` crate docs).
fn main() {
    let scale = javelin_bench::harness::scale_from_env();
    let report = javelin_bench::experiments::table1::run(scale);
    print!("{report}");
    if let Err(e) = javelin_bench::write_report("table1", &report) {
        eprintln!("warning: could not write results/table1.txt: {e}");
    }
}
