//! One-shot reproduction driver: prints every section of
//! [`s4d_bench::paper::SECTIONS`] in order, i.e. the stdout of all ten
//! figure/table bench targets concatenated between a header and a footer.
//! The experiments themselves live only in `s4d_bench::paper`.
//!
//! ```text
//! cargo run -p s4d-bench --release --bin reproduce          # scaled (÷8)
//! S4D_SCALE_FACTOR=1 cargo run -p s4d-bench --release --bin reproduce
//! ```

use s4d_bench::paper::SECTIONS;
use s4d_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    println!(
        "# S4D-Cache reproduction run (scale factor {}, seed 0x54D)\n",
        scale.factor()
    );
    for (_, section) in SECTIONS {
        print!("{}", section(scale));
    }
    println!("\nDone. Compare against the paper via EXPERIMENTS.md.");
}
