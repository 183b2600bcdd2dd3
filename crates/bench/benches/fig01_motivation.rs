//! Figure 1, defined in [`s4d_bench::paper::fig01_motivation`].
//!
//! Run: `cargo bench -p s4d-bench --bench fig01_motivation`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::fig01_motivation(Scale::from_env()));
}
