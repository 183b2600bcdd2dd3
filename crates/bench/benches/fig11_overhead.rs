//! Figure 11, defined in [`s4d_bench::paper::fig11_overhead`].
//!
//! Run: `cargo bench -p s4d-bench --bench fig11_overhead`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::fig11_overhead(Scale::from_env()));
}
