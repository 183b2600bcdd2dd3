//! Figure 7, defined in [`s4d_bench::paper::fig07_process_count`].
//!
//! Run: `cargo bench -p s4d-bench --bench fig07_process_count`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::fig07_process_count(Scale::from_env()));
}
