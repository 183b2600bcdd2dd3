//! Figure 9, defined in [`s4d_bench::paper::fig09_hpio`].
//!
//! Run: `cargo bench -p s4d-bench --bench fig09_hpio`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::fig09_hpio(Scale::from_env()));
}
