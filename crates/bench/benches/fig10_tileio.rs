//! Figure 10, defined in [`s4d_bench::paper::fig10_tileio`].
//!
//! Run: `cargo bench -p s4d-bench --bench fig10_tileio`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::fig10_tileio(Scale::from_env()));
}
