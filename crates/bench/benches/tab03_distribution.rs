//! Table III, defined in [`s4d_bench::paper::tab03_distribution`].
//!
//! Run: `cargo bench -p s4d-bench --bench tab03_distribution`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::tab03_distribution(Scale::from_env()));
}
