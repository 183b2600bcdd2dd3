//! §V.E.1, defined in [`s4d_bench::paper::tab05_metadata`].
//!
//! Run: `cargo bench -p s4d-bench --bench tab05_metadata`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::tab05_metadata(Scale::from_env()));
}
