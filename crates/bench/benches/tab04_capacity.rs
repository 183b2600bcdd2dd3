//! Table IV, defined in [`s4d_bench::paper::tab04_capacity`].
//!
//! Run: `cargo bench -p s4d-bench --bench tab04_capacity`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::tab04_capacity(Scale::from_env()));
}
