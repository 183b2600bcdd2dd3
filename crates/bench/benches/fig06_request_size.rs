//! Figure 6, defined in [`s4d_bench::paper::fig06_request_size`].
//!
//! Run: `cargo bench -p s4d-bench --bench fig06_request_size`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::fig06_request_size(Scale::from_env()));
}
