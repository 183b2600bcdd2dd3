//! Figure 8, defined in [`s4d_bench::paper::fig08_cserver_count`].
//!
//! Run: `cargo bench -p s4d-bench --bench fig08_cserver_count`

use s4d_bench::{paper, Scale};

fn main() {
    print!("{}", paper::fig08_cserver_count(Scale::from_env()));
}
