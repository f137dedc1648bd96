//! Run every figure/table harness in one process (fast mode by default),
//! sharing one `MemoCache` so configurations that recur across figures
//! (e.g. Fig. 7's and Fig. 8's common baselines) are simulated once. The
//! cache is backed by `<out>/.cache/` on disk, so a second run replays
//! every figure without simulating anything (disable with `FTMPI_NO_CACHE`).
//!
//! ```sh
//! cargo run --release -p ftmpi-bench --bin all_figures [-- --full] [-- --jobs N]
//! ```

use ftmpi_bench::{figures, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    let cache = args.cache();
    for (name, run) in figures::ALL {
        println!("\n################ {name} ################");
        run(&args, &cache);
    }
    println!("\nAll experiments done; records in results/*.json");
    println!("{}", cache.summary());
}
