//! §5.4 platform characterization — NetPIPE-style ping-pong over the grid:
//! the network is "up to 20 times faster between two nodes of the same
//! cluster than between two nodes of two distinct clusters. Moreover, the
//! latency is up to two orders of magnitude greater between clusters."

use std::sync::{Arc, Mutex};

use ftmpi_core::{JobSpec, Platform, ProtocolChoice};
use ftmpi_mpi::AppFn;
use ftmpi_nas::synth::{netpipe_app, PingPongResults};
use ftmpi_net::NodeId;

use crate::{print_table, HarnessArgs, MemoCache};

/// Largest message and repetition count of the ping-pong series.
const MAX_BYTES: u64 = 1 << 22;
const REPS: usize = 4;

/// Spec for the ping-pong pair on two explicit nodes of the grid, plus the
/// collector its app closure fills. The job must stay **unkeyed** in the
/// result memo: a hit there would skip the run that populates the
/// collector, so netpipe simulates on every run, warm cache or not.
fn planned(nodes: [usize; 2]) -> (JobSpec, PingPongResults) {
    let results: PingPongResults = Arc::new(Mutex::new(Vec::new()));
    let app: AppFn = netpipe_app(MAX_BYTES, REPS, Arc::clone(&results));
    let mut spec = JobSpec::new(2, ProtocolChoice::Dummy, app);
    spec.platform = Platform::Grid;
    spec.servers = 1;
    // Pin the two ranks to the requested nodes through an explicit
    // placement override once the deployment is built.
    spec.placement_override = Some(vec![NodeId(nodes[0]), NodeId(nodes[1])]);
    (spec, results)
}

/// Run the characterization and render the table.
pub fn run(args: &HarnessArgs, cache: &Arc<MemoCache>) {
    // Orsay is nodes 101..316 of the grid deployment; Bordeaux 0..47.
    let (intra_spec, intra_results) = planned([101, 102]); // two Orsay nodes
    let (inter_spec, inter_results) = planned([0, 101]); // Bordeaux ↔ Orsay
    let mut runner = args.sweep(cache);
    runner.add("netpipe/intra", intra_spec);
    runner.add("netpipe/inter", inter_spec);
    for result in runner.run() {
        result.expect("netpipe run");
    }
    let poisoned = "ping-pong sink poisoned by a panicking rank";
    let intra = intra_results.lock().expect(poisoned).clone();
    let inter = inter_results.lock().expect(poisoned).clone();

    let mut rows = Vec::new();
    for (a, b) in intra.iter().zip(inter.iter()) {
        assert_eq!(a.bytes, b.bytes);
        rows.push(vec![
            a.bytes.to_string(),
            format!("{:.1}", a.one_way_secs * 1e6),
            format!("{:.1}", b.one_way_secs * 1e6),
            format!("{:.1}", a.bandwidth / 1e6),
            format!("{:.1}", b.bandwidth / 1e6),
            format!("{:.1}", a.bandwidth / b.bandwidth),
        ]);
    }
    print_table(
        "NetPIPE (§5.4): intra-cluster vs. inter-cluster ping-pong on the grid",
        &[
            "bytes",
            "lat-intra(µs)",
            "lat-inter(µs)",
            "bw-intra(MB/s)",
            "bw-inter(MB/s)",
            "bw-ratio",
        ],
        &rows,
    );
    let top_intra = intra.last().unwrap();
    let top_inter = inter.last().unwrap();
    let bw_ratio = top_intra.bandwidth / top_inter.bandwidth;
    let small_intra = intra.first().unwrap();
    let small_inter = inter.first().unwrap();
    let lat_ratio = small_inter.one_way_secs / small_intra.one_way_secs;
    println!("\npeak bandwidth ratio intra/inter: {bw_ratio:.1}× (paper: up to 20×)");
    println!(
        "small-message latency ratio inter/intra: {lat_ratio:.0}× (paper: up to two orders of magnitude)"
    );
}
