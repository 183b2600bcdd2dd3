//! Replay probes for layers that run inside other layers. The traced run
//! captures the request stream, the planned-op stream and the
//! device-level access stream; these functions then time the layers'
//! public entry points over exactly those streams.

use std::hint::black_box;
use std::time::Instant;

use s4d_cost::{BenefitEvaluator, CostParams};
use s4d_mpiio::Tier;
use s4d_pfs::StripeLayout;
use s4d_storage::{ExtentStore, IoKind, StoreMode};

use crate::probe::{Recorder, C_SERVERS, D_SERVERS, STRIPE};
use crate::stats;

/// Calls per timed batch: one call of the cost model or of the striping
/// split is too short to time alone, so each sample is a batch's mean.
const BATCH: usize = 32;

#[derive(Debug, Default)]
pub struct Replayed {
    pub eval_calls: u64,
    pub eval_p50_ns: f64,
    pub eval_p99_ns: f64,
    pub split_calls: u64,
    pub split_p50_ns: f64,
    pub split_p99_ns: f64,
    pub store_write_s: f64,
    pub store_read_s: f64,
}

/// Per-call nanoseconds of `f` over `items`, one sample per batch.
fn batched<T>(items: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    items
        .chunks(BATCH)
        .map(|chunk| {
            let start = Instant::now();
            for item in chunk {
                f(item);
            }
            start.elapsed().as_nanos() as f64 / chunk.len() as f64
        })
        .collect()
}

pub fn replay(rec: &Recorder, params: CostParams, mode: StoreMode) -> Replayed {
    let mut out = Replayed::default();

    // `BenefitEvaluator::evaluate`, keyed like the Data Identifier keys
    // it: (rank, file).
    let mut ev = BenefitEvaluator::<(u32, u64)>::new(params);
    let mut samples = batched(&rec.requests, |r| {
        black_box(ev.evaluate(black_box((r.rank, r.file)), r.offset, r.len));
    });
    out.eval_calls = rec.requests.len() as u64;
    out.eval_p50_ns = stats::quantile(&mut samples, 0.50);
    out.eval_p99_ns = stats::quantile(&mut samples, 0.99);

    // `StripeLayout::split` over every planned op, on its tier's layout.
    let opfs = StripeLayout::new(STRIPE, D_SERVERS);
    let cpfs = StripeLayout::new(STRIPE, C_SERVERS);
    let mut samples = batched(&rec.ops, |op| {
        let layout = match op.tier {
            Tier::DServers => &opfs,
            Tier::CServers => &cpfs,
        };
        black_box(layout.split(black_box(op.offset), op.len));
    });
    out.split_calls = rec.ops.len() as u64;
    out.split_p50_ns = stats::quantile(&mut samples, 0.50);
    out.split_p99_ns = stats::quantile(&mut samples, 0.99);

    // `ExtentStore` over the device-level stream, one store per device
    // addressed by LBA, in the workload's store mode.
    let mut stores: Vec<ExtentStore> = (0..D_SERVERS + C_SERVERS)
        .map(|_| ExtentStore::new(mode))
        .collect();
    let max_len = rec.device_ops.iter().map(|d| d.len).max().unwrap_or(0);
    let buf: Vec<u8> = (0..max_len).map(|i| (i % 251) as u8).collect();
    for d in &rec.device_ops {
        let store = &mut stores[usize::from(d.device)];
        let start = Instant::now();
        match d.kind {
            IoKind::Write => {
                let data = (mode == StoreMode::Functional).then(|| &buf[..d.len as usize]);
                store.write(d.lba, d.len, data);
                out.store_write_s += start.elapsed().as_secs_f64();
            }
            IoKind::Read => {
                black_box(store.read(d.lba, d.len));
                out.store_read_s += start.elapsed().as_secs_f64();
            }
        }
    }
    out
}
