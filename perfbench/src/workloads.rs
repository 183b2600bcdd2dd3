//! The three workloads: their inputs (made from the seed), their set-up,
//! and one timed execution with the checks that go with it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use s4d_bench::experiments::testbed;
use s4d_cache::{S4dCache, S4dConfig};
use s4d_cost::CostParams;
use s4d_mpiio::{script, Cluster, IoObserver, Middleware, ProcessScript, Rank, RunReport, Runner};
use s4d_storage::{IoKind, StoreMode};
use s4d_workloads::campaign::CampaignConfig;
use s4d_workloads::{AccessPattern, Permutation};

use crate::calib::HostClock;
use crate::probe::{self, DispatchCounter, Layer, Probe, TracedMiddleware};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §V.B 10-instance IOR campaign at 16 KiB, then drain and
    /// the second-run read.
    CampaignMix,
    /// Ten sequential IOR instances at 4 MiB: the cost model bypasses the
    /// cache, so the time goes to the runner, striping and the HDD model.
    SeqStream,
    /// Functional mode: random writes, a crash, recovery, byte-checked
    /// reads.
    CrashRestart,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "campaign_mix" => Some(Workload::CampaignMix),
            "seq_stream" => Some(Workload::SeqStream),
            "crash_restart" => Some(Workload::CrashRestart),
            _ => None,
        }
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` is for the
/// smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// A workload at a size and seed; everything a repetition needs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub size: Size,
}

/// One process script per rank.
type Scripts = Vec<Box<dyn ProcessScript>>;

const CAMPAIGN_PROCS: u32 = 32;
const CRASH_PROCS: u32 = 1;
const REQ_16K: u64 = 16 * KIB;
const REQ_4M: u64 = 4 * MIB;

impl Spec {
    /// Per-instance shared-file size of the IOR workloads, or the total
    /// data of `crash_restart`.
    fn data_bytes(&self) -> u64 {
        match (self.workload, self.size) {
            (Workload::CampaignMix, Size::Full) => 64 * MIB,
            (Workload::CampaignMix, Size::Tiny) => 2 * MIB,
            (Workload::SeqStream, Size::Full) => 4096 * MIB,
            (Workload::SeqStream, Size::Tiny) => 128 * MIB,
            (Workload::CrashRestart, Size::Full) => 32 * MIB,
            (Workload::CrashRestart, Size::Tiny) => 2 * MIB,
        }
    }

    /// The seed of the simulated cluster (device noise) and of the
    /// workload generator, both derived from the benchmark's seed.
    fn cluster_seed(&self) -> u64 {
        mix(self.seed, 0xC1A5)
    }

    /// Cost-model parameters of the simulated testbed.
    pub fn params(&self) -> CostParams {
        testbed(self.cluster_seed()).cost_params()
    }

    /// The paper's campaign mix at this spec's size, seeded.
    fn campaign(&self, request: u64) -> CampaignConfig {
        let mut cfg = CampaignConfig::paper_mix(CAMPAIGN_PROCS, self.data_bytes(), request);
        cfg.seed = mix(self.seed, 0x10A);
        cfg
    }

    fn crash_config(&self) -> S4dConfig {
        S4dConfig::new(self.data_bytes() / 4)
    }

    /// `crash_restart` keeps real bytes; the others keep extents only.
    pub fn store_mode(&self) -> StoreMode {
        match self.workload {
            Workload::CrashRestart => StoreMode::Functional,
            _ => StoreMode::Timing,
        }
    }

    /// Generates the inputs and builds the cluster and middleware. With a
    /// probe, the cluster's devices are wrapped.
    pub fn prepare(&self, probe: Option<&Probe>) -> Prepared {
        let mode = self.store_mode();
        let cluster = match probe {
            Some(p) => probe::traced_cluster(mode, self.cluster_seed(), p),
            None => probe::plain_cluster(mode, self.cluster_seed()),
        };
        match self.workload {
            Workload::CampaignMix => {
                let cfg = self.campaign(REQ_16K);
                let mw = S4dCache::new(S4dConfig::new(cfg.total_data_bytes() / 5), self.params());
                let mut reread = cfg.clone();
                reread.do_write = false;
                Prepared {
                    cluster,
                    mw,
                    phases: vec![boxed(cfg.scripts()), boxed(reread.scripts())],
                    expected: vec![ior_ops(&cfg), ior_ops(&reread)],
                }
            }
            Workload::SeqStream => {
                let mut cfg = self.campaign(REQ_4M);
                cfg.patterns = vec![AccessPattern::Sequential; cfg.patterns.len()];
                let mw = S4dCache::new(S4dConfig::new(cfg.total_data_bytes() / 5), self.params());
                Prepared {
                    cluster,
                    mw,
                    phases: vec![boxed(cfg.scripts())],
                    expected: vec![ior_ops(&cfg)],
                }
            }
            Workload::CrashRestart => {
                let mw = S4dCache::new(self.crash_config(), self.params());
                let (writes, reads) = self.crash_scripts();
                let per_phase = self.data_bytes() / REQ_16K;
                Prepared {
                    cluster,
                    mw,
                    phases: vec![writes, reads],
                    expected: vec![(per_phase, 0), (0, per_phase)],
                }
            }
        }
    }

    /// Each rank owns `1/CRASH_PROCS` of one shared file. It writes every
    /// 16 KiB block of its region once, in a seeded random order, with a
    /// payload derived from the block's offset; after the restart it
    /// reads the region back in another random order.
    fn crash_scripts(&self) -> (Scripts, Scripts) {
        let region = self.data_bytes() / CRASH_PROCS as u64;
        let blocks = region / REQ_16K;
        let mut writes: Scripts = Vec::new();
        let mut reads: Scripts = Vec::new();
        for rank in 0..CRASH_PROCS as u64 {
            let base = rank * region;
            let order = Permutation::new(blocks, mix(self.seed, 0xA000 + rank));
            let mut w = script().open(CRASH_FILE);
            for i in 0..blocks {
                let off = base + order.apply(i) * REQ_16K;
                w = w.write_bytes(0, off, payload(self.seed, off, REQ_16K));
            }
            writes.push(Box::new(w.close(0).build()));
            let order = Permutation::new(blocks, mix(self.seed, 0xB000 + rank));
            let mut r = script().open(CRASH_FILE);
            for i in 0..blocks {
                r = r.read(0, base + order.apply(i) * REQ_16K, REQ_16K);
            }
            reads.push(Box::new(r.close(0).build()));
        }
        (writes, reads)
    }

    /// Runs the prepared repetition: untraced when `probe` is `None`, else
    /// through the wrappers, with root spans around each timed call. With a
    /// clock, each timed call is bracketed by the host-speed kernel.
    pub fn execute(
        &self,
        prepared: Prepared,
        probe: Option<&Probe>,
        clock: Option<&mut HostClock>,
    ) -> RepOutcome {
        match probe {
            None => self.execute_with::<S4dCache>(prepared, None, clock),
            Some(p) => self.execute_with::<TracedMiddleware<S4dCache>>(prepared, Some(p), clock),
        }
    }

    fn execute_with<M: Wrap>(
        &self,
        prepared: Prepared,
        probe: Option<&Probe>,
        mut clock: Option<&mut HostClock>,
    ) -> RepOutcome {
        let Prepared {
            mut cluster,
            mw,
            phases,
            expected,
        } = prepared;
        let mut out = RepOutcome::default();
        let mut mw = Some(mw);
        let verify = Rc::new(RefCell::new(Verify {
            seed: self.seed,
            reads: 0,
            mismatches: 0,
        }));
        for (i, (scripts, (exp_w, exp_r))) in phases.into_iter().zip(expected).enumerate() {
            let mut inner = match mw.take() {
                Some(m) => m,
                None => {
                    // Restart: the first phase's middleware was dropped
                    // without a clean sync; rebuild it from the cluster.
                    let ((m, report), secs) = timed(probe, Layer::Recover, || {
                        S4dCache::recover_from_cluster(
                            self.crash_config(),
                            self.params(),
                            &mut cluster,
                        )
                    });
                    out.add_wall(secs, clock.as_deref_mut());
                    out.records_replayed += report.records_replayed();
                    out.failures += u64::from(report.dirty_bytes_lost > 0);
                    out.fingerprint.extend([
                        report.records_replayed(),
                        report.dropped_extents,
                        report.dirty_bytes_lost,
                        report.orphan_bytes_discarded,
                    ]);
                    m
                }
            };
            let seed = self.cluster_seed() ^ i as u64;
            let mut runner = Runner::new(cluster, M::wrap(inner, probe), scripts, seed);
            if let Some(p) = probe {
                runner.add_observer(Box::new(DispatchCounter(p.clone())));
            }
            if self.workload == Workload::CrashRestart {
                runner.add_observer(Box::new(VerifyObserver(verify.clone())));
            }
            let (report, secs) = timed(probe, Layer::RunnerRun, || runner.run());
            out.add_wall(secs, clock.as_deref_mut());
            out.record_run(&report, exp_w, exp_r);
            if self.workload == Workload::CampaignMix && i == 0 {
                // The paper's protocol: let the Rebuilder settle before
                // the second-run read.
                let (end, secs) = timed(probe, Layer::RunnerDrain, || {
                    runner.drain_background(report.end_time)
                });
                out.add_wall(secs, clock.as_deref_mut());
                out.sim_ns += end.as_nanos() - report.end_time.as_nanos();
                out.fingerprint.push(end.as_nanos());
            }
            if i == 0 {
                out.write_mibs = report.writes.throughput_mibs();
            }
            if exp_r > 0 {
                out.read_mibs = report.reads.throughput_mibs();
            }
            let (c, m, _) = runner.into_parts();
            cluster = c;
            inner = m.unwrap();
            out.add_metrics(&inner);
            if self.workload != Workload::CrashRestart {
                mw = Some(inner);
            }
        }
        if self.workload == Workload::CrashRestart {
            // A read that did not arrive or did not match fails.
            let v = verify.borrow();
            let expected_reads = self.data_bytes() / REQ_16K;
            out.failures += v.mismatches + expected_reads.saturating_sub(v.reads);
        }
        out.record_servers(&cluster);
        out.fingerprint
            .extend([out.write_mibs.to_bits(), out.read_mibs.to_bits()]);
        out
    }
}

const CRASH_FILE: &str = "crash_restart.dat";

/// A prepared repetition: the set-up's product, consumed by `execute`.
pub struct Prepared {
    cluster: Cluster,
    mw: S4dCache,
    phases: Vec<Scripts>,
    /// Expected (writes, reads) completed per phase.
    expected: Vec<(u64, u64)>,
}

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Application requests scripted.
    pub attempted: u64,
    /// Requests not completed or failed, reads that did not match, lost
    /// dirty data.
    pub failures: u64,
    /// Application requests completed.
    pub completed: u64,
    /// Wall time of the timed calls.
    pub wall_s: f64,
    /// The same, each call scaled to the reference host speed (equal to
    /// `wall_s` without a clock).
    pub scaled_wall_s: f64,
    /// The simulated outcome; must repeat exactly.
    pub fingerprint: Vec<u64>,
    pub write_mibs: f64,
    pub read_mibs: f64,
    pub events: u64,
    /// Simulated time covered by all phases, ns.
    pub sim_ns: u64,
    pub d_ops: u64,
    pub c_ops: u64,
    pub evaluated: u64,
    pub critical: u64,
    pub read_hits: u64,
    pub read_lookups: u64,
    pub journal_writes: u64,
    pub journal_records: u64,
    pub records_replayed: u64,
    pub hdd_busy_ns: u64,
    pub ssd_busy_ns: u64,
    pub max_queue_depth: u64,
}

impl RepOutcome {
    fn add_wall(&mut self, secs: f64, clock: Option<&mut HostClock>) {
        self.wall_s += secs;
        self.scaled_wall_s += secs * clock.map_or(1.0, HostClock::factor);
    }

    fn record_run(&mut self, r: &RunReport, exp_w: u64, exp_r: u64) {
        let w = r.app_ops(IoKind::Write);
        let rd = r.app_ops(IoKind::Read);
        self.attempted += exp_w + exp_r;
        self.completed += w + rd;
        self.failures += exp_w.abs_diff(w) + exp_r.abs_diff(rd);
        self.failures += r.degraded.io_errors + r.degraded.replans;
        self.events += r.events;
        self.sim_ns += r.end_time.as_nanos();
        self.d_ops += r.tiers.d_ops;
        self.c_ops += r.tiers.c_ops;
        self.fingerprint.extend([
            r.end_time.as_nanos(),
            r.events,
            r.tiers.d_ops,
            r.tiers.d_bytes,
            r.tiers.c_ops,
            r.tiers.c_bytes,
            r.background_bytes,
            r.overhead_bytes,
        ]);
    }

    /// Adds one middleware instance's counters (a recovered instance
    /// starts its own from zero).
    fn add_metrics(&mut self, mw: &S4dCache) {
        let m = mw.metrics();
        self.evaluated += m.evaluated;
        self.critical += m.critical;
        self.read_hits += m.read_full_hits + m.read_partial_hits;
        self.read_lookups += m.read_full_hits + m.read_partial_hits + m.read_misses;
        self.journal_writes += m.journal_writes;
        self.journal_records += m.journal_records_written;
    }

    fn record_servers(&mut self, cluster: &Cluster) {
        for (pfs, busy) in [
            (cluster.opfs(), &mut self.hdd_busy_ns),
            (cluster.cpfs(), &mut self.ssd_busy_ns),
        ] {
            for i in 0..pfs.server_count() {
                let s = pfs.server(i).expect("index below server_count").stats();
                *busy += s.busy.as_nanos();
                self.max_queue_depth = self.max_queue_depth.max(s.max_depth as u64);
            }
        }
        self.fingerprint
            .extend([self.hdd_busy_ns, self.ssd_busy_ns, self.max_queue_depth]);
    }
}

/// Converts between the bare middleware and the one a repetition runs.
trait Wrap: Middleware + Sized {
    fn wrap(inner: S4dCache, probe: Option<&Probe>) -> Self;
    fn unwrap(self) -> S4dCache;
}

impl Wrap for S4dCache {
    fn wrap(inner: S4dCache, _probe: Option<&Probe>) -> Self {
        inner
    }
    fn unwrap(self) -> S4dCache {
        self
    }
}

impl Wrap for TracedMiddleware<S4dCache> {
    fn wrap(inner: S4dCache, probe: Option<&Probe>) -> Self {
        TracedMiddleware::new(inner, probe.expect("traced runs carry a probe").clone())
    }
    fn unwrap(self) -> S4dCache {
        self.inner
    }
}

/// Times `f`, inside a root span when tracing.
fn timed<T>(probe: Option<&Probe>, layer: Layer, f: impl FnOnce() -> T) -> (T, f64) {
    match probe {
        Some(p) => p.root(layer, f),
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64())
        }
    }
}

struct Verify {
    seed: u64,
    reads: u64,
    mismatches: u64,
}

/// Checks every byte a `crash_restart` read returns against the payload
/// its write carried.
struct VerifyObserver(Rc<RefCell<Verify>>);

impl IoObserver for VerifyObserver {
    fn on_read_data(&mut self, _rank: Rank, offset: u64, len: u64, data: Option<&[u8]>) {
        let mut v = self.0.borrow_mut();
        v.reads += 1;
        let ok = data.is_some_and(|d| d == payload(v.seed, offset, len).as_slice());
        v.mismatches += u64::from(!ok);
    }
}

fn boxed<S: ProcessScript + 'static>(scripts: Vec<S>) -> Scripts {
    scripts
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn ProcessScript>)
        .collect()
}

/// Expected (writes, reads) of an IOR campaign.
fn ior_ops(cfg: &CampaignConfig) -> (u64, u64) {
    let per_phase: u64 = cfg
        .instances()
        .iter()
        .map(|i| i.requests_per_process() * u64::from(i.processes))
        .sum();
    (
        if cfg.do_write { per_phase } else { 0 },
        if cfg.do_read { per_phase } else { 0 },
    )
}

/// splitmix64 of `a` keyed by `b`.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bytes a `crash_restart` write puts at `offset`.
fn payload(seed: u64, offset: u64, len: u64) -> Vec<u8> {
    let mut state = mix(seed, offset);
    let mut out = Vec::with_capacity(len as usize);
    while (out.len() as u64) < len {
        state = mix(state, 1);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len as usize);
    out
}
