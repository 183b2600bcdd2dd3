//! Outside-in instrumentation: wrappers around the public seams of the
//! simulator that time every call into `core` and `storage`, count
//! `mpiio` dispatches, and keep spans in memory.
//!
//! Nothing here changes what the wrapped code computes. Every
//! `Middleware` method is forwarded (the trait's defaults would silently
//! change behaviour if one were missed), and the device wrapper is
//! installed with exactly the seeding of `Cluster::build`. The behaviour
//! gate in `main.rs` checks this on every repetition by comparing traced
//! and untraced simulation fingerprints.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use s4d_mpiio::{
    AppRequest, BackgroundPoll, Cluster, DurabilityCounts, ErrorDirective, HedgeDirective,
    IoObserver, Middleware, MiddlewareError, Plan, Rank, StragglerCtx, SubIoFailure, Tier,
};
use s4d_pfs::{FileId, FileServer, NetworkConfig, Pfs, StripeLayout};
use s4d_sim::{SimDuration, SimRng, SimTime};
use s4d_storage::{presets, DeviceKind, DeviceModel, IoKind, StoreMode};

/// The span names, one per layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Runner::run` (root span).
    RunnerRun,
    /// `Runner::drain_background` (root span).
    RunnerDrain,
    /// `S4dCache::recover_from_cluster` (root span).
    Recover,
    /// `Middleware::plan_io`.
    PlanIo,
    /// `Middleware::on_plan_complete`.
    OnPlanComplete,
    /// `Middleware::poll_background`.
    PollBackground,
    /// The per-sub-request hooks: dispatched, complete, error, abandoned.
    IoHooks,
    /// Every other middleware call (open, close, deadlines, failures).
    Control,
    /// `DeviceModel::service_time` on an HDD.
    Hdd,
    /// `DeviceModel::service_time` on an SSD.
    Ssd,
}

impl Layer {
    /// How many layers there are (`Ssd` is the last variant).
    pub const COUNT: usize = Layer::Ssd as usize + 1;

    /// The span name written to the span export.
    pub fn name(self) -> &'static str {
        match self {
            Layer::RunnerRun => "mpiio.runner.run",
            Layer::RunnerDrain => "mpiio.runner.drain",
            Layer::Recover => "core.recover",
            Layer::PlanIo => "core.plan_io",
            Layer::OnPlanComplete => "core.on_plan_complete",
            Layer::PollBackground => "core.poll_background",
            Layer::IoHooks => "core.io_hooks",
            Layer::Control => "core.control",
            Layer::Hdd => "storage.hdd.service_time",
            Layer::Ssd => "storage.ssd.service_time",
        }
    }

    /// True for the spans the benchmark opens around whole phases.
    pub fn is_root(self) -> bool {
        matches!(self, Layer::RunnerRun | Layer::RunnerDrain | Layer::Recover)
    }
}

/// One timed interval. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which boundary.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing root span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Request id: the application request's ordinal for `plan_io`, the
    /// plan tag for `on_plan_complete`, 0 where the seam carries none.
    pub req: u64,
}

/// One application request as `plan_io` saw it (the cost model's input).
#[derive(Debug, Clone, Copy)]
pub struct ReqRecord {
    pub rank: u32,
    pub file: u64,
    pub offset: u64,
    pub len: u64,
}

/// One planned physical op (the striping layer's input).
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub tier: Tier,
    pub offset: u64,
    pub len: u64,
}

/// One device-level access (the byte store's input).
#[derive(Debug, Clone, Copy)]
pub struct DevRecord {
    pub device: u16,
    pub kind: IoKind,
    pub lba: u64,
    pub len: u64,
}

/// Everything a traced repetition collects.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    open_root: u32,
    next_req: u64,
    pub spans: Vec<Span>,
    pub requests: Vec<ReqRecord>,
    pub ops: Vec<OpRecord>,
    pub device_ops: Vec<DevRecord>,
    pub dispatches: u64,
}

/// The recorder shared by the middleware wrapper, every device wrapper
/// and the observer. `DeviceModel: Send`, so it sits behind a mutex;
/// the simulation is single-threaded and never contends for it.
#[derive(Debug, Clone)]
pub struct Probe(Arc<Mutex<Recorder>>);

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            open_root: u32::MAX,
            next_req: 0,
            spans: Vec::new(),
            requests: Vec::new(),
            ops: Vec::new(),
            device_ops: Vec::new(),
            dispatches: 0,
        }
    }
}

impl Probe {
    pub fn new() -> Self {
        Probe(Arc::new(Mutex::new(Recorder::new())))
    }

    fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.0
            .lock()
            .expect("the recorder is only locked by the single simulation thread")
    }

    /// Nanoseconds since the recorder's epoch.
    fn now(&self) -> u64 {
        self.lock().epoch.elapsed().as_nanos() as u64
    }

    /// Records a child span of the open root span and hands back the
    /// recorder for any capture that goes with it.
    fn child(
        &self,
        layer: Layer,
        start: Instant,
        end: Instant,
        req: u64,
    ) -> MutexGuard<'_, Recorder> {
        let mut r = self.lock();
        let parent = r.open_root;
        let start = start.duration_since(r.epoch).as_nanos() as u64;
        let end = end.duration_since(r.epoch).as_nanos() as u64;
        r.spans.push(Span {
            layer,
            start,
            end,
            parent,
            req,
        });
        r
    }

    /// Runs `f` inside a root span and returns its result and wall time.
    pub fn root<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let idx = {
            let mut r = self.lock();
            r.spans.push(Span {
                layer,
                start,
                end: start,
                parent: u32::MAX,
                req: 0,
            });
            let idx = (r.spans.len() - 1) as u32;
            r.open_root = idx;
            idx
        };
        let out = f();
        let end = self.now();
        let mut r = self.lock();
        r.spans[idx as usize].end = end;
        r.open_root = u32::MAX;
        (out, (end - start) as f64 * 1e-9)
    }

    /// Takes the recorder's contents, leaving it empty.
    pub fn take(&self) -> Recorder {
        std::mem::replace(&mut *self.lock(), Recorder::new())
    }
}

/// Times every call into the wrapped middleware.
pub struct TracedMiddleware<M> {
    pub inner: M,
    probe: Probe,
}

impl<M> TracedMiddleware<M> {
    pub fn new(inner: M, probe: Probe) -> Self {
        TracedMiddleware { inner, probe }
    }
}

impl<M: Middleware> TracedMiddleware<M> {
    fn timed<T>(&mut self, layer: Layer, req: u64, f: impl FnOnce(&mut M) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        drop(self.probe.child(layer, start, end, req));
        out
    }
}

impl<M: Middleware> Middleware for TracedMiddleware<M> {
    fn open(
        &mut self,
        cluster: &mut Cluster,
        rank: Rank,
        name: &str,
    ) -> Result<FileId, MiddlewareError> {
        self.timed(Layer::Control, 0, |m| m.open(cluster, rank, name))
    }

    fn plan_io(&mut self, cluster: &mut Cluster, now: SimTime, req: &AppRequest) -> Plan {
        let id = {
            let mut r = self.probe.lock();
            r.next_req += 1;
            r.next_req
        };
        let start = Instant::now();
        let plan = self.inner.plan_io(cluster, now, req);
        let end = Instant::now();
        let mut r = self.probe.child(Layer::PlanIo, start, end, id);
        r.requests.push(ReqRecord {
            rank: req.rank.0,
            file: req.file.0,
            offset: req.offset,
            len: req.len,
        });
        for op in plan.phases.iter().flatten() {
            r.ops.push(OpRecord {
                tier: op.tier,
                offset: op.offset,
                len: op.len,
            });
        }
        plan
    }

    fn close(
        &mut self,
        cluster: &mut Cluster,
        rank: Rank,
        file: FileId,
    ) -> Result<(), MiddlewareError> {
        self.timed(Layer::Control, 0, |m| m.close(cluster, rank, file))
    }

    fn on_plan_complete(&mut self, cluster: &mut Cluster, now: SimTime, tag: u64) {
        self.timed(Layer::OnPlanComplete, tag, |m| {
            m.on_plan_complete(cluster, now, tag)
        })
    }

    fn on_io_error(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        failure: &SubIoFailure,
    ) -> ErrorDirective {
        self.timed(Layer::IoHooks, 0, |m| m.on_io_error(cluster, now, failure))
    }

    fn on_io_complete(
        &mut self,
        tier: Tier,
        server: usize,
        kind: IoKind,
        len: u64,
        latency: SimDuration,
    ) {
        self.timed(Layer::IoHooks, 0, |m| {
            m.on_io_complete(tier, server, kind, len, latency)
        })
    }

    fn on_io_dispatched(&mut self, tier: Tier, server: usize, kind: IoKind, len: u64) {
        self.timed(Layer::IoHooks, 0, |m| {
            m.on_io_dispatched(tier, server, kind, len)
        })
    }

    fn on_io_abandoned(&mut self, tier: Tier, server: usize, kind: IoKind, len: u64) {
        self.timed(Layer::IoHooks, 0, |m| {
            m.on_io_abandoned(tier, server, kind, len)
        })
    }

    fn on_deadline(
        &mut self,
        cluster: &mut Cluster,
        now: SimTime,
        ctx: &StragglerCtx,
    ) -> HedgeDirective {
        self.timed(Layer::Control, 0, |m| m.on_deadline(cluster, now, ctx))
    }

    fn shed_admissions(&self) -> u64 {
        self.inner.shed_admissions()
    }

    fn on_plan_failed(&mut self, cluster: &mut Cluster, now: SimTime, tag: u64) {
        self.timed(Layer::Control, tag, |m| m.on_plan_failed(cluster, now, tag))
    }

    fn poll_background(&mut self, cluster: &mut Cluster, now: SimTime) -> BackgroundPoll {
        self.timed(Layer::PollBackground, 0, |m| {
            m.poll_background(cluster, now)
        })
    }

    fn durability(&self) -> Option<DurabilityCounts> {
        self.inner.durability()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every `service_time` call of the wrapped device model and
/// records the device-level access stream.
#[derive(Debug)]
pub struct TimedDevice {
    inner: Box<dyn DeviceModel>,
    id: u16,
    layer: Layer,
    probe: Probe,
}

impl DeviceModel for TimedDevice {
    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }

    fn service_time(&mut self, kind: IoKind, lba: u64, len: u64, rng: &mut SimRng) -> SimDuration {
        let start = Instant::now();
        let out = self.inner.service_time(kind, lba, len, rng);
        let end = Instant::now();
        self.probe
            .child(self.layer, start, end, 0)
            .device_ops
            .push(DevRecord {
                device: self.id,
                kind,
                lba,
                len,
            });
        out
    }

    fn transfer_rate(&self, kind: IoKind) -> f64 {
        self.inner.transfer_rate(kind)
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// Counts the data ops the runner dispatches to either tier.
pub struct DispatchCounter(pub Probe);

impl IoObserver for DispatchCounter {
    fn on_dispatch(
        &mut self,
        _now: SimTime,
        _rank: Rank,
        _tier: Tier,
        _kind: IoKind,
        _app_offset: u64,
        _len: u64,
    ) {
        self.0.lock().dispatches += 1;
    }
}

/// The paper testbed's shape: 8 HDD DServers and 4 SSD CServers with
/// 64 KiB stripes over Gigabit Ethernet.
pub const D_SERVERS: usize = 8;
pub const C_SERVERS: usize = 4;
pub const STRIPE: u64 = 64 * 1024;

/// The untraced cluster, built by the library itself.
pub fn plain_cluster(mode: StoreMode, seed: u64) -> Cluster {
    Cluster::build(
        D_SERVERS,
        C_SERVERS,
        STRIPE,
        presets::hdd_seagate_st3250(),
        presets::ssd_ocz_revodrive_x2(),
        NetworkConfig::gigabit_ethernet(),
        mode,
        seed,
    )
}

/// The traced cluster: `Cluster::build` step for step, with every device
/// model wrapped. The seeds (`seed*2+1` for OPFS, `seed*2+2` for CPFS,
/// `rng.fork(i)` per server) match the library's exactly.
pub fn traced_cluster(mode: StoreMode, seed: u64, probe: &Probe) -> Cluster {
    let hdd = presets::hdd_seagate_st3250();
    let ssd = presets::ssd_ocz_revodrive_x2();
    let net = NetworkConfig::gigabit_ethernet();
    let mut rng = SimRng::seed(seed.wrapping_mul(2).wrapping_add(1));
    let d: Vec<FileServer> = (0..D_SERVERS)
        .map(|i| {
            let dev = TimedDevice {
                inner: Box::new(hdd.clone().build()),
                id: i as u16,
                layer: Layer::Hdd,
                probe: probe.clone(),
            };
            FileServer::new(
                i,
                Box::new(dev),
                hdd.capacity(),
                net,
                mode,
                None,
                rng.fork(i as u64),
            )
        })
        .collect();
    let mut rng = SimRng::seed(seed.wrapping_mul(2).wrapping_add(2));
    let c: Vec<FileServer> = (0..C_SERVERS)
        .map(|i| {
            let dev = TimedDevice {
                inner: Box::new(ssd.clone().build()),
                id: (D_SERVERS + i) as u16,
                layer: Layer::Ssd,
                probe: probe.clone(),
            };
            FileServer::new(
                i,
                Box::new(dev),
                ssd.capacity(),
                net,
                mode,
                None,
                rng.fork(i as u64),
            )
        })
        .collect();
    Cluster::new(
        Pfs::new("opfs", StripeLayout::new(STRIPE, D_SERVERS), d),
        Pfs::new("cpfs", StripeLayout::new(STRIPE, C_SERVERS), c),
    )
}
