//! Host-speed reference: fixed kernels timed between timed calls.
//!
//! The benchmark runs on a shared host whose speed drifts by up to 2× over
//! minutes, so a raw wall time says as much about the neighbours as about
//! the program. Each timed stretch (a batch of set-ups, or one timed call
//! of a repetition) is therefore scaled to a reference host speed: its
//! wall time is multiplied by the kernel's reference time over the mean
//! time the kernel took just before and just after it. The kernels use
//! none of the repository's code, so a change to the program cannot move
//! them; a slower program still reads slower.
//!
//! Which neighbour slows the host decides which code slows down, so the
//! kernel follows the workload's store mode:
//!
//! - Timing mode (`campaign_mix`, `seq_stream`) keeps extents only and is
//!   bound by the core. Its kernel is many short rounds of varied
//!   standard-library work (float formatting and parsing, string hashing,
//!   B-tree, deque and sort calls, each round with fresh collections),
//!   whose large code footprint and allocation churn slow down with the
//!   host about as much as the simulator does; a tight discrete-event loop
//!   slowed down less.
//! - Functional mode (`crash_restart`) moves real bytes and is bound by
//!   memory traffic, which the core kernel does not track (scaling by it
//!   tripled the spread of `crash_restart`'s repetitions). Its kernel
//!   copies 16 KiB blocks between random places of a buffer larger than
//!   the last-level cache. Its set-up, which fills fresh payload buffers,
//!   is left unscaled: neither kernel tracked it (over ten runs its spread
//!   was 8 % raw and 19 % scaled by the core kernel; over five, 39 % by
//!   the memory kernel).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

use s4d_storage::StoreMode;

/// Core-kernel time, in seconds, on a quiet 2-vCPU KVM guest ("Intel(R)
/// Xeon(R) Processor"): the host speed that timing-mode figures are
/// expressed at.
const CORE_REFERENCE_S: f64 = 0.020;
const ROUNDS: u64 = 6000;
const STEPS: u64 = 6;

/// Memory-kernel time on the same quiet host.
const MEMORY_REFERENCE_S: f64 = 0.016;
const MEMORY_BYTES: usize = 96 << 20;
const BLOCK: usize = 16 << 10;
const COPIES: u32 = 6000;

/// One round: a few steps of mixed work on collections made for it.
fn round(seed: u64) -> u64 {
    let mut names: HashMap<String, u64> = HashMap::new();
    let mut tree: BTreeMap<u64, String> = BTreeMap::new();
    let mut window: VecDeque<(u64, f64)> = VecDeque::new();
    let mut x = seed | 1;
    let mut sum = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let f = (x % 100_000) as f64 / 7.0;
        let line = format!("{f:.3} {} {:?}", x % 977, (i, x & 7));
        let back: f64 = line
            .split_whitespace()
            .next()
            .and_then(|w| w.parse().ok())
            .unwrap_or(0.0);
        sum = sum.wrapping_add(back as u64);
        *names
            .entry(line[..line.len().min(6)].to_string())
            .or_insert(0) += 1;
        tree.insert(x % 5000, line);
        if let Some((_, v)) = tree.range(x % 5000..).next() {
            sum = sum.wrapping_add(v.len() as u64);
        }
        window.push_back((x, f));
    }
    let mut sorted: Vec<(u64, f64)> = window.into_iter().collect();
    sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
    sum.wrapping_add(sorted[0].0)
        .wrapping_add(names.len() as u64)
}

/// One run of the core kernel; the checksum keeps it from being
/// optimised away.
fn core_kernel() -> u64 {
    (0..ROUNDS).fold(0u64, |acc, r| {
        acc.wrapping_add(round(r.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    })
}

/// One run of the memory kernel over `buf`.
fn memory_kernel(buf: &mut [u8]) -> u8 {
    let span = buf.len() - BLOCK;
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..COPIES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let src = (x as usize % span) & !63;
        let dst = ((x >> 32) as usize % span) & !63;
        buf.copy_within(src..src + BLOCK, dst);
    }
    buf[span / 2]
}

/// A reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Core,
    Memory,
}

impl Kernel {
    /// The kernel that tracks the repetitions of a workload in `mode`.
    pub fn for_mode(mode: StoreMode) -> Kernel {
        match mode {
            StoreMode::Timing => Kernel::Core,
            StoreMode::Functional => Kernel::Memory,
        }
    }

    /// The kernel that tracks the set-up of a workload in `mode`, if any.
    pub fn for_setup(mode: StoreMode) -> Option<Kernel> {
        match mode {
            StoreMode::Timing => Some(Kernel::Core),
            StoreMode::Functional => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Core => "core",
            Kernel::Memory => "memory",
        }
    }

    fn reference_s(self) -> f64 {
        match self {
            Kernel::Core => CORE_REFERENCE_S,
            Kernel::Memory => MEMORY_REFERENCE_S,
        }
    }
}

/// The child's side of `HostClock`: `perfbench --host-kernel`. For each
/// kernel name read from standard input, runs that kernel once and writes
/// its time in seconds; ends at the end of input.
pub fn serve() -> ExitCode {
    let mut buf = Vec::new();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else {
            return ExitCode::FAILURE;
        };
        let t = Instant::now();
        match line.trim() {
            "core" => {
                black_box(core_kernel());
            }
            "memory" => {
                if buf.is_empty() {
                    buf = vec![1u8; MEMORY_BYTES];
                }
                black_box(memory_kernel(&mut buf));
            }
            other => {
                eprintln!("perfbench --host-kernel: unknown kernel {other}");
                return ExitCode::FAILURE;
            }
        }
        let secs = t.elapsed().as_secs_f64();
        if writeln!(out, "{secs:?}")
            .and_then(|()| out.flush())
            .is_err()
        {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Brackets timed work with kernel runs. The kernels run in a child
/// process, only while this one waits, so that their memory counts
/// neither in this process's peak nor in its heap's layout.
pub struct HostClock {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
    kernel: Kernel,
    last: f64,
}

impl HostClock {
    /// Starts the child and opens a bracket with `kernel`. Panics when
    /// the child cannot be started, as every later call does when it
    /// fails: a run without its reference has no result.
    pub fn start(kernel: Kernel) -> HostClock {
        HostClock::spawn(kernel).unwrap_or_else(|e| panic!("host-speed kernel: {e}"))
    }

    fn spawn(kernel: Kernel) -> std::io::Result<HostClock> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--host-kernel")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let to = child.stdin.take();
        let from = child.stdout.take().map(BufReader::new);
        let mut clock = HostClock {
            child,
            to,
            from: from.ok_or_else(|| std::io::Error::other("no pipe from the child"))?,
            kernel,
            last: 0.0,
        };
        clock.last = clock.kernel_seconds();
        Ok(clock)
    }

    fn kernel_seconds(&mut self) -> f64 {
        self.ask()
            .unwrap_or_else(|e| panic!("host-speed kernel: {e}"))
    }

    fn ask(&mut self) -> std::io::Result<f64> {
        let to = self
            .to
            .as_mut()
            .ok_or_else(|| std::io::Error::other("the child's input is closed"))?;
        writeln!(to, "{}", self.kernel.name())?;
        to.flush()?;
        let mut line = String::new();
        self.from.read_line(&mut line)?;
        line.trim()
            .parse()
            .map_err(|e| std::io::Error::other(format!("kernel time {line:?}: {e}")))
    }

    /// Closes the bracket around the work timed since the previous call
    /// (and opens the next one): the factor that scales that work's wall
    /// time to the reference speed.
    pub fn factor(&mut self) -> f64 {
        let now = self.kernel_seconds();
        let f = 2.0 * self.kernel.reference_s() / (self.last + now);
        self.last = now;
        f
    }
}

impl Drop for HostClock {
    /// Closes the child's input, which ends it, and waits for it.
    fn drop(&mut self) {
        self.to = None;
        let _ = self.child.wait();
    }
}
