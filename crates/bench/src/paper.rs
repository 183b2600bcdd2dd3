//! The paper's evaluation (§V), one function per artifact.
//!
//! Each function runs one figure or table and returns the text its bench
//! target prints (`benches/<name>.rs`); [`SECTIONS`] lists them in the
//! order of DESIGN.md's experiment index, and the `reproduce` binary prints
//! them all. This module is the only definition of each experiment.

use crate::table;
use crate::{
    campaign_scripts, run_s4d, run_s4d_second_read, run_stock, run_stock_second_read, testbed,
    Scale, Testbed,
};
use s4d_cache::{S4dCache, S4dConfig, DMT_RECORD_BYTES};
use s4d_mpiio::Runner;
use s4d_sim::SimTime;
use s4d_storage::IoKind;
use s4d_trace::{analysis, TraceCollector};
use s4d_workloads::campaign::CampaignConfig;
use s4d_workloads::{AccessPattern, HpioConfig, IorConfig, TileIoConfig};

/// One paper artifact: runs it at a scale and returns its printed text.
pub type Section = fn(Scale) -> String;

/// Every paper artifact as `(bench target name, section)`, in DESIGN.md's
/// table order.
pub const SECTIONS: &[(&str, Section)] = &[
    ("fig01_motivation", fig01_motivation),
    ("fig06_request_size", fig06_request_size),
    ("tab03_distribution", tab03_distribution),
    ("fig07_process_count", fig07_process_count),
    ("tab04_capacity", tab04_capacity),
    ("fig08_cserver_count", fig08_cserver_count),
    ("fig09_hpio", fig09_hpio),
    ("fig10_tileio", fig10_tileio),
    ("fig11_overhead", fig11_overhead),
    ("tab05_metadata", tab05_metadata),
];

/// Figure 1: the motivating experiment.
///
/// "We ran IOR on a PVFS2 file system built on eight I/O servers... overall
/// file size 16 GB, 16 processes, request size from 4 KB to 32 MB. Each of
/// the n processes reads its own 1/n of the shared file, sequentially or
/// randomly." The paper reports aggregate read bandwidth collapsing under
/// small random requests and converging for requests ≥ 4 MB.
pub fn fig01_motivation(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let file_size = scale.bytes(16 << 30);
    let mut rows = Vec::new();
    for req_kib in [4u64, 16, 64, 256, 1024, 4096] {
        let mk = |pattern| {
            IorConfig {
                file_name: format!("fig1_{req_kib}k_{pattern:?}"),
                file_size,
                processes: 16,
                request_size: req_kib * 1024,
                pattern,
                do_write: true,
                do_read: true,
                seed: 0xF16,
            }
            .scripts()
        };
        let seq = run_stock(&tb, mk(AccessPattern::Sequential), Vec::new());
        let rnd = run_stock(&tb, mk(AccessPattern::Random), Vec::new());
        rows.push(vec![
            format!("{req_kib} KiB"),
            table::mibs(seq.read_mibs()),
            table::mibs(rnd.read_mibs()),
            format!("{:.2}x", seq.read_mibs() / rnd.read_mibs().max(1e-9)),
        ]);
    }
    let mut out = table::render(
        "Fig. 1 — stock PFS read bandwidth, sequential vs random (16 procs, 8 DServers)",
        &["req size", "seq MiB/s", "random MiB/s", "seq/random"],
        &rows,
    );
    out += &format!(
        "paper shape: random ≪ sequential below ~1 MiB, comparable at 4 MiB+ \
         (scale factor {})\n",
        scale.factor()
    );
    out
}

/// Figure 6: IOR throughput with varied request sizes, stock vs S4D-Cache.
///
/// The paper's campaign: 10 IOR instances (6 sequential + 4 random) over
/// shared files, 32 processes, cache capacity = 20 % of the application
/// data. Write improvements of 51.3/49.1/39.2/32.5 % at 8/16/32/64 KiB and
/// parity at 4 MiB; reads improve more (up to 184.1 % at 8 KiB), measured
/// on a program's *second run* (§V.A).
pub fn fig06_request_size(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let mut wrows = Vec::new();
    let mut rrows = Vec::new();
    for req_kib in [8u64, 16, 32, 64, 4096] {
        let (cfg, scripts) = campaign_scripts(32, req_kib * 1024, scale);
        let capacity = cfg.total_data_bytes() / 5;
        let stock = run_stock(&tb, scripts, Vec::new());

        let (_, scripts) = campaign_scripts(32, req_kib * 1024, scale);
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), scripts, Vec::new());

        // Second-run read measurement: first run write+read (learn + cache),
        // then a read-only pass over the same files — for BOTH systems, so
        // the read comparison is pure-read vs pure-read.
        let read_cfg = CampaignConfig {
            do_write: false,
            ..cfg.clone()
        };
        let (_, first) = campaign_scripts(32, req_kib * 1024, scale);
        let stock_read2 = run_stock_second_read(&tb, first, read_cfg.scripts());
        let (_, first) = campaign_scripts(32, req_kib * 1024, scale);
        let s4d_read2 =
            run_s4d_second_read(&tb, S4dConfig::new(capacity), first, read_cfg.scripts());

        wrows.push(vec![
            format!("{req_kib} KiB"),
            table::mibs(stock.write_mibs()),
            table::mibs(s4d.write_mibs()),
            table::speedup_pct(stock.write_mibs(), s4d.write_mibs()),
        ]);
        rrows.push(vec![
            format!("{req_kib} KiB"),
            table::mibs(stock_read2.read_mibs()),
            table::mibs(s4d_read2.read_mibs()),
            table::speedup_pct(stock_read2.read_mibs(), s4d_read2.read_mibs()),
        ]);
    }
    let mut out = table::render(
        "Fig. 6(a) — IOR write throughput vs request size (campaign, 32 procs)",
        &["req size", "stock MiB/s", "s4d MiB/s", "improvement"],
        &wrows,
    );
    out += &table::render(
        "Fig. 6(b) — IOR read throughput vs request size (second run)",
        &["req size", "stock MiB/s", "s4d MiB/s", "improvement"],
        &rrows,
    );
    out += &format!(
        "paper shape: writes +51/49/39/33 % at 8-64 KiB, ~0 % at 4 MiB; reads larger \
         (scale factor {})\n",
        scale.factor()
    );
    out
}

/// Table III: request distribution between DServers and CServers.
///
/// The paper traces the campaign with IOSIG and reports, for a five-second
/// window of the execution, where write requests were dispatched:
/// 16 KiB → 16.3 % DServers / 83.7 % CServers; 4096 KiB → 100 % / 0 %.
pub fn tab03_distribution(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let mut rows = Vec::new();
    for req_kib in [16u64, 4096] {
        let (cfg, scripts) = campaign_scripts(32, req_kib * 1024, scale);
        let capacity = cfg.total_data_bytes() / 5;
        let (collector, handle) = TraceCollector::new();
        let out = run_s4d(
            &tb,
            S4dConfig::new(capacity),
            scripts,
            vec![Box::new(collector)],
        );
        let records = handle.snapshot();
        // The paper samples a five-second window from the 50th second; at
        // scaled sizes we sample an equivalent slice: 10 % of the run
        // starting at its midpoint.
        let end = out.report.end_time.as_nanos();
        let from = SimTime::from_nanos(end / 2);
        let to = SimTime::from_nanos(end / 2 + end / 10);
        let dist = analysis::tier_distribution(&records, Some((from, to)), Some(IoKind::Write));
        rows.push(vec![
            format!("{req_kib} KiB"),
            format!("{:.1}", dist.d_percent()),
            format!("{:.1}", dist.c_percent()),
        ]);
    }
    let mut out = table::render(
        "Table III — write-request distribution (mid-run window)",
        &["req size", "DServers (%)", "CServers (%)"],
        &rows,
    );
    out += &format!(
        "paper: 16 KiB -> 16.3 / 83.7; 4096 KiB -> 100.0 / 0.0 (scale factor {})\n",
        scale.factor()
    );
    out
}

/// Figure 7: IOR throughput with varied numbers of processes.
///
/// The paper runs the campaign at 16/32/64/128 processes (16 KiB requests,
/// disjoint per-process regions) and reports write improvements of
/// 35.4–49.5 % with a similar trend for reads; absolute bandwidth drops as
/// processes contend.
pub fn fig07_process_count(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let mut rows = Vec::new();
    for procs in [16u32, 32, 64, 128] {
        // Weak scaling: each process keeps the paper's 64 MiB share of the
        // shared file, so the per-process access pattern (and the cost
        // model's view of it) is constant across the sweep.
        let file_size = procs as u64 * scale.bytes(64 << 20);
        let mk = || {
            let cfg = CampaignConfig::paper_mix(procs, file_size, 16 * 1024);
            (cfg.total_data_bytes(), cfg.scripts())
        };
        let (total, scripts) = mk();
        let capacity = total / 5;
        let stock = run_stock(&tb, scripts, Vec::new());
        let (_, scripts) = mk();
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), scripts, Vec::new());
        rows.push(vec![
            procs.to_string(),
            table::mibs(stock.write_mibs()),
            table::mibs(s4d.write_mibs()),
            table::speedup_pct(stock.write_mibs(), s4d.write_mibs()),
            table::mibs(stock.read_mibs()),
            table::mibs(s4d.read_mibs()),
            table::speedup_pct(stock.read_mibs(), s4d.read_mibs()),
        ]);
    }
    let mut out = table::render(
        "Fig. 7 — IOR throughput vs process count (16 KiB requests)",
        &[
            "procs", "stock W", "s4d W", "W gain", "stock R", "s4d R", "R gain",
        ],
        &rows,
    );
    out += &format!(
        "paper shape: +35-50 % across 16-128 processes; absolute MiB/s falls as \
         contention rises (scale factor {})\n",
        scale.factor()
    );
    out
}

/// Table IV: write throughput with varied SSD cache capacities.
///
/// The paper varies the cache from 0 GB (S4D disabled) to 6 GB against a
/// 20 GB campaign (10 × 2 GB): 58.03 → 69.34 → 86.15 → 90.89 MB/s
/// (+0/19.5/48.4/56.6 %), with diminishing returns once most random
/// requests fit.
pub fn tab04_capacity(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let (cfg, scripts) = campaign_scripts(32, 16 * 1024, scale);
    let total = cfg.total_data_bytes();
    let stock = run_stock(&tb, scripts, Vec::new());
    let base = stock.write_mibs();
    let mut rows = vec![vec![
        "0 (stock)".to_string(),
        table::mibs(base),
        "+0.0%".to_string(),
    ]];
    // The paper's 2/4/6 GB against 20 GB of data = 10/20/30 % of data size.
    for (label, gb_equivalent) in [("2 GB eq", 2u64), ("4 GB eq", 4), ("6 GB eq", 6)] {
        let capacity = total * gb_equivalent / 20;
        let (_, scripts) = campaign_scripts(32, 16 * 1024, scale);
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), scripts, Vec::new());
        rows.push(vec![
            label.to_string(),
            table::mibs(s4d.write_mibs()),
            table::speedup_pct(base, s4d.write_mibs()),
        ]);
    }
    let mut out = table::render(
        "Table IV — IOR write throughput vs SSD cache capacity",
        &["capacity", "throughput MiB/s", "speedup"],
        &rows,
    );
    out += &format!(
        "paper: 58.03 / 69.34 / 86.15 / 90.89 MB/s (+0/19.5/48.4/56.6 %), gains \
         flattening past 4 GB (scale factor {})\n",
        scale.factor()
    );
    out
}

/// Figure 8: IOR throughput with varied numbers of CServers.
///
/// The paper varies the SSD file-server count from 0 (stock) to 6 while
/// keeping the same cache space and access patterns: write bandwidth
/// improves 20.7–60.1 % and plateaus above four CServers, because only the
/// random fraction of the workload can benefit.
pub fn fig08_cserver_count(scale: Scale) -> String {
    let (cfg, _) = campaign_scripts(32, 16 * 1024, scale);
    let capacity = cfg.total_data_bytes() / 5;
    let mut rows = Vec::new();
    let stock_tb = Testbed {
        seed: 0x54D,
        ..Testbed::default()
    };
    let (_, scripts) = campaign_scripts(32, 16 * 1024, scale);
    let stock = run_stock(&stock_tb, scripts, Vec::new());
    let base_w = stock.write_mibs();
    let base_r = stock.read_mibs();
    rows.push(vec![
        "0 (stock)".into(),
        table::mibs(base_w),
        "+0.0%".into(),
        table::mibs(base_r),
        "+0.0%".into(),
    ]);
    for c_servers in 1..=6usize {
        let tb = Testbed {
            c_servers,
            seed: 0x54D,
            ..Testbed::default()
        };
        let (_, scripts) = campaign_scripts(32, 16 * 1024, scale);
        let s4d = run_s4d(&tb, S4dConfig::new(capacity), scripts, Vec::new());
        rows.push(vec![
            c_servers.to_string(),
            table::mibs(s4d.write_mibs()),
            table::speedup_pct(base_w, s4d.write_mibs()),
            table::mibs(s4d.read_mibs()),
            table::speedup_pct(base_r, s4d.read_mibs()),
        ]);
    }
    let mut out = table::render(
        "Fig. 8 — IOR throughput vs number of CServers (fixed cache space)",
        &["CServers", "write MiB/s", "W gain", "read MiB/s", "R gain"],
        &rows,
    );
    out += &format!(
        "paper shape: +20.7-60.1 % writes, improvement plateaus above 4 CServers \
         (scale factor {})\n",
        scale.factor()
    );
    out
}

/// Figure 9: HPIO throughput with varied region spacings.
///
/// HPIO (16 processes, 4096 regions of 8 KiB) with region spacing swept
/// from 0 (contiguous) to 4 KiB: the paper reports S4D-Cache improving
/// throughput by 18/28/30/33 % — more spacing means poorer locality on the
/// DServers and more benefit from the cache.
pub fn fig09_hpio(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let mut wrows = Vec::new();
    let mut rrows = Vec::new();
    for spacing in [0u64, 1024, 2048, 4096] {
        let mut cfg = HpioConfig::paper_default(format!("hpio_{spacing}"), spacing);
        cfg.region_count = scale.bytes(4096 * 1024) / 1024; // scale op count
        let data = cfg.processes as u64 * cfg.process_bytes();
        let stock = run_stock(&tb, cfg.scripts(), Vec::new());
        let s4d = run_s4d(&tb, S4dConfig::new(data / 5), cfg.scripts(), Vec::new());
        wrows.push(vec![
            format!("{} KiB", spacing / 1024),
            table::mibs(stock.write_mibs()),
            table::mibs(s4d.write_mibs()),
            table::speedup_pct(stock.write_mibs(), s4d.write_mibs()),
        ]);
        rrows.push(vec![
            format!("{} KiB", spacing / 1024),
            table::mibs(stock.read_mibs()),
            table::mibs(s4d.read_mibs()),
            table::speedup_pct(stock.read_mibs(), s4d.read_mibs()),
        ]);
    }
    let mut out = table::render(
        "Fig. 9(a) — HPIO write throughput vs region spacing (16 procs, 8 KiB regions)",
        &["spacing", "stock MiB/s", "s4d MiB/s", "improvement"],
        &wrows,
    );
    out += &table::render(
        "Fig. 9(b) — HPIO read throughput vs region spacing",
        &["spacing", "stock MiB/s", "s4d MiB/s", "improvement"],
        &rrows,
    );
    out += &format!(
        "paper shape: +18/28/30/33 % as spacing grows 0 -> 4 KiB (scale factor {})\n",
        scale.factor()
    );
    out
}

/// Figure 10: MPI-Tile-IO throughput with varied numbers of processes.
///
/// The paper runs MPI-Tile-IO with 10×10-element tiles of 32 KiB elements
/// and 100–400 processes: aggregate bandwidth improves 21–33 % for writes
/// and 18–31 % for reads — the nested-strided pattern has better locality
/// than random IOR, so the gain is smaller but still significant.
pub fn fig10_tileio(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let mut rows = Vec::new();
    for procs in [100u32, 200, 300, 400] {
        let mut cfg = TileIoConfig::paper_default(format!("tile_{procs}"), procs);
        // Scale element size down, keeping tile geometry.
        cfg.element_size = scale.bytes(32 * 1024).max(4096);
        let data = cfg.dataset_bytes();
        let stock = run_stock(&tb, cfg.scripts(), Vec::new());
        let s4d = run_s4d(&tb, S4dConfig::new(data / 5), cfg.scripts(), Vec::new());
        rows.push(vec![
            procs.to_string(),
            table::mibs(stock.write_mibs()),
            table::mibs(s4d.write_mibs()),
            table::speedup_pct(stock.write_mibs(), s4d.write_mibs()),
            table::mibs(stock.read_mibs()),
            table::mibs(s4d.read_mibs()),
            table::speedup_pct(stock.read_mibs(), s4d.read_mibs()),
        ]);
    }
    let mut out = table::render(
        "Fig. 10 — MPI-Tile-IO throughput vs process count (10x10 tiles)",
        &[
            "procs", "stock W", "s4d W", "W gain", "stock R", "s4d R", "R gain",
        ],
        &rows,
    );
    out += &format!(
        "paper shape: writes +21-33 %, reads +18-31 % across 100-400 processes \
         (scale factor {})\n",
        scale.factor()
    );
    out
}

/// Figure 11: runtime overhead when S4D-Cache cannot help.
///
/// The paper writes a shared 10 GB file randomly with 32 processes where
/// every request intentionally misses the CServers, so the Redirector
/// redirects everything to DServers — measuring the pure bookkeeping
/// overhead (cost evaluation, CDT/DMT lookups). The overhead is
/// "almost unobservable".
pub fn fig11_overhead(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let mut rows = Vec::new();
    for req_kib in [8u64, 16, 32] {
        let mk = || {
            IorConfig {
                file_name: format!("fig11_{req_kib}"),
                file_size: scale.bytes(10 << 30),
                processes: 32,
                request_size: req_kib * 1024,
                pattern: AccessPattern::Random,
                do_write: true,
                do_read: false,
                seed: 0xF11,
            }
            .scripts()
        };
        let stock = run_stock(&tb, mk(), Vec::new());
        // force_miss: all the decision work, none of the redirection.
        let s4d = run_s4d(
            &tb,
            S4dConfig::new(1 << 30).with_force_miss(true),
            mk(),
            Vec::new(),
        );
        rows.push(vec![
            format!("{req_kib} KiB"),
            table::mibs(stock.write_mibs()),
            table::mibs(s4d.write_mibs()),
            table::speedup_pct(stock.write_mibs(), s4d.write_mibs()),
        ]);
    }
    let mut out = table::render(
        "Fig. 11 — all-miss overhead probe (random writes, no redirection)",
        &["req size", "stock MiB/s", "s4d(force-miss) MiB/s", "delta"],
        &rows,
    );
    out += &format!(
        "paper shape: deltas within noise — the middleware's overhead is negligible \
         (scale factor {})\n",
        scale.factor()
    );
    out
}

/// §V.E.1: DMT metadata space overhead.
///
/// The paper bounds the mapping table's storage cost: with every request at
/// the worst-case 4 KB and 24-byte records, the metadata consumes 0.6 % of
/// the cache space. This section verifies the same bound analytically and
/// empirically against a live DMT, read through the metadata plane so the
/// figures hold at any shard count.
pub fn tab05_metadata(scale: Scale) -> String {
    let tb = testbed(0x54D);
    let mut rows = Vec::new();

    // Analytic worst case, as in the paper: S bytes of cache filled by
    // 4 KiB extents -> S/4096 records of 24 bytes.
    for (label, cache_gib) in [("100 GB x4", 400u64), ("1 GB", 1)] {
        let cache = cache_gib << 30;
        let entries = cache / 4096;
        let meta = entries * DMT_RECORD_BYTES;
        rows.push(vec![
            format!("analytic {label}"),
            entries.to_string(),
            format!("{:.1} MiB", meta as f64 / (1 << 20) as f64),
            format!("{:.2}%", meta as f64 * 100.0 / cache as f64),
        ]);
    }

    // Empirical: a random 4 KiB workload against a small cache.
    let cfg = IorConfig {
        file_name: "tab05".into(),
        file_size: scale.bytes(1 << 30),
        processes: 16,
        request_size: 4096,
        pattern: AccessPattern::Random,
        do_write: true,
        do_read: false,
        seed: 0x7AB,
    };
    let capacity = cfg.file_size / 5;
    let middleware = S4dCache::new(S4dConfig::new(capacity), tb.cost_params());
    let mut runner = Runner::new(tb.cluster(), middleware, cfg.scripts(), 0x7AB);
    runner.run();
    let (_cluster, mw, _report) = runner.into_parts();
    let entries = mw.plane().entry_count() as u64;
    let table_bytes = entries * DMT_RECORD_BYTES;
    rows.push(vec![
        "measured (4 KiB random)".into(),
        entries.to_string(),
        format!("{:.2} MiB", table_bytes as f64 / (1 << 20) as f64),
        format!(
            "{:.2}%",
            table_bytes as f64 * 100.0 / mw.plane().mapped_bytes().max(1) as f64
        ),
    ]);

    let mut out = table::render(
        "§V.E.1 — DMT metadata space overhead (24-byte records)",
        &["case", "records/writes", "metadata", "of cache space"],
        &rows,
    );
    out += &format!(
        "paper: worst-case overhead 0.6 %, 'negligible' (scale factor {})\n",
        scale.factor()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn section(name: &str) -> Section {
        SECTIONS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| *f)
            .unwrap_or_else(|| panic!("{name} is not in SECTIONS"))
    }

    #[test]
    fn every_section_has_a_bench_target() {
        let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml")).unwrap();
        let benches: Vec<&str> = manifest
            .split("[[bench]]")
            .skip(1)
            .filter_map(|entry| entry.split("name = \"").nth(1)?.split('"').next())
            .collect();
        for (name, _) in SECTIONS {
            assert!(
                benches.contains(name),
                "{name} has no [[bench]] in Cargo.toml"
            );
            assert!(
                crate_dir.join(format!("benches/{name}.rs")).is_file(),
                "benches/{name}.rs is missing"
            );
        }
    }

    #[test]
    fn every_figure_and_table_bench_is_a_section() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let file = entry.unwrap().file_name().into_string().unwrap();
            let Some(stem) = file.strip_suffix(".rs") else {
                continue;
            };
            if stem.starts_with("fig") || stem.starts_with("tab") {
                assert!(
                    SECTIONS.iter().any(|(n, _)| *n == stem),
                    "benches/{file} is not in SECTIONS"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, SECTIONS.len());
    }

    #[test]
    fn cheap_sections_render_title_and_scale() {
        let scale = Scale::with_factor(1024);
        for name in ["tab05_metadata", "fig09_hpio"] {
            let text = section(name)(scale);
            let title = text.lines().next().unwrap();
            assert!(
                title.starts_with("== ") && title.ends_with(" =="),
                "{name}: {title}"
            );
            assert!(text.ends_with("(scale factor 1024)\n"), "{name}: {text}");
        }
    }
}
