//! One benchmark command for the OutRAN simulator.
//!
//! ```console
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-lte --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics: for
//! `--seconds` (at least `MIN_ITERS` times) it times one set-up and then
//! one execution of the workload, and reports the medians. With
//! `--trace 1` it runs the workload once plain and once traced,
//! repeating the pair for `--seconds`, times the isolated layer kernels,
//! and reports the per-layer metrics. Every execution is checked (see
//! `checks`); a failed check marks the run incorrect and the command
//! exits 1.
//!
//! Stdout carries, in order: a JSON header (schema, git revision, build
//! profile, cores, the workload's threads and seeds), one table line per
//! metric with its unit, the report digest with the simulated FCT
//! figures, and last the result as one JSON object. Traced runs write
//! their spans to `perfbench-run/<workload>-seed<n>-trace1/spans.jsonl`
//! in the cargo target directory. `BENCHMARK.json` gives why each
//! workload is included; `perfbench/layers.json` records which
//! end-to-end metric each layer metric should move and where it is not
//! measured. The benchmark's own tests run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

#![forbid(unsafe_code)]

mod checks;
mod metrics;
mod probes;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use metrics::{Metric, END_TO_END, PER_LAYER, SIMULATED};
use outran_simcore::Percentiles;
use trace::Tracer;
use workloads::{timed, Layers, Outcome, Sizes, Workload};

/// Version of the result and header format.
const SCHEMA: &str = "perfbench-v1";
/// The seed the recorded digests and tuning use.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for re-checking later gain claims.
const HELD_OUT_SEED: u64 = 2;
/// Fewest timed executions per run; `wall_s` and `setup_s` are medians
/// over them.
const MIN_ITERS: usize = 3;

/// Median of `xs`; NaN when empty.
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut p = Percentiles::new();
    xs.into_iter().for_each(|x| p.push(x));
    p.median()
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let workload = Workload::from_name(get("--workload")?).ok_or(format!(
        "unknown workload (expected one of {})",
        Workload::ALL.map(Workload::name).join(", ")
    ))?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark also runs from trees that are not repositories.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(h) = read(r) {
        return h.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the run writes checkpoints and spans: inside the build
/// directory, which the checkout already ignores.
fn scratch_dir(a: &Args) -> std::io::Result<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let dir = target.join(format!(
        "perfbench-run/{}-seed{}-trace{}",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Result of the measured executions of one run.
struct Run {
    metrics: Vec<(Metric, f64)>,
    simulated: Vec<(Metric, f64)>,
    digest: u64,
    attempted: u64,
    failed: u64,
}

/// Check each outcome; print every failure to stderr.
fn count_failures(w: Workload, seed: u64, outcomes: &[Outcome]) -> u64 {
    let recorded = checks::recorded_digest(w, seed);
    let first = outcomes.first().map(|o| o.digest);
    let mut failed = 0;
    for (i, o) in outcomes.iter().enumerate() {
        let mut errs = checks::check(w, o, recorded);
        if Some(o.digest) != first {
            errs.push("digest differs from the run's first execution".into());
        }
        for e in &errs {
            eprintln!("[perfbench] {} execution {i}: {e}", w.name());
        }
        failed += u64::from(!errs.is_empty());
    }
    failed
}

fn execute(
    w: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    tr: Option<&Tracer>,
) -> Result<(Outcome, Layers), String> {
    let io = |e: std::io::Error| e.to_string();
    Ok(match (w, tr) {
        (Workload::SweepLte, None) => (workloads::sweep_run(seed, &sizes.sweep), vec![]),
        (Workload::SweepLte, Some(t)) => workloads::sweep_traced(seed, &sizes.sweep, t),
        (Workload::SoakIdle, None) => (
            workloads::soak_run(seed, &sizes.soak, dir).map_err(io)?,
            vec![],
        ),
        (Workload::SoakIdle, Some(t)) => {
            workloads::soak_traced(seed, &sizes.soak, dir, t).map_err(io)?
        }
        (Workload::MetroHo, None) => (workloads::metro_run(seed, &sizes.metro), vec![]),
        (Workload::MetroHo, Some(t)) => workloads::metro_traced(seed, &sizes.metro, t),
    })
}

/// Resume the soak from its mid-run checkpoint (written by the last
/// execution into `dir`) and record the resumed digest in every outcome.
fn resume_check(
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    outcomes: &mut [Outcome],
    tr: Option<&Tracer>,
) {
    let path = workloads::ckpt_path(dir, workloads::mid_checkpoint(&sizes.soak));
    let resumed = workloads::soak_resume(seed, &sizes.soak, &path, tr)
        .map_err(|e| eprintln!("[perfbench] soak-idle resume: {e}"))
        .ok();
    for o in outcomes {
        o.resume_digest = resumed;
    }
}

/// `--trace 0`: end-to-end metrics.
fn end_to_end(a: &Args, sizes: &Sizes, dir: &Path) -> Result<Run, String> {
    let w = a.workload;
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut outcomes = Vec::new();
    while walls.len() < MIN_ITERS || start.elapsed() < budget {
        // Set-up is sampled beside the executions, not in a burst before
        // them, so both medians are taken over the same window of host
        // load.
        setups.push(timed(|| workloads::setup(w, a.seed, sizes)).0);
        let (wall, r) = timed(|| execute(w, a.seed, sizes, dir, None));
        walls.push(wall);
        outcomes.push(r?.0);
    }
    if w == Workload::SoakIdle {
        resume_check(a.seed, sizes, dir, &mut outcomes, None);
    }
    let failed = count_failures(w, a.seed, &outcomes);
    let o = &outcomes[0];
    let values = [
        median(walls),
        median(setups),
        peak_rss_mib(),
        o.completed as f64 / o.offered.max(1) as f64,
    ];
    Ok(Run {
        metrics: END_TO_END.iter().copied().zip(values).collect(),
        simulated: SIMULATED
            .iter()
            .copied()
            .zip([o.fct_mean_ms, o.fct_short_p95_ms])
            .collect(),
        digest: o.digest,
        attempted: outcomes.len() as u64,
        failed,
    })
}

/// `--trace 1`: per-layer metrics.
fn per_layer(a: &Args, sizes: &Sizes, dir: &Path) -> Result<Run, String> {
    let w = a.workload;
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut samples: BTreeMap<&str, Percentiles> = BTreeMap::new();
    let mut outcomes = Vec::new();
    let mut kept: Option<Tracer> = None;
    while outcomes.is_empty() || start.elapsed() < budget {
        let (plain_wall, plain) = timed(|| execute(w, a.seed, sizes, dir, None));
        let tr = Tracer::default();
        let (mut o, mut layers) = execute(w, a.seed, sizes, dir, Some(&tr))?;
        // The root span covers what a plain execution does; the metro's
        // extra one-thread and set-up runs sit outside it.
        let traced_wall = tr.total_secs(w.root_span());
        if w == Workload::SoakIdle {
            resume_check(a.seed, sizes, dir, std::slice::from_mut(&mut o), Some(&tr));
            layers.push(("ckpt.read_s", tr.total_secs("ckpt.read")));
            layers.push(("ckpt.restore_s", tr.total_secs("ckpt.restore")));
        }
        if plain?.0.digest != o.digest {
            eprintln!("[perfbench] traced and untraced report digests differ");
            o.failures += 1;
        }
        layers.push(("faults.violations", o.violations as f64));
        layers.push(("trace.overhead_s", traced_wall - plain_wall));
        for (name, v) in layers {
            samples.entry(name).or_default().push(v);
        }
        outcomes.push(o);
        kept.get_or_insert(tr);
    }
    let users = sizes.sweep.users;
    let times: Vec<_> = workloads::soak_arrivals(a.seed, &sizes.soak)
        .into_iter()
        .map(|(at, _, _)| at)
        .collect();
    let probes = [
        probes::phy(users, a.seed),
        probes::mac(users, a.seed),
        probes::setup(users, a.seed),
        probes::events(&times),
    ];
    for (name, v) in probes.into_iter().flatten() {
        samples.entry(name).or_default().push(v);
    }
    let failed = count_failures(w, a.seed, &outcomes);
    let spans = dir.join("spans.jsonl");
    kept.expect("at least one traced execution")
        .write_jsonl(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    eprintln!("[perfbench] spans written to {}", spans.display());
    let mut metrics = Vec::new();
    for m in PER_LAYER {
        match samples.get_mut(m.name) {
            Some(v) => metrics.push((*m, v.median())),
            None if m.on.contains(&w) => {
                return Err(format!("{} produced no {}", w.name(), m.name));
            }
            None => metrics.push((*m, 0.0)),
        }
    }
    if let Some(name) = samples
        .keys()
        .find(|n| !PER_LAYER.iter().any(|m| m.name == **n))
    {
        return Err(format!("{name} is missing from the metric catalogue"));
    }
    Ok(Run {
        metrics,
        simulated: Vec::new(),
        digest: outcomes[0].digest,
        attempted: outcomes.len() as u64,
        failed,
    })
}

fn header(a: &Args) -> String {
    format!(
        "{{\"header\": {{\"schema\": \"{SCHEMA}\", \"git_rev\": \"{}\", \"profile\": \"{}\", \
         \"cores\": {}, \"threads\": {}, \"workload\": \"{}\", \"seed\": {}, \
         \"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}}}}}",
        git_rev(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        cores(),
        a.workload.threads(),
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
    )
}

/// `"name": {"value": v, "unit": "u"}, ...` for a metric list.
fn metrics_json(ms: &[(Metric, f64)]) -> String {
    ms.iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn result_json(run: &Run) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics_json(&run.metrics)
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let sizes = Sizes::standard();
    let dir = scratch_dir(&a).unwrap_or_else(|e| {
        eprintln!("perfbench: cannot create the scratch directory: {e}");
        std::process::exit(2);
    });
    println!("{}", header(&a));
    let run = if a.trace {
        per_layer(&a, &sizes, &dir)
    } else {
        end_to_end(&a, &sizes, &dir)
    };
    // Checkpoints are large; only the span file outlives the run.
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for e in entries.flatten() {
            if e.path().extension().is_some_and(|x| x == "orsn") {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    let run = run.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    for (m, v) in run.metrics.iter().chain(&run.simulated) {
        let note = if m.on.contains(&a.workload) {
            ""
        } else {
            "  (not measured on this workload)"
        };
        println!("{:<28} {v:>16.6} {}{note}", m.name, m.unit);
    }
    println!(
        "{{\"report_fnv\": \"{:016x}\", \"simulated\": {{{}}}}}",
        run.digest,
        metrics_json(&run.simulated)
    );
    println!("{}", result_json(&run));
    if run.failed > 0 {
        std::process::exit(1);
    }
}
