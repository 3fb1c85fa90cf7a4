//! The benchmark's own tests: every check can fail, tracing changes no
//! simulated byte, and the catalogue matches `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use outran_ran::SchedulerKind;
use outran_simcore::{Dur, Time};

use crate::checks::{check, recorded_digest};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::*;
use crate::{DEFAULT_SEED, HELD_OUT_SEED};

fn tiny_sweep() -> SweepSize {
    SweepSize {
        users: 4,
        secs: 2,
        loads: vec![0.5],
        seeds: 2,
    }
}

fn tiny_soak() -> SoakSize {
    SoakSize {
        ues: 2,
        rbs: 25,
        think: Dur::from_secs(60),
        horizon: Time::from_secs(20 * 60),
        ckpt_every: Dur::from_secs(5 * 60),
    }
}

fn tiny_metro(sites: usize, sectors: usize) -> MetroSize {
    MetroSize {
        sites,
        sectors,
        slots: 8,
        ues: 4 * sites * sectors,
        load: 0.3,
        secs: 3,
        scheduler: SchedulerKind::Pf,
    }
}

/// A fresh directory for one test's checkpoints.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[test]
fn tampered_digest_is_rejected() {
    let o = sweep_run(3, &tiny_sweep());
    assert!(check(Workload::SweepLte, &o, Some(o.digest)).is_empty());
    let errs = check(Workload::SweepLte, &o, Some(o.digest ^ 1));
    assert!(errs.iter().any(|e| e.contains("recorded")), "{errs:?}");
}

#[test]
fn metro_without_churn_is_rejected() {
    // One omni cell: no neighbour to hand over to.
    let o = metro_run(5, &tiny_metro(1, 1));
    assert_eq!(o.handovers, 0);
    let errs = check(Workload::MetroHo, &o, None);
    assert!(errs.iter().any(|e| e.contains("handover")), "{errs:?}");
}

#[test]
fn resume_mismatch_is_rejected() {
    let size = tiny_soak();
    let (dir, other) = (test_dir("resume"), test_dir("resume-other"));
    let mut o = soak_run(4, &size, &dir).expect("soak runs");
    let mid = ckpt_path(&dir, mid_checkpoint(&size));
    o.resume_digest = soak_resume(4, &size, &mid, None).ok();
    assert!(check(Workload::SoakIdle, &o, None).is_empty());

    // A checkpoint of another run resumes to that run's report.
    soak_run(5, &size, &other).expect("soak runs");
    let foreign = ckpt_path(&other, mid_checkpoint(&size));
    o.resume_digest = soak_resume(4, &size, &foreign, None).ok();
    let mismatch = check(Workload::SoakIdle, &o, None);

    // A corrupted checkpoint does not restore at all.
    let mut bytes = std::fs::read(&mid).expect("read checkpoint");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&mid, bytes).expect("write checkpoint");
    o.resume_digest = soak_resume(4, &size, &mid, None).ok();
    let corrupt = check(Workload::SoakIdle, &o, None);

    std::fs::remove_dir_all(&dir).expect("remove test dir");
    std::fs::remove_dir_all(&other).expect("remove test dir");
    assert!(
        mismatch.iter().any(|e| e.contains("resume")),
        "{mismatch:?}"
    );
    assert!(corrupt.iter().any(|e| e.contains("resume")), "{corrupt:?}");
}

#[test]
fn tracing_changes_no_simulated_byte() {
    let tr = Tracer::default();
    let sweep = tiny_sweep();
    assert_eq!(
        sweep_run(6, &sweep).digest,
        sweep_traced(6, &sweep, &tr).0.digest
    );

    let soak = tiny_soak();
    let dir = test_dir("traced");
    let plain = soak_run(6, &soak, &dir).expect("soak runs").digest;
    let (traced, layers) = soak_traced(6, &soak, &dir, &tr).expect("soak runs");
    std::fs::remove_dir_all(&dir).expect("remove test dir");
    assert_eq!(plain, traced.digest);
    assert!(layers.iter().any(|&(n, v)| n == "ckpt.count" && v == 4.0));

    let metro = tiny_metro(2, 3);
    assert_eq!(
        metro_run(6, &metro).digest,
        metro_traced(6, &metro, &tr).0.digest
    );
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |start, end, parent| Span {
        name: "x",
        start,
        end,
        parent,
        job: 0,
    };
    // Two overlapping children cover [10, 70) of the root's [0, 100).
    let spans = [
        span(0, 100, None),
        span(10, 50, Some(0)),
        span(30, 70, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![40, 40, 40]);
}

#[test]
fn digests_are_recorded_for_both_seeds() {
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            assert!(recorded_digest(w, seed).is_some(), "{} {seed}", w.name());
        }
    }
}

/// `"name": "<x>", "unit": "<u>"` pairs of one list in BENCHMARK.json.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let at = json.find(&format!("\"{key}\"")).expect("key present");
    let list = &json[at..json[at..].find(']').map_or(json.len(), |e| at + e)];
    let field = |obj: &str, k: &str| -> String {
        let tag = format!("\"{k}\": \"");
        let v = &obj[obj.find(&tag).expect("field present") + tag.len()..];
        v[..v.find('"').expect("closing quote")].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let bench = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("read");
    let names = |ms: &[crate::metrics::Metric]| -> Vec<(String, String)> {
        ms.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(listed(&bench, "end_to_end"), names(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), names(PER_LAYER));
    // layers.json has one line per layer metric; its not_measured_on
    // list must be exactly the workloads outside the metric's `on`.
    let layers: Vec<&str> = include_str!("../layers.json")
        .lines()
        .filter(|l| l.contains("\"metric\": "))
        .collect();
    assert_eq!(
        layers.len(),
        PER_LAYER.len(),
        "one layers.json line per metric"
    );
    for (line, m) in layers.iter().zip(PER_LAYER) {
        assert!(
            line.contains(&format!("\"metric\": \"{}\"", m.name)),
            "{line}"
        );
        let tag = "\"not_measured_on\": [";
        let rest = &line[line.find(tag).expect("not_measured_on present") + tag.len()..];
        let listed: Vec<&str> = rest[..rest.find(']').expect("closing bracket")]
            .split(',')
            .map(|w| w.trim().trim_matches('"'))
            .filter(|w| !w.is_empty())
            .collect();
        let expected: Vec<&str> = Workload::ALL
            .into_iter()
            .filter(|w| !m.on.contains(w))
            .map(Workload::name)
            .collect();
        assert_eq!(listed, expected, "not_measured_on of {}", m.name);
    }
}
