//! Correctness checks applied to every execution of a workload.

use crate::workloads::{Outcome, Workload};

/// Report digests recorded at the default and held-out seeds.
const DIGESTS: &str = include_str!("../digests.txt");

/// The digest recorded for `w` at `seed`, if one is.
pub fn recorded_digest(w: Workload, seed: u64) -> Option<u64> {
    DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (name, s, hex) = (f.next()?, f.next()?, f.next()?);
            if name != w.name() || s.parse::<u64>().ok()? != seed {
                return None;
            }
            u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
        })
}

/// Every way `o` fails the checks for workload `w`, given the digest
/// recorded for its seed (if any). Empty when the execution is correct.
pub fn check(w: Workload, o: &Outcome, recorded: Option<u64>) -> Vec<String> {
    let mut errs = Vec::new();
    if o.violations > 0 {
        errs.push(format!("{} invariant violation(s)", o.violations));
    }
    if o.failures > 0 {
        errs.push(format!(
            "{} worker failure(s), watchdog abort(s) or thread-count mismatch(es)",
            o.failures
        ));
    }
    if o.offered == 0 || o.completed == 0 {
        errs.push(format!("{} of {} flows completed", o.completed, o.offered));
    }
    match w {
        Workload::MetroHo if o.handovers == 0 => {
            errs.push("the metro executed no handover".into());
        }
        Workload::SoakIdle => {
            if o.skipped_ttis == 0 {
                errs.push("the soak skipped no idle TTI".into());
            }
            match o.resume_digest {
                Some(d) if d == o.digest => {}
                Some(d) => errs.push(format!(
                    "resume from the mid-run checkpoint gives digest {d:016x}, \
                     the uninterrupted run {:016x}",
                    o.digest
                )),
                None => errs.push("the resume check did not run".into()),
            }
        }
        _ => {}
    }
    if let Some(r) = recorded {
        if r != o.digest {
            errs.push(format!(
                "report digest {:016x} differs from the recorded {r:016x}",
                o.digest
            ));
        }
    }
    errs
}
