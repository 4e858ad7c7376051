//! What the host looked like while a workload ran.

use crate::adapter::{hw_threads, Json};
use crate::stats::quantile;
use std::collections::HashMap;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// What the calibration loop takes on the host class this benchmark was
/// sized on while that host is quiet, rounded (10.4–10.6 ms measured). Every reported
/// time is scaled to a host on which the loop takes exactly this long, so a
/// time reads the same whether or not a neighbour was busy while it was
/// taken (README "Host calibration").
pub const CALIB_REF_MS: f64 = 10.0;

/// A run whose median calibration reading is this far above its quietest
/// one is marked `noisy`.
pub const NOISY_SHARE: f64 = 0.10;

/// The calibration loop and its readings.
///
/// The loop is fixed work that belongs to the benchmark, not to the program
/// under test: a data-dependent walk over a 256 KiB table with a branch, a
/// `HashMap` lookup on one side and a small heap allocation on the other —
/// the instruction mix of an interpreter, which is what the host's slow
/// phases (a busy sibling hardware thread, a contended cache) slow down. It
/// runs before and after every timed region.
pub struct Calibrator {
    table: Vec<u32>,
    map: HashMap<u64, u64>,
    last_ms: f64,
    readings: Vec<f64>,
}

const TABLE: usize = 1 << 16;
const STEPS: u64 = 700_000;

impl Calibrator {
    /// Builds the loop's data and takes the first reading.
    pub fn start() -> Calibrator {
        let mut c = Calibrator {
            table: (0..TABLE as u32).map(|i| i.wrapping_mul(2_654_435_761) >> 7).collect(),
            map: (0..4096u64).map(|i| (i * 7919, i)).collect(),
            last_ms: 0.0,
            readings: Vec::new(),
        };
        c.read();
        c
    }

    fn read(&mut self) -> f64 {
        let t = Instant::now();
        let mut table = self.table.clone();
        let (mut idx, mut acc) = (1usize, 0u64);
        for step in 0..black_box(STEPS) {
            let v = table[idx & (TABLE - 1)];
            if v & 1 == 0 {
                acc =
                    acc.wrapping_add(*self.map.get(&((u64::from(v) & 4095) * 7919)).unwrap_or(&0));
                table[idx & (TABLE - 1)] = v.rotate_left(3) ^ step as u32;
            } else {
                let boxed = black_box(Box::new(acc ^ u64::from(v)));
                acc = acc.wrapping_add(*boxed >> 3);
            }
            idx = (v as usize).wrapping_add(idx >> 1).wrapping_add(step as usize);
        }
        black_box((acc, table));
        self.last_ms = t.elapsed().as_secs_f64() * 1e3;
        self.readings.push(self.last_ms);
        self.last_ms
    }

    /// Runs `f` between two readings (the one before is shared with the
    /// previous region). Returns `f`'s result and the factor that scales a
    /// time measured inside `f` to the reference host.
    pub fn around<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.last_ms;
        let r = f();
        let after = self.read();
        (r, CALIB_REF_MS / ((before + after) / 2.0))
    }

    pub fn readings(&self) -> &[f64] {
        &self.readings
    }
}

/// True when the median of `readings` is more than [`NOISY_SHARE`] above
/// the minimum: the host spent most of the run in a slow phase.
pub fn is_noisy(readings: &[f64]) -> bool {
    quantile(readings, 0.5) > (1.0 + NOISY_SHARE) * quantile(readings, 0.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.split_whitespace().next()?.parse().ok()
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The stamp written into every result file.
pub fn stamp(seed: u64) -> Json {
    Json::obj(vec![
        ("hw_threads", Json::Num(hw_threads() as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("git_rev", Json::Str(first_line_of("git", &["rev-parse", "--short", "HEAD"]))),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("seed", Json::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }

    #[test]
    fn noisy_means_a_median_reading_ten_percent_above_the_quietest() {
        assert!(!is_noisy(&[100.0, 104.0, 109.0, 150.0, 100.0]));
        assert!(is_noisy(&[100.0, 111.0, 112.0, 150.0, 120.0]));
    }

    #[test]
    fn scale_is_the_reference_over_the_neighbouring_readings() {
        let mut c = Calibrator::start();
        let before = c.readings()[0];
        let ((), scale) = c.around(|| ());
        let after = c.readings()[1];
        assert_eq!(c.readings().len(), 2);
        assert!((scale - CALIB_REF_MS / ((before + after) / 2.0)).abs() < 1e-12);
    }
}
