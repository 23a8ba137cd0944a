//! Order statistics, timing loops and the `/proc` readers behind the
//! process-level metrics.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice, so an unsampled series reads as "no work".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// returns them — the driver's spread rule is stated in those terms.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the repeatability
/// figure the driver compares against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median and sample count of repeated timings of `f`, in nanoseconds per
/// item: `f` handles `items` items per call and is called `reps` times
/// after one untimed warm-up call.
pub fn time_per_item(items: u64, reps: usize, mut f: impl FnMut()) -> (f64, usize) {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    (median(&samples), reps)
}

/// Milliseconds `f` takes, with its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|s| s.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(sys)) => (user + sys) / 100.0,
        _ => 0.0,
    }
}

/// Nanoseconds every live thread of this process has spent on a CPU, from
/// `/proc/self/task/*/schedstat` — finer than the 10 ms ticks of
/// [`cpu_seconds`], so a single round can be priced. `None` where the
/// kernel does not keep scheduler statistics.
pub fn threads_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    (total > 0).then_some(total)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and on what a result was measured; written into every result file.
pub struct EnvInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn env_info() -> EnvInfo {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    EnvInfo {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu_model: cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".into(), |(_, m)| m.trim().to_string()),
        rustc: command_line("rustc", &["--version"]).unwrap_or("unknown".into()),
        commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or("unknown".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        // Other tests' threads come and go, so only presence is checked.
        assert!(threads_cpu_ns().is_none_or(|ns| ns > 0));
    }
}
