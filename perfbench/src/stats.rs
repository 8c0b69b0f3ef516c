//! Small measurement helpers: quartiles, the report digest, CPU clocks,
//! process counters read from `/proc`, and the host facts every results
//! file records.

use serde::Serialize;
use serde_json::{Number, Value};

/// First quartile, median and third quartile of `values`, computed the
/// way Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) does, so spreads quoted from a results file match
/// a reader's own computation. A single value is its own quartiles;
/// an empty slice gives NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *q = (lo * (4 - delta) as f64 + hi * delta as f64) / 4.0;
    }
    out
}

/// Keys that carry host measurements (wall-clock time, thread counts)
/// rather than simulated results. They are dropped before hashing, so a
/// digest compares only what the simulation computed.
const HOST_KEYS: [&str; 3] = ["threads", "wall_secs", "sim_req_per_wall_min"];

/// FNV-1a 64-bit digest of a serialized report, skipping every
/// [`HOST_KEYS`] entry at any depth. It hashes the value tree itself
/// (type tags, keys, and the exact bits of every number) rather than its
/// JSON text, which keeps reports with millions of retained samples cheap
/// to digest. Object keys are sorted by the JSON shim, so the digest is
/// deterministic for a given report.
pub fn digest(report: &Value) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.value(report);
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(b"n"),
            Value::Bool(b) => self.bytes(if *b { b"t" } else { b"f" }),
            Value::Number(Number::U64(n)) => {
                self.bytes(b"u");
                self.bytes(&n.to_le_bytes());
            }
            Value::Number(Number::I64(n)) => {
                self.bytes(b"i");
                self.bytes(&n.to_le_bytes());
            }
            Value::Number(Number::F64(x)) => {
                self.bytes(b"d");
                self.bytes(&x.to_bits().to_le_bytes());
            }
            Value::String(s) => {
                self.bytes(b"s");
                self.bytes(&(s.len() as u64).to_le_bytes());
                self.bytes(s.as_bytes());
            }
            Value::Array(items) => {
                self.bytes(b"a");
                self.bytes(&(items.len() as u64).to_le_bytes());
                items.iter().for_each(|item| self.value(item));
            }
            Value::Object(m) => {
                self.bytes(b"o");
                for (k, item) in m.iter().filter(|(k, _)| !HOST_KEYS.contains(&k.as_str())) {
                    self.bytes(&(k.len() as u64).to_le_bytes());
                    self.bytes(k.as_bytes());
                    self.value(item);
                }
                self.bytes(b"e");
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks below assume Linux's 64-bit `struct timespec`");

/// `struct timespec` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // the C library expects on this target (checked above), and
    // `clock_gettime` writes nothing but it.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) this process has used, all threads live or
/// exited, ns. Unlike wall time it leaves out time spent waiting for a
/// CPU, including time a hypervisor took the virtual CPU away.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Facts about the host and build that a reader needs to compare two
/// results files: core count, CPU model, compiler, commit and profile.
#[derive(Debug, Serialize)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The first `model name` in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// The checked-out commit, or `unknown` outside a git clone.
    pub git_head: String,
    /// `release` or `debug`.
    pub profile: String,
}

impl HostFacts {
    /// Collect the facts for this host and binary.
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Self {
            nproc: nproc(),
            cpu_model,
            rustc,
            git_head: git_head(),
            profile: profile.into(),
        }
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the repository is checked out at, read from `.git`
/// without running git (a source checkout without history has none).
fn git_head() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values printed by Python 3's
        // `statistics.quantiles(data, n=4)`.
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(
            quartiles(&[2.5, 10.0, 1.0, 7.0, 3.0, 3.5, 9.0, 8.0, 4.0, 6.0]),
            [2.875, 5.0, 8.25]
        );
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn digest_ignores_host_fields_only() {
        let base = serde_json::parse(
            r#"{"arrivals": 10, "per_site": [{"completed": 9, "threads": 2}],
                "wall_secs": 1.5, "threads": 2}"#,
        )
        .unwrap();
        let other_host = serde_json::parse(
            r#"{"arrivals": 10, "per_site": [{"completed": 9, "threads": 1}],
                "wall_secs": 9.25, "threads": 1, "sim_req_per_wall_min": 3.0}"#,
        )
        .unwrap();
        let other_result = serde_json::parse(
            r#"{"arrivals": 10, "per_site": [{"completed": 8, "threads": 2}],
                "wall_secs": 1.5, "threads": 2}"#,
        )
        .unwrap();
        assert_eq!(digest(&base), digest(&other_host));
        assert_ne!(digest(&base), digest(&other_result));
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mib() > 0.0);
        let (process, thread) = (process_cpu_ns(), thread_cpu_ns());
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        assert!(thread_cpu_ns() - thread >= 10_000_000);
        assert!(process_cpu_ns() - process >= 10_000_000);
    }
}
