//! The daemon under test, driven and observed from outside: a spawned
//! `blobseer-server` process, its `/health` and `/metrics` routes, and what
//! `/proc/<pid>` and the durable directory say about it.

use blobseer_server::metrics_addr_of;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux clock ticks per second (`USER_HZ`), the unit of `/proc/*/stat`.
const TICKS_PER_S: f64 = 100.0;

/// A running `blobseer-server` child. Dropping it SIGKILLs and reaps the
/// process, so no exit path of the benchmark (panics included) leaves a
/// daemon behind.
pub struct Daemon {
    child: Child,
    pub endpoints_text: String,
    pub metrics: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on `config` and waits until `/health` answers.
    pub fn spawn(server: &Path, config: &Path, endpoints: &Path, log: &Path) -> Daemon {
        let _ = std::fs::remove_file(endpoints);
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .expect("daemon log file");
        let child = Command::new(server)
            .arg(config)
            .stdin(Stdio::null())
            .stdout(log.try_clone().expect("daemon log handle"))
            .stderr(log)
            .spawn()
            .expect("spawning blobseer-server");
        let mut daemon = Daemon {
            child,
            endpoints_text: String::new(),
            metrics: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "daemon did not come up");
            if let Ok(Some(status)) = daemon.child.try_wait() {
                panic!("daemon exited during start-up: {status}");
            }
            if let Ok(text) = std::fs::read_to_string(endpoints) {
                if let Some(addr) = metrics_addr_of(&text) {
                    daemon.endpoints_text = text;
                    daemon.metrics = addr;
                    if http(addr, "GET /health").is_some_and(|body| body.trim() == "ok") {
                        return daemon;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /metrics`, parsed into name → value.
    pub fn metrics(&self) -> HashMap<String, u64> {
        let body = http(self.metrics, "GET /metrics").expect("daemon /metrics");
        body.lines()
            .filter_map(|line| {
                let (name, value) = line.split_once(' ')?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect()
    }

    /// Peak resident set (`VmHWM`) in bytes.
    pub fn peak_rss(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .expect("daemon /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .expect("VmHWM in /proc status")
            * 1024
    }

    /// CPU time of the whole process (live and exited threads), in ms.
    pub fn process_cpu_ms(&self) -> f64 {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .expect("daemon /proc stat");
        let (utime, stime) = stat_times(&stat);
        (utime + stime) as f64 * 1000.0 / TICKS_PER_S
    }

    /// CPU time per live thread, keyed by thread id, with the thread name.
    pub fn thread_cpu(&self) -> ThreadCpu {
        let pid = self.pid();
        let mut threads = HashMap::new();
        let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
            return ThreadCpu { pid, threads };
        };
        for entry in dir.flatten() {
            let path = entry.path();
            let Ok(stat) = std::fs::read_to_string(path.join("stat")) else {
                continue;
            };
            let name = stat
                .split_once('(')
                .and_then(|(_, rest)| rest.rsplit_once(')'))
                .map_or(String::new(), |(name, _)| name.to_string());
            // `schedstat` has nanosecond run time; `stat` ticks are the
            // fallback on kernels without it.
            let ms = std::fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
                .map_or_else(
                    || {
                        let (u, s) = stat_times(&stat);
                        (u + s) as f64 * 1000.0 / TICKS_PER_S
                    },
                    |ns| ns as f64 / 1e6,
                );
            let tid = entry.file_name().to_string_lossy().parse().unwrap_or(0);
            threads.insert(tid, (name, ms));
        }
        ThreadCpu { pid, threads }
    }

    /// SIGKILLs the daemon and reaps it.
    pub fn kill(mut self) {
        self.kill_now();
    }

    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// Per-thread CPU of the daemon at one instant.
pub struct ThreadCpu {
    pid: u32,
    threads: HashMap<u32, (String, f64)>,
}

impl ThreadCpu {
    /// CPU ms spent since `before` by threads `select` accepts, given the
    /// thread name and whether it is the main thread.
    pub fn since(&self, before: &ThreadCpu, select: impl Fn(&str, bool) -> bool) -> f64 {
        self.threads
            .iter()
            .filter(|(tid, (name, _))| select(name, **tid == self.pid))
            .map(|(tid, (_, ms))| ms - before.threads.get(tid).map_or(0.0, |(_, b)| *b))
            .sum()
    }
}

fn stat_times(stat: &str) -> (u64, u64) {
    // Fields after the parenthesised name: state is field 3, utime 14,
    // stime 15 (1-based over the whole line).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let get = |i: usize| fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0);
    (get(11), get(12))
}

/// The machine's stolen and total CPU ticks so far (`/proc/stat`): how much
/// of this box's CPU time the hypervisor gave to its neighbours.
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// One HTTP/1.0 request to the daemon's metrics endpoint; the body on 200.
pub fn http(addr: SocketAddr, request_line: &str) -> Option<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream
        .write_all(format!("{request_line} HTTP/1.0\r\n\r\n").as_bytes())
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.0 200").then(|| body.to_string())
}

/// Bytes under the durable directory, split into chunk segments, the
/// metadata WAL, and everything else.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskUsage {
    pub segments: u64,
    pub wal: u64,
    pub other: u64,
}

impl DiskUsage {
    pub fn of(dir: &Path) -> DiskUsage {
        let mut usage = DiskUsage::default();
        let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let Ok(meta) = entry.metadata() else { continue };
                if meta.is_dir() {
                    stack.push(entry.path());
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with("seg-") && name.ends_with(".log") {
                    usage.segments += meta.len();
                } else if name.starts_with("meta.wal") {
                    usage.wal += meta.len();
                } else {
                    usage.other += meta.len();
                }
            }
        }
        usage
    }

    pub fn total(&self) -> u64 {
        self.segments + self.wal + self.other
    }
}
