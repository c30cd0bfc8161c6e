//! Process counters from `/proc/self`.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100
/// on every Linux architecture this benchmark runs on).
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU seconds of the whole process so far, exited
/// threads included.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn now() -> Result<CpuTimes, String> {
        let stat = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
        // The command name may hold spaces; fields resume after its ')'.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or("malformed /proc/self/stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // After the name come state (field 3) ... utime (14), stime (15).
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64 / TICKS_PER_S)
                .ok_or_else(|| format!("/proc/self/stat field {} unreadable", i + 3))
        };
        Ok(CpuTimes {
            user_s: tick(11)?,
            sys_s: tick(12)?,
        })
    }

    pub fn since(self, before: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - before.user_s,
            sys_s: self.sys_s - before.sys_s,
        }
    }
}

/// Peak resident memory of the process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
