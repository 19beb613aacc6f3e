//! Process-level counters read from `/proc/self` (Linux).

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Byte counters of `/proc/self/io`: `rchar`/`wchar` count every byte
/// passed to read/write system calls, whether or not it reached a disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Io {
    pub read: u64,
    pub written: u64,
}

impl Io {
    pub fn now() -> Result<Io, String> {
        let text = std::fs::read_to_string("/proc/self/io")
            .map_err(|e| format!("reading /proc/self/io: {e}"))?;
        let field = |key: &str| {
            text.lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| rest.trim().parse::<u64>().ok())
                .ok_or_else(|| format!("no {key} line in /proc/self/io"))
        };
        Ok(Io {
            read: field("rchar:")?,
            written: field("wchar:")?,
        })
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Io) -> Io {
        Io {
            read: self.read.saturating_sub(earlier.read),
            written: self.written.saturating_sub(earlier.written),
        }
    }
}

/// User and system CPU seconds this process has used so far. `/proc`
/// reports them in clock ticks of `USER_HZ`, which Linux fixes at 100.
pub fn cpu_seconds() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being the
    // 12th and 13th of them.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat: {stat:?}"))
    };
    Ok((ticks(11)? / 100.0, ticks(12)? / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_grow() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        let before = Io::now().expect("/proc/self/io");
        std::fs::write("/dev/null", vec![7u8; 4096]).expect("write");
        let read = std::fs::read("/proc/self/status").expect("read");
        let delta = Io::now().expect("/proc/self/io").since(before);
        assert!(delta.written >= 4096 && delta.read >= read.len() as u64);
        let (user, sys) = cpu_seconds().expect("/proc/self/stat");
        assert!(user >= 0.0 && sys >= 0.0);
    }
}
