//! Memory and CPU readers over `/proc/self`, with no dependency beyond
//! std. The parsers take the file text so tests can feed fixtures.

use std::fs;

/// `VmHWM` (peak resident set size) in kB, from `/proc/<pid>/status` text.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// `utime + stime` in clock ticks, from `/proc/<pid>/stat` text. The
/// command name (field 2) is parenthesised and may itself hold spaces
/// or parentheses, so fields are counted from the *last* `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command name: field 3 (state) is index 0, so utime
    // (field 14) and stime (field 15) are indices 11 and 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `AT_CLKTCK` from the auxiliary vector bytes (native-endian
/// `(type, value)` word pairs), the tick rate of `/proc/<pid>/stat`.
pub fn clock_ticks_from_auxv(auxv: &[u8]) -> Option<u64> {
    const AT_CLKTCK: usize = 17;
    const WORD: usize = std::mem::size_of::<usize>();
    let read = |chunk: &[u8]| usize::from_ne_bytes(chunk.try_into().expect("one word"));
    auxv.chunks_exact(2 * WORD)
        .map(|pair| (read(&pair[..WORD]), read(&pair[WORD..])))
        .take_while(|&(kind, _)| kind != 0)
        .find(|&(kind, _)| kind == AT_CLKTCK)
        .map(|(_, value)| value as u64)
        .filter(|&hz| hz > 0)
}

/// Peak resident set size of this process, MB (0 if unreadable).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU time (user + system) this process has used so far, seconds.
pub fn cpu_seconds() -> f64 {
    let hz = fs::read("/proc/self/auxv")
        .ok()
        .and_then(|a| clock_ticks_from_auxv(&a))
        .unwrap_or(100);
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / hz as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\trac-benchmark\nVmPeak:\t  300000 kB\n\
        VmHWM:\t  212992 kB\nVmRSS:\t   90000 kB\nThreads:\t3\n";

    #[test]
    fn hwm_parses_and_rejects_malformed() {
        assert_eq!(vm_hwm_kb(STATUS), Some(212_992));
        assert_eq!(vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t 12 pages\n"), None);
    }

    #[test]
    fn cpu_ticks_skips_tricky_command_names() {
        // Fields 14 and 15 are 250 and 31.
        let stat = "4242 (odd) name)) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 31 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(cpu_ticks(stat), Some(281));
        assert_eq!(cpu_ticks("4242 (short) R 1 2"), None);
        assert_eq!(cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn clock_ticks_found_in_auxv() {
        let mut auxv = Vec::new();
        for (kind, value) in [(6usize, 4096usize), (17, 100), (0, 0)] {
            auxv.extend_from_slice(&kind.to_ne_bytes());
            auxv.extend_from_slice(&value.to_ne_bytes());
        }
        assert_eq!(clock_ticks_from_auxv(&auxv), Some(100));
        assert_eq!(
            clock_ticks_from_auxv(&auxv[..2 * std::mem::size_of::<usize>()]),
            None
        );
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
