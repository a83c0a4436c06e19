//! What Linux reports about this process: peak resident memory and the
//! scheduler's on-CPU / run-queue times.

use std::fs;

/// `VmHWM` of this process in KiB — the peak resident set size.
pub fn vm_hwm_kib() -> Option<u64> {
    parse_vm_hwm(&fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// `(on-CPU ns, run-queue wait ns)` of the main thread so far.
pub fn schedstat() -> Option<(u64, u64)> {
    parse_schedstat(&fs::read_to_string("/proc/self/schedstat").ok()?)
}

fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let on_cpu = fields.next()?.parse().ok()?;
    let waiting = fields.next()?.parse().ok()?;
    Some((on_cpu, waiting))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_formats() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    6624 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(6624));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_schedstat("900 100 7\n"), Some((900, 100)));
        assert_eq!(parse_schedstat("\n"), None);
    }
}
