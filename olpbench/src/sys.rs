//! The operating-system calls the benchmark needs: process CPU time,
//! peak resident memory, CPU affinity, and readiness of a socket with a
//! sub-millisecond timeout. Linux only (`/proc` and glibc).

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;
const POLLIN: i16 = 0x1;

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of
    // x86-64/aarch64 Linux (two 64-bit fields); the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Waits until `fd` has data to read or `timeout` passes; `true` when
/// readable (or closed by the peer). Unlike a socket read timeout,
/// which the kernel rounds to scheduler ticks, `ppoll` sleeps on a
/// high-resolution timer, so an open-loop sender wakes on schedule.
pub fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd and a valid timespec, both live for the
    // call; a null signal mask keeps the current mask.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// The CPUs this thread may run on, in ascending order.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable cpu_set_t of the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread (and threads it creates later, and a
/// process it becomes by `exec`) to CPU `cpu`. Allocates nothing, so it
/// may run between `fork` and `exec`.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Kernel clock ticks per second (the unit of `/proc/PID/stat` times).
pub fn clock_ticks_per_sec() -> u64 {
    // SAFETY: sysconf only reads a configuration value.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    u64::try_from(t).ok().filter(|&t| t > 0).unwrap_or(100)
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(p) => format!("/proc/{p}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set size (`VmHWM`) of `pid` (this process when
/// `None`), in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> io::Result<f64> {
    let status = std::fs::read_to_string(proc_path(pid, "status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// User plus system CPU time of process `pid` from `/proc/PID/stat`.
pub fn process_cpu_of(pid: u32) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(proc_path(Some(pid), "stat"))?;
    let ticks = parse_stat_ticks(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    Ok(Duration::from_secs_f64(
        ticks as f64 / clock_ticks_per_sec() as f64,
    ))
}

/// `utime + stime` (fields 14 and 15) of a `/proc/PID/stat` line. The
/// command name (field 2) may contain spaces, so fields are counted
/// from the closing parenthesis.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (olp serve) S 1 2 3 4 5 6 7 8 9 10 120 30 0 0 20 0 9 0 100 1000 50";
        assert_eq!(parse_stat_ticks(line), Some(150));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn a_thread_can_be_pinned_to_an_allowed_cpu() {
        let cpus = allowed_cpus().unwrap();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        std::thread::spawn(move || {
            pin_current_thread(last).unwrap();
            assert_eq!(allowed_cpus().unwrap(), vec![last]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn own_process_is_measurable() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > before);
        assert!(peak_rss_mib(None).unwrap() > 0.0);
        assert!(process_cpu_of(std::process::id()).is_ok());
    }
}
