//! Process accounting the standard library does not expose: CPU time of
//! the calling process via `getrusage(2)` and its peak resident set from
//! `/proc/self/status`.

/// CPU seconds (user + system) and peak RSS of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s,
/// none of which is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set of this process image in MiB: `VmHWM`. Not
/// `ru_maxrss`, which a process inherits across `fork` + `exec`: a search
/// child that needs less memory than the benchmark's own parent process
/// held when it forked would report the parent's.
fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc is mounted on Linux");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

/// Resource usage of the calling process (all its threads, exited ones
/// included; child processes excluded).
pub fn usage_self() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines (checked by the cfg above); the call writes
    // only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mib: vm_hwm_mib(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_positive_and_monotone() {
        let a = usage_self();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = usage_self();
        assert!(a.peak_rss_mib > 0.5, "peak rss {}", a.peak_rss_mib);
        assert!(b.cpu_s >= a.cpu_s);
        assert!(b.peak_rss_mib >= a.peak_rss_mib);
    }
}
